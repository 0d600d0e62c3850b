"""The per-fold proportional-odds Newton, kept as the reference for the
stacked Newton of :mod:`shapegplm.baselines`.

``baseline_loocv`` fits the folds of a stack through one Newton loop,
:func:`shapegplm.baselines._newton`, and ``fit_cumulative_logit`` is that
loop on a stack of one. The per-fold loop it replaced is kept here verbatim,
with the closed-form likelihood, gradient and Hessian it called. Every
problem of a stack must end as its per-fold fit ends, bit for bit: the same
``alpha``, ``beta`` and covariance, or the same error, message and trace.
"""

import numpy as np
import pytest

import shapegplm.baselines as baselines
from shapegplm import baseline_loocv, fit_cumulative_logit
from shapegplm.errors import InvalidArgumentError, NonConvergenceError

from test_baselines import cloud_bundle
from test_reference_baseline import ordinal_sample
from test_reference_sweep import assert_same_bits


# --- reference forms --------------------------------------------------------

def ref_nll_grad_hess(theta, y_idx, x, K):
    """Negative log-likelihood, gradient and Hessian of the proportional-odds
    model.

    Parameters are ``(alpha_1..alpha_{K-1}, beta)`` with
    ``logit P(y <= k) = alpha_k + x beta``. Row ``i`` in category ``j`` has
    probability ``pi = F(u) - F(l)`` with ``u = alpha_j + eta_i``,
    ``l = alpha_{j-1} + eta_i`` and ``F`` the logistic function (1 above the
    top category, 0 below the first, where ``f = F(1-F)`` vanishes). With
    ``a_u = f(u)/pi`` and ``a_l = f(l)/pi`` the log-likelihood of the row has
    ``d/du = a_u``, ``d/dl = -a_l``, ``d2/du2 = a_u (1 - 2F(u) - a_u)``,
    ``d2/dl2 = -a_l (1 - 2F(l) + a_l)`` and ``d2/du dl = a_u a_l``; both
    derivatives are chained through ``du/dtheta = (e_j, x_i)`` and
    ``dl/dtheta = (e_{j-1}, x_i)``. ``pi`` is floored at 1e-300, where the
    Hessian may overflow.
    """
    n = x.shape[0]
    eta = x @ theta[K - 1:]
    a = theta[:K - 1] + eta[:, None]
    e = np.exp(-np.abs(a))
    # cumulative probabilities, padded with 0 and 1
    gam = np.empty((n, K + 1))
    gam[:, 0] = 0.0
    gam[:, K] = 1.0
    gam[:, 1:K] = np.where(a >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    rows = np.arange(n)
    gam_u, gam_l = gam[rows, y_idx + 1], gam[rows, y_idx]
    pi = gam_u - gam_l
    pi_safe = np.clip(pi, 1e-300, None)
    nll = -np.sum(np.log(pi_safe))

    inv_pi = 1.0 / pi_safe
    a_u = inv_pi * (gam_u * (1.0 - gam_u))
    a_l = inv_pi * (gam_l * (1.0 - gam_l))
    category = (y_idx[:, None] == np.arange(K)).astype(float)
    j_u = np.hstack([category[:, :K - 1], x])
    j_l = np.hstack([category[:, 1:], x])
    grad = j_l.T @ a_l - j_u.T @ a_u
    h_uu = a_u * (1.0 - 2.0 * gam_u - a_u)
    h_ll = -a_l * (1.0 - 2.0 * gam_l + a_l)
    h_ul = a_u * a_l
    hess = -(j_u.T @ (h_uu[:, None] * j_u + h_ul[:, None] * j_l)
             + j_l.T @ (h_ll[:, None] * j_l + h_ul[:, None] * j_u))
    return nll, grad, 0.5 * (hess + hess.T)


def ref_per_fold_newton(y, x, max_iter: int = 200, grad_tol: float = 1e-9,
                         return_cov: bool = False):
    """Proportional-odds maximum likelihood by damped Newton iterations.

    ``y`` takes values in ``{1, .., K}`` with every category present; ``x``
    may have zero columns, in which case the intercepts are the logits of the
    empirical cumulative proportions. Steps are halved until the likelihood
    improves and the intercepts stay strictly increasing. Divergence (as under
    complete separation) is reported with the iteration trace.
    """
    y = np.asarray(y, dtype=int)
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = len(y)
    if x.shape[0] != n:
        raise InvalidArgumentError("response/design length mismatch")
    cats = np.unique(y)
    K = int(cats.max())
    if cats.min() < 1 or len(cats) != K:
        raise InvalidArgumentError(
            f"ordinal response must cover 1..K, got categories {cats}")
    if K < 2:
        raise InvalidArgumentError("need at least two response categories")
    y_idx = y - 1
    p = x.shape[1]

    cum = np.array([(y <= k).mean() for k in range(1, K)])
    theta = np.concatenate([np.log(cum / (1.0 - cum)), np.zeros(p)])
    nll, grad, hess = ref_nll_grad_hess(theta, y_idx, x, K)
    trace = [float(nll)]

    for _ in range(max_iter):
        if np.linalg.norm(grad) < grad_tol * max(n, 1):
            break
        direction = grad
        if np.all(np.isfinite(hess)):  # an overflowed Hessian falls back too
            try:
                direction = np.linalg.solve(hess + 1e-10 * np.eye(len(theta)), grad)
            except np.linalg.LinAlgError:
                pass
        step = 1.0
        for _ in range(60):
            cand = theta - step * direction
            alpha = cand[:K - 1]
            if np.all(np.diff(alpha) > 0) or K == 2:
                cand_nll, cand_grad, cand_hess = ref_nll_grad_hess(
                    cand, y_idx, x, K)
                if cand_nll < nll:
                    theta, nll, grad, hess = cand, cand_nll, cand_grad, cand_hess
                    break
            step /= 2.0
        else:
            raise NonConvergenceError(
                "cumulative-logit step halving failed to improve the "
                "likelihood (separation or a flat direction)", trace=trace)
        trace.append(float(nll))
        if np.linalg.norm(theta) > 1e8:
            raise NonConvergenceError(
                "cumulative-logit estimate diverged (separation)", trace=trace)
    else:
        if np.linalg.norm(grad) >= 1e-6 * max(n, 1):
            raise NonConvergenceError(
                f"cumulative-logit did not converge in {max_iter} iterations "
                f"(gradient norm {np.linalg.norm(grad):.3e})", trace=trace)
    if nll / max(n, 1) < 1e-6:
        # a vanishing mean deviance means every observation is fitted almost
        # exactly: the likelihood has no finite maximiser (separation)
        raise NonConvergenceError(
            "fitted probabilities saturated; the data are completely "
            "separated and the estimate is unbounded", trace=trace)

    alpha, beta = theta[:K - 1], theta[K - 1:]
    if not return_cov:
        return alpha, beta
    cov = np.linalg.inv(hess)
    return alpha, beta, cov


# --- the problems ------------------------------------------------------------

def problems():
    """``(name, y, x)``: designs of several widths, with 2 and 3 categories,
    and one problem for each way a fit can end; 40 rows, and a few of 25 and
    30."""
    rng = np.random.default_rng(2024)
    out = [(f"K={K} p={p}", *ordinal_sample(rng, 40, p, K))
           for K, p in [(3, 0), (3, 1), (3, 2), (3, 4), (2, 0), (2, 1), (2, 3)]]
    out.append(("25 rows", *ordinal_sample(rng, 25, 2, 3)))
    y, x = ordinal_sample(rng, 40, 2, 3)
    y[np.argsort(x[:, 0])] = np.sort(y)   # categories in the order of x_1
    out.append(("separated", y, x))
    y, x = ordinal_sample(rng, 40, 2, 3)
    out.append(("step halving fails", y, 1e150 * x))
    # a column whose two nonzero entries cancel in the first gradient but
    # whose squares overflow the first Hessian
    y, x = ordinal_sample(np.random.default_rng(5), 30, 1, 3)
    x = np.hstack([x, np.zeros((30, 1))])
    x[np.flatnonzero(y == 2)[:2], 1] = 1e160, -1e160
    out.append(("non-finite Hessian", y, x))
    return out


def ref_outcome(y, x, max_iter):
    try:
        return ref_per_fold_newton(y, x, max_iter=max_iter, return_cov=True)
    except (NonConvergenceError, np.linalg.LinAlgError) as exc:
        return exc


def stacked_outcome(fit):
    """A fit of the stack in the reference's terms: the covariance is the
    inverse Hessian."""
    if isinstance(fit, NonConvergenceError):
        return fit
    alpha, beta, hess = fit
    try:
        return alpha, beta, np.linalg.inv(hess)
    except np.linalg.LinAlgError as exc:
        return exc


def assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        assert ([float(v).hex() for v in getattr(got, "trace", [])]
                == [float(v).hex() for v in getattr(want, "trace", [])])
    else:
        assert not isinstance(got, Exception) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_bits(g, w)


# --- pins -------------------------------------------------------------------

@pytest.mark.parametrize("max_iter", [200, 3])
def test_stack_matches_per_fold_fits(max_iter):
    cases = problems()
    with np.errstate(all="ignore"):
        want = {name: ref_outcome(y, x, max_iter) for name, y, x in cases}
        fits = baselines._newton([y for _, y, _ in cases], [x for _, _, x in cases],
                                 max_iter)
        got = {name: stacked_outcome(fit) for (name, _, _), fit in zip(cases, fits)}
    for name, _, _ in cases:
        assert_same_outcome(got[name], want[name])
    if max_iter == 200:   # each problem takes the path it stands for
        assert not any(isinstance(want[name], Exception) for name in (
            "K=3 p=0", "K=3 p=1", "K=3 p=2", "K=2 p=0", "K=2 p=1", "K=2 p=3", "25 rows"))
        assert "saturated" in str(want["separated"])
        assert "step halving" in str(want["step halving fails"])
        _, y, x = cases[-1]
        theta = np.concatenate([np.log([np.mean(y <= 1) / np.mean(y > 1),
                                        np.mean(y <= 2) / np.mean(y > 2)]), [0.0, 0.0]])
        with np.errstate(all="ignore"):
            assert not np.isfinite(ref_nll_grad_hess(theta, y - 1, x, 3)[2]).all()
        # the gradient step was taken: a solve with the Hessian would have failed
        assert len(want["non-finite Hessian"].trace) > 1
    else:
        assert "did not converge in 3 iterations" in str(want["K=3 p=2"])


@pytest.mark.parametrize("max_iter", [200, 3])
def test_stack_of_one_is_the_per_fold_fit(max_iter):
    for name, y, x in problems():
        with np.errstate(all="ignore"):
            want = ref_outcome(y, x, max_iter)
            try:
                got = fit_cumulative_logit(y, x, max_iter=max_iter, return_cov=True)
            except (NonConvergenceError, np.linalg.LinAlgError) as exc:
                got = exc
        assert_same_outcome(got, want)


def test_stack_rejects_what_the_per_fold_fit_rejects():
    rng = np.random.default_rng(3)
    y, x = ordinal_sample(rng, 20, 1, 3)
    for bad_y, bad_x in ((y[:-1], x), (np.where(y == 2, 3, y), x), (np.ones(20, int), x)):
        with pytest.raises(InvalidArgumentError) as want:
            ref_per_fold_newton(bad_y, bad_x)
        with pytest.raises(InvalidArgumentError) as got:
            baselines._newton([y, bad_y], [x, bad_x])
        assert str(got.value) == str(want.value)


# a fold's class probabilities may saturate at a held-out row
@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
@pytest.mark.parametrize("threshold", [0.98, 0.95])
def test_baseline_report_matches_per_fold_fits(rng, monkeypatch, threshold):
    bundle = cloud_bundle(rng, k=7)
    widths = []

    def per_fold(ys, xs, *args):
        widths.append({x.shape[1] for x in xs})
        out = []
        for y, x in zip(ys, xs):
            try:
                alpha, beta = ref_per_fold_newton(y, x, *args)
                out.append((alpha, beta, None))
            except NonConvergenceError as exc:
                out.append(exc)
        return out

    got = baseline_loocv(bundle, var_threshold=threshold)
    monkeypatch.setenv("SHAPEGPLM_THREADS", "1")   # the widths are recorded here
    monkeypatch.setattr(baselines, "_newton", per_fold)
    want = baseline_loocv(bundle, var_threshold=threshold)
    assert got.skipped_folds == want.skipped_folds
    assert got.fit_status == want.fit_status
    assert [(p.row_id, p.predicted) for p in got.predictions] == \
        [(p.row_id, p.predicted) for p in want.predictions]
    for p, q in zip(got.predictions, want.predictions):
        assert_same_bits(np.asarray(p.probs), np.asarray(q.probs))
    assert any(len(w) > 1 for w in widths)   # a stack of mixed design widths
