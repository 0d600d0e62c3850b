"""The proportional-odds Newton with a finite-difference Hessian, kept as the
reference for the closed-form Hessian in :mod:`shapegplm.baselines`.

The Hessian only shapes the Newton direction; the stop rule and the line
search read the same likelihood and gradient. So the estimates agree to the
solver's precision, not exactly, and the predicted categories agree exactly.
"""

import numpy as np
import pytest

import shapegplm.baselines as baselines
from shapegplm import baseline_loocv, fit_cumulative_logit, predict_cumulative_logit
from shapegplm.baselines import _cumlogit_nll_grad, _cumlogit_nll_grad_hess
from shapegplm.errors import InvalidArgumentError, NonConvergenceError

from test_baselines import cloud_bundle


def ref_cumlogit_nll_grad(theta, y_idx, x, K):
    """Negative log-likelihood and gradient of the proportional-odds model.

    Parameters are ``(alpha_1..alpha_{K-1}, beta)`` with
    ``logit P(y <= k) = alpha_k + x beta``.
    """
    n, p = x.shape
    alpha = theta[:K - 1]
    beta = theta[K - 1:]
    eta = x @ beta
    # cumulative probabilities, padded with 0 and 1
    gam = np.empty((n, K + 1))
    gam[:, 0] = 0.0
    gam[:, K] = 1.0
    for k in range(1, K):
        a = alpha[k - 1] + eta
        gam[:, k] = np.where(a >= 0, 1.0 / (1.0 + np.exp(-np.abs(a))),
                             np.exp(-np.abs(a)) / (1.0 + np.exp(-np.abs(a))))
    rows = np.arange(n)
    pi = gam[rows, y_idx + 1] - gam[rows, y_idx]
    pi_safe = np.clip(pi, 1e-300, None)
    nll = -np.sum(np.log(pi_safe))

    grad = np.zeros_like(theta)
    dgam = gam[:, 1:K] * (1.0 - gam[:, 1:K])          # n x (K-1)
    inv_pi = 1.0 / pi_safe
    for k in range(1, K):
        upper = (y_idx + 1 == k)
        lower = (y_idx == k)
        s = np.zeros(n)
        s[upper] = inv_pi[upper]
        s[lower] -= inv_pi[lower]
        contrib = s * dgam[:, k - 1]
        grad[k - 1] -= contrib.sum()
        grad[K - 1:] -= x.T @ contrib
    return nll, grad


def ref_fd_hessian(theta, y_idx, x, K, step=1e-5):
    d = len(theta)
    H = np.zeros((d, d))
    for j in range(d):
        tp, tm = theta.copy(), theta.copy()
        tp[j] += step
        tm[j] -= step
        _, gp = ref_cumlogit_nll_grad(tp, y_idx, x, K)
        _, gm = ref_cumlogit_nll_grad(tm, y_idx, x, K)
        H[:, j] = (gp - gm) / (2 * step)
    return 0.5 * (H + H.T)


def ref_fit_cumulative_logit(y, x, max_iter: int = 200, grad_tol: float = 1e-9,
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
    nll, grad = ref_cumlogit_nll_grad(theta, y_idx, x, K)
    trace = [float(nll)]

    for _ in range(max_iter):
        if np.linalg.norm(grad) < grad_tol * max(n, 1):
            break
        H = ref_fd_hessian(theta, y_idx, x, K)
        try:
            direction = np.linalg.solve(H + 1e-10 * np.eye(len(theta)), grad)
        except np.linalg.LinAlgError:
            direction = grad
        step = 1.0
        for _ in range(60):
            cand = theta - step * direction
            alpha = cand[:K - 1]
            if np.all(np.diff(alpha) > 0) or K == 2:
                cand_nll, cand_grad = ref_cumlogit_nll_grad(cand, y_idx, x, K)
                if cand_nll < nll:
                    theta, nll, grad = cand, cand_nll, cand_grad
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
        raise NonConvergenceError(
            "fitted probabilities saturated; the data are completely "
            "separated and the estimate is unbounded", trace=trace)

    alpha, beta = theta[:K - 1], theta[K - 1:]
    if not return_cov:
        return alpha, beta
    cov = np.linalg.inv(ref_fd_hessian(theta, y_idx, x, K))
    return alpha, beta, cov


def ordinal_sample(rng, n, p, K):
    """``n`` proportional-odds draws on ``p`` Gaussian covariates, with every
    one of the ``K`` categories present."""
    x = rng.normal(size=(n, p))
    alpha = np.sort(rng.normal(0.0, 1.5, K - 1)) + np.linspace(-1.0, 1.0, K - 1)
    eta = x @ rng.normal(0.0, 0.8, p)
    cum = 1.0 / (1.0 + np.exp(-(alpha[None, :] + eta[:, None])))
    y = 1 + (rng.uniform(size=n)[:, None] > cum).sum(axis=1)
    y[:K] = np.arange(1, K + 1)
    return y, x


def assert_close_fit(got, want):
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-8)


def test_fold_fits_match_reference_on_cloud_bundle(rng, monkeypatch):
    bundle = cloud_bundle(rng)
    fits = {}

    def recording(fitter, key):
        def fit(y, x, **kwargs):
            try:
                out = fitter(y, x, **kwargs)
            except NonConvergenceError:
                out = None
            fits.setdefault(key, []).append(out)
            if out is None:
                raise NonConvergenceError("recorded")
            return out
        return fit

    reports = {}
    for key, fitter in (("new", fit_cumulative_logit),
                        ("ref", ref_fit_cumulative_logit)):
        monkeypatch.setattr(baselines, "fit_cumulative_logit", recording(fitter, key))
        reports[key] = baseline_loocv(bundle, var_threshold=0.98)
    assert len(fits["new"]) == len(fits["ref"]) == 18
    assert any(f is not None for f in fits["ref"])
    for got, want in zip(fits["new"], fits["ref"]):
        assert (got is None) == (want is None)
        if want is not None:
            assert_close_fit(got, want)
    new, ref = reports["new"], reports["ref"]
    assert new.skipped_folds == ref.skipped_folds
    assert [(p.row_id, p.predicted) for p in new.predictions] == \
        [(p.row_id, p.predicted) for p in ref.predictions]
    for p, q in zip(new.predictions, ref.predictions):
        np.testing.assert_allclose(p.probs, q.probs, rtol=0, atol=1e-8)


@pytest.mark.parametrize("p", [2, 3])
def test_matches_reference_on_three_classes(p):
    rng = np.random.default_rng(1000 + p)
    y, x = ordinal_sample(rng, 150, p, 3)
    got = fit_cumulative_logit(y, x, return_cov=True)
    want = ref_fit_cumulative_logit(y, x, return_cov=True)
    assert_close_fit(got[:2], want[:2])
    # the covariance is the inverse Hessian: closed form against differences
    np.testing.assert_allclose(got[2], want[2], rtol=1e-5)
    for xi in x:
        assert np.argmax(predict_cumulative_logit(*got[:2], xi)) == \
            np.argmax(predict_cumulative_logit(*want[:2], xi))


@pytest.mark.parametrize("K", [2, 3, 4])
@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_hessian_matches_differences_of_gradient(K, p):
    rng = np.random.default_rng(10 * K + p)
    y, x = ordinal_sample(rng, 60, p, K)
    theta = np.concatenate([np.sort(rng.normal(0.0, 1.0, K - 1)),
                            rng.normal(0.0, 0.5, p)])
    nll, grad, hess = _cumlogit_nll_grad_hess(theta, y - 1, x, K)
    ref_nll, ref_grad = ref_cumlogit_nll_grad(theta, y - 1, x, K)
    assert nll == ref_nll
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-12)
    step = 1e-5
    diff = np.empty_like(hess)
    for j in range(len(theta)):
        e = np.zeros_like(theta)
        e[j] = step
        diff[:, j] = (_cumlogit_nll_grad(theta + e, y - 1, x, K)[1]
                      - _cumlogit_nll_grad(theta - e, y - 1, x, K)[1]) / (2 * step)
    assert np.array_equal(hess, hess.T)
    assert np.abs(hess - diff).max() <= 1e-6 * np.abs(hess).max()


def test_hessian_finite_near_saturation():
    # rows of every category whose fitted probabilities sit within rounding
    # of 0 or 1: linear predictors out to the exponent range of a double
    K = 3
    theta = np.array([-1.0, 1.0, 1.0])
    eta = np.array([-700.0, -300.0, -40.0, -36.0, 0.0, 36.0, 40.0, 300.0, 700.0])
    x = np.repeat(eta, K)[:, None]
    y_idx = np.tile(np.arange(K), len(eta))
    nll, grad, hess = _cumlogit_nll_grad_hess(theta, y_idx, x, K)
    assert np.isfinite(nll)
    assert np.all(np.isfinite(grad))
    assert np.all(np.isfinite(hess))
