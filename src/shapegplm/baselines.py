"""Tangent-space PCA features with a plain cumulative-logit model.

The comparison path: flatten the shapes into the tangent space at their full
Procrustes mean, reduce with PCA, and fit an ordinary proportional-odds model
on the scores next to any fixed covariates. The cumulative-logit fitter also
serves as the maximum-likelihood oracle that the degenerate-manifold ordinal
fit is checked against.

The proportional-odds fits run as stacks: :func:`_newton` advances the
problems of one design shape through one damped Newton loop, each with its
own step halving and stop rules, so every fit equals the one it gets alone;
:func:`fit_cumulative_logit` runs a stack of one and the cross-validation of
:func:`baseline_loocv` a stack of folds.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import geometry
from .errors import InvalidArgumentError, NonConvergenceError, OutOfChartError
from .geometry import PreShape, _row_norms, procrustes_mean, tangent_coordinates
from .selection import CvReport, run_folds

__all__ = ["TangentPcaModel", "tangent_pca", "fit_cumulative_logit",
           "predict_cumulative_logit", "baseline_loocv"]


@dataclass(frozen=True)
class TangentPcaModel:
    """PCA basis of tangent coordinates around the Procrustes mean.

    ``components`` rows are orthonormal directions in the flattened tangent
    space; ``retained`` is the smallest count whose cumulative explained
    variance reaches the threshold.
    """

    pole: PreShape
    center: NDArray[np.floating]
    components: NDArray[np.floating]
    explained_ratio: NDArray[np.floating]
    retained: int
    var_threshold: float

    def project(self, shapes: PreShape | list[PreShape]) -> NDArray[np.floating]:
        """Scores in the retained basis of one shape ``(retained,)`` or of a
        list of them ``(P, retained)``, from one tangent call. Each row is
        projected as a ``1 x d`` matrix, as ``(P, d) @ (d, r)`` sums in
        another order."""
        v = tangent_coordinates(self.pole, shapes) - self.center
        return (v[..., None, :] @ self.components[: self.retained].T)[..., 0, :]


def tangent_pca(shapes: list[PreShape], var_threshold: float = 0.98,
                pole: PreShape | None = None
                ) -> tuple[TangentPcaModel, NDArray[np.floating]]:
    """PCA of the sample in the tangent space at its Procrustes mean.

    ``pole`` is that mean when the caller has it already (see
    :func:`baseline_loocv`). Returns the model and the ``n x retained``
    score matrix of the input sample. Component signs are fixed by making
    each component's largest-magnitude loading positive.
    """
    n = len(shapes)
    if n < 2:
        raise InvalidArgumentError("tangent PCA needs at least 2 shapes")
    if not 0 <= var_threshold <= 1:
        raise InvalidArgumentError("var_threshold must lie in [0, 1]")
    if pole is None:
        pole = procrustes_mean(shapes)
    coords = tangent_coordinates(pole, shapes)
    center = coords.mean(axis=0)
    centered = coords - center
    # SVD of the centered data; eigenvalues of the (n-1)-divisor covariance.
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    var = svals ** 2 / (n - 1)
    total = var.sum()
    if total <= 0:
        raise InvalidArgumentError("all shapes coincide; tangent scatter is zero")
    ratio = var / total
    if var_threshold == 0:
        retained = 0
    else:
        retained = int(np.searchsorted(np.cumsum(ratio), var_threshold - 1e-12) + 1)
        retained = min(retained, len(ratio))
    flip = np.sign(vt[np.arange(vt.shape[0]), np.argmax(np.abs(vt), axis=1)])
    flip[flip == 0] = 1.0
    components = vt * flip[:, None]
    model = TangentPcaModel(pole=pole, center=center, components=components,
                            explained_ratio=ratio, retained=retained,
                            var_threshold=var_threshold)
    scores = centered @ components[:retained].T
    return model, scores


def _cumlogit_nll_grad_hess(theta, y_idx, x, K):
    """Negative log-likelihood, gradient and Hessian of the proportional-odds
    model, for one problem or for a stack of them, ``theta`` ``(S, d)``,
    ``y_idx`` ``(S, n)`` and ``x`` ``(S, n, p)``; each problem's values are
    the ones it gets alone.

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
    eta = (x @ theta[..., K - 1:, None])[..., 0]
    a = theta[..., None, :K - 1] + eta[..., None]
    e = np.exp(-np.abs(a))
    # cumulative probabilities, padded with 0 and 1
    gam = np.empty(eta.shape + (K + 1,))
    gam[..., 0] = 0.0
    gam[..., K] = 1.0
    gam[..., 1:K] = np.where(a >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    lower = np.arange(0, gam.size, K + 1).reshape(y_idx.shape) + y_idx
    gam_u, gam_l = gam.take(lower + 1), gam.take(lower)
    pi = gam_u - gam_l
    pi_safe = np.clip(pi, 1e-300, None)
    nll = -np.sum(np.log(pi_safe), axis=-1)

    inv_pi = 1.0 / pi_safe
    a_u = inv_pi * (gam_u * (1.0 - gam_u))
    a_l = inv_pi * (gam_l * (1.0 - gam_l))
    category = (y_idx[..., None] == np.arange(K)).astype(float)
    j_u = np.concatenate([category[..., :K - 1], x], axis=-1)
    j_l = np.concatenate([category[..., 1:], x], axis=-1)
    j_ut, j_lt = j_u.swapaxes(-1, -2), j_l.swapaxes(-1, -2)
    grad = (j_lt @ a_l[..., None] - j_ut @ a_u[..., None])[..., 0]
    h_uu = (a_u * (1.0 - 2.0 * gam_u - a_u))[..., None]
    h_ll = (-a_l * (1.0 - 2.0 * gam_l + a_l))[..., None]
    h_ul = (a_u * a_l)[..., None]
    hess = -(j_ut @ (h_uu * j_u + h_ul * j_l) + j_lt @ (h_ll * j_l + h_ul * j_u))
    return nll, grad, 0.5 * (hess + hess.swapaxes(-1, -2))


def _cumlogit_nll_grad(theta, y_idx, x, K):
    """Negative log-likelihood and gradient of the proportional-odds model."""
    nll, grad, _ = _cumlogit_nll_grad_hess(theta, y_idx, x, K)
    return nll, grad


def _newton(ys, xs, max_iter: int = 200, grad_tol: float = 1e-9) -> list:
    """Proportional-odds maximum likelihood fits of a stack of problems.

    Problem ``s`` has the response ``ys[s]`` and the design ``xs[s]``, checked
    as :func:`fit_cumulative_logit` documents. The problems of one design
    shape and category count advance through one damped Newton loop,
    :func:`_newton_loop`. Returns, per problem, ``(alpha, beta, hess)`` or the
    :class:`NonConvergenceError` its fit ended with.
    """
    groups: dict[tuple, list] = {}
    for s, (y, x) in enumerate(zip(ys, xs)):
        y = np.asarray(y, dtype=int)
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.shape[0] != len(y):
            raise InvalidArgumentError("response/design length mismatch")
        cats = np.unique(y)
        K = int(cats.max())
        if cats.min() < 1 or len(cats) != K:
            raise InvalidArgumentError(
                f"ordinal response must cover 1..K, got categories {cats}")
        if K < 2:
            raise InvalidArgumentError("need at least two response categories")
        groups.setdefault((x.shape, K), []).append((s, y - 1, x))
    fits: list = [None] * len(ys)
    for (_, K), members in groups.items():
        where, y_idx, x = zip(*members)
        for s, fit in zip(where, _newton_loop(np.stack(y_idx), np.stack(x), K,
                                              max_iter, grad_tol)):
            fits[s] = fit
    return fits


def _newton_loop(y_idx, x, K, max_iter, grad_tol) -> list:
    """Damped Newton fits of ``S`` problems with 0-based responses ``y_idx``
    ``(S, n)`` and designs ``x`` ``(S, n, p)``, advanced together.

    Each step takes one stacked likelihood, gradient and Hessian and one
    batched solve for the directions; a problem whose Hessian is not finite,
    or singular, steps along its gradient. Steps are halved until the
    likelihood improves and the intercepts stay strictly increasing. Each
    problem keeps its own step halving and stop rules and leaves the stack
    when it stops, so its fit is, bit for bit, the one it gets alone.
    """
    S, n, p = x.shape
    scale = max(n, 1)
    cum = (y_idx[:, None, :] < np.arange(1, K)[:, None]).mean(axis=-1)
    theta = np.concatenate([np.log(cum / (1.0 - cum)), np.zeros((S, p))], axis=1)
    nll, grad, hess = _cumlogit_nll_grad_hess(theta, y_idx, x, K)
    traces = [[v] for v in nll.tolist()]
    ridge = 1e-10 * np.eye(K - 1 + p)
    live = list(range(S))   # each stacked problem's place in the result
    fits: list = [None] * S

    def stop(ends):
        """Write out each problem given an end in ``ends`` (one entry per
        stacked problem: None to go on, "" for its estimate, else the message
        of its error) and drop it from the stack."""
        nonlocal live, theta, nll, grad, hess, y_idx, x
        for j, end in enumerate(ends):
            if end == "" and nll[j] / scale < 1e-6:
                # a vanishing mean deviance means every observation is fitted
                # almost exactly: the likelihood has no finite maximiser
                end = ("fitted probabilities saturated; the data are completely "
                       "separated and the estimate is unbounded")
            if end is not None:
                fits[live[j]] = (NonConvergenceError(end, trace=traces[live[j]]) if end
                                 else (theta[j, :K - 1], theta[j, K - 1:], hess[j]))
        keep = np.array([end is None for end in ends])
        live = [s for s, k in zip(live, keep.tolist()) if k]
        theta, nll, grad, hess, y_idx, x = (
            a[keep] for a in (theta, nll, grad, hess, y_idx, x))

    for _ in range(max_iter):
        small = _row_norms(grad) < grad_tol * scale
        if small.any():
            stop(["" if end else None for end in small.tolist()])
            if not live:
                break
        direction = grad.copy()
        finite = np.isfinite(hess).all(axis=(1, 2))
        if finite.any():
            a, g = hess[finite] + ridge, grad[finite]
            try:
                direction[finite] = np.linalg.solve(a, g[..., None])[..., 0]
            except np.linalg.LinAlgError:   # a singular one keeps its gradient
                for j, a_j, g_j in zip(np.flatnonzero(finite).tolist(), a, g):
                    with contextlib.suppress(np.linalg.LinAlgError):
                        direction[j] = np.linalg.solve(a_j, g_j)
        step = 1.0
        searching = np.ones(len(live), dtype=bool)
        for _ in range(60):
            at = np.flatnonzero(searching)
            cand = theta[at] - step * direction[at]
            ordered = np.all(np.diff(cand[:, :K - 1], axis=1) > 0, axis=1)
            if ordered.any():
                at, cand = at[ordered], cand[ordered]
                cand_nll, cand_grad, cand_hess = _cumlogit_nll_grad_hess(
                    cand, y_idx[at], x[at], K)
                better = cand_nll < nll[at]
                at = at[better]
                theta[at], nll[at] = cand[better], cand_nll[better]
                grad[at], hess[at] = cand_grad[better], cand_hess[better]
                searching[at] = False
                if not searching.any():
                    break
            step /= 2.0
        for j in np.flatnonzero(~searching).tolist():
            traces[live[j]].append(float(nll[j]))
        diverged = ~searching & (_row_norms(theta) > 1e8)
        if (searching | diverged).any():
            stop(["cumulative-logit step halving failed to improve the likelihood "
                  "(separation or a flat direction)" if failed else
                  "cumulative-logit estimate diverged (separation)" if away else None
                  for failed, away in zip(searching.tolist(), diverged.tolist())])
            if not live:
                break
    else:
        stop([f"cumulative-logit did not converge in {max_iter} iterations "
              f"(gradient norm {norm:.3e})" if norm >= 1e-6 * scale else ""
              for norm in _row_norms(grad).tolist()])
    return fits


def fit_cumulative_logit(y, x, max_iter: int = 200, grad_tol: float = 1e-9,
                         return_cov: bool = False):
    """Proportional-odds maximum likelihood by damped Newton iterations.

    ``y`` takes values in ``{1, .., K}`` with every category present; ``x``
    may have zero columns, in which case the intercepts are the logits of the
    empirical cumulative proportions. Steps are halved until the likelihood
    improves and the intercepts stay strictly increasing. Divergence (as under
    complete separation) is reported with the iteration trace. The fit is
    :func:`_newton`'s on a stack of one.
    """
    fit, = _newton([y], [x], max_iter, grad_tol)
    if isinstance(fit, NonConvergenceError):
        raise fit
    alpha, beta, hess = fit
    if not return_cov:
        return alpha, beta
    cov = np.linalg.inv(hess)
    return alpha, beta, cov


def predict_cumulative_logit(alpha, beta, x_new) -> NDArray[np.floating]:
    """Category probabilities of the proportional-odds model at one point."""
    alpha = np.asarray(alpha, float)
    x_new = np.atleast_1d(np.asarray(x_new, float))
    K = len(alpha) + 1
    eta = float(x_new @ np.asarray(beta, float))
    gam = np.concatenate([[0.0], 1.0 / (1.0 + np.exp(-(alpha + eta))), [1.0]])
    return np.diff(gam)


def baseline_loocv(bundle, var_threshold: float = 0.98) -> CvReport:
    """Leave-one-subject-out accuracy of the tangent-PCA baseline.

    Per fold the pole, PCA basis, and retained count are recomputed on the
    training shapes alone; the held-out shapes are projected into that
    training chart; the poles of a stack of folds of one training size, at
    most :data:`~shapegplm.geometry.MEAN_PAIRS` training shapes in all, come
    from one stacked :func:`procrustes_mean` call, and the stack's
    proportional-odds fits of one design width run through one Newton loop
    (:func:`_newton`). Fixed covariates precede the PCA scores in the design.
    Folds whose fit does not converge (as under separation) are skipped and
    counted as ``"nonconverged"`` in the report's ``fit_status``. A shape
    outside a fold's chart raises :class:`OutOfChartError` naming its row.
    """
    y_raw = np.asarray(bundle.y, dtype=int)
    x = bundle.x
    shapes = bundle.shapes
    classes = sorted(np.unique(y_raw).tolist())
    # the fitter wants categories 1..K; map arbitrary ordered labels onto them
    label_of = {c: k + 1 for k, c in enumerate(classes)}
    y = np.array([label_of[v] for v in y_raw])

    def charted(rows, tangent):
        """``tangent`` of the shapes of ``rows``, naming the row of a shape
        outside the chart."""
        try:
            return tangent([shapes[i] for i in rows])
        except OutOfChartError as exc:
            i = int(rows[exc.index])
            raise OutOfChartError(f"row {bundle.ids[i]}: {exc}", i) from None

    def predict_held(held, model, fit):
        if isinstance(fit, NonConvergenceError):
            return "nonconverged", None
        alpha, beta, _ = fit
        out = []
        for i, z in zip(held, charted(held, model.project)):
            probs = predict_cumulative_logit(alpha, beta, np.concatenate([x[i], z]))
            out.append((i, classes[int(np.argmax(probs))], probs))
        return "converged", out

    def fit_folds(_, folds):
        poles = procrustes_mean([[shapes[i] for i in train] for _, train in folds])
        charts = [charted(train, lambda s: tangent_pca(s, var_threshold, pole))
                  for (_, train), pole in zip(folds, poles)]
        fits = _newton([y[train] for _, train in folds],
                       [np.hstack([x[train], scores])
                        for (_, train), (_, scores) in zip(folds, charts)])
        return [predict_held(held, model, fit)
                for (held, _), (model, _), fit in zip(folds, charts, fits)]

    return run_folds(bundle, "baseline", [0.0], y_raw, classes, fit_folds,
                     lambda n: geometry.MEAN_PAIRS // n)
