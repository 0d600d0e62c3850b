"""Tangent-space PCA features with a plain cumulative-logit model.

The comparison path: flatten the shapes into the tangent space at their full
Procrustes mean, reduce with PCA, and fit an ordinary proportional-odds model
on the scores next to any fixed covariates. The cumulative-logit fitter also
serves as the maximum-likelihood oracle that the degenerate-manifold ordinal
fit is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidArgumentError, NonConvergenceError
from .geometry import PreShape, procrustes_mean, tangent_coordinates
from .selection import CvReport, _by_training_size, run_folds

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


def _cumlogit_nll_grad(theta, y_idx, x, K):
    """Negative log-likelihood and gradient of the proportional-odds model."""
    nll, grad, _ = _cumlogit_nll_grad_hess(theta, y_idx, x, K)
    return nll, grad


def fit_cumulative_logit(y, x, max_iter: int = 200, grad_tol: float = 1e-9,
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
    nll, grad, hess = _cumlogit_nll_grad_hess(theta, y_idx, x, K)
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
                cand_nll, cand_grad, cand_hess = _cumlogit_nll_grad_hess(
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
    training chart; the poles of the folds of one training size come from
    one stacked :func:`procrustes_mean` call. Fixed covariates precede the
    PCA scores in the design.
    Folds whose fit does not converge (as under separation) are skipped and
    counted as ``"nonconverged"`` in the report's ``fit_status``.
    """
    y_raw = np.asarray(bundle.y, dtype=int)
    x = bundle.x
    shapes = bundle.shapes
    classes = sorted(np.unique(y_raw).tolist())
    # the fitter wants categories 1..K; map arbitrary ordered labels onto them
    label_of = {c: k + 1 for k, c in enumerate(classes)}
    y = np.array([label_of[v] for v in y_raw])

    def fit_fold(held, train, pole):
        model, scores = tangent_pca([shapes[i] for i in train], var_threshold, pole)
        try:
            alpha, beta = fit_cumulative_logit(y[train], np.hstack([x[train], scores]))
        except NonConvergenceError:
            return "nonconverged", None
        out = []
        for i, z in zip(held, model.project([shapes[i] for i in held])):
            probs = predict_cumulative_logit(alpha, beta, np.concatenate([x[i], z]))
            out.append((i, classes[int(np.argmax(probs))], probs))
        return "converged", out

    def fit_folds(folds):
        poles = {}
        for members in _by_training_size(folds).values():
            poles.update(zip(members, procrustes_mean(
                [[shapes[i] for i in folds[f][1]] for f in members])))
        return [fit_fold(*fold, poles[f]) for f, fold in enumerate(folds)]

    return run_folds(bundle, "baseline", 0.0, y_raw, classes, fit_folds)
