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

    def project(self, shape: PreShape) -> NDArray[np.floating]:
        """Scores of one shape in the retained basis."""
        v = tangent_coordinates(self.pole, shape)
        return (v - self.center) @ self.components[: self.retained].T


def tangent_pca(shapes: list[PreShape], var_threshold: float = 0.98
                ) -> tuple[TangentPcaModel, NDArray[np.floating]]:
    """PCA of the sample in the tangent space at its Procrustes mean.

    Returns the model and the ``n x retained`` score matrix of the input
    sample. Component signs are fixed by making each component's
    largest-magnitude loading positive.
    """
    n = len(shapes)
    if n < 2:
        raise InvalidArgumentError("tangent PCA needs at least 2 shapes")
    if not 0 <= var_threshold <= 1:
        raise InvalidArgumentError("var_threshold must lie in [0, 1]")
    pole = procrustes_mean(shapes)
    coords = np.array([tangent_coordinates(pole, s) for s in shapes])
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


def _cumlogit_nll_grad(theta, y_idx, x, K):
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


def _fd_hessian(theta, y_idx, x, K, step=1e-5):
    d = len(theta)
    H = np.zeros((d, d))
    for j in range(d):
        tp, tm = theta.copy(), theta.copy()
        tp[j] += step
        tm[j] -= step
        _, gp = _cumlogit_nll_grad(tp, y_idx, x, K)
        _, gm = _cumlogit_nll_grad(tm, y_idx, x, K)
        H[:, j] = (gp - gm) / (2 * step)
    return 0.5 * (H + H.T)


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
    nll, grad = _cumlogit_nll_grad(theta, y_idx, x, K)
    trace = [float(nll)]

    for _ in range(max_iter):
        if np.linalg.norm(grad) < grad_tol * max(n, 1):
            break
        H = _fd_hessian(theta, y_idx, x, K)
        try:
            direction = np.linalg.solve(H + 1e-10 * np.eye(len(theta)), grad)
        except np.linalg.LinAlgError:
            direction = grad
        step = 1.0
        for _ in range(60):
            cand = theta - step * direction
            alpha = cand[:K - 1]
            if np.all(np.diff(alpha) > 0) or K == 2:
                cand_nll, cand_grad = _cumlogit_nll_grad(cand, y_idx, x, K)
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
        # a vanishing mean deviance means every observation is fitted almost
        # exactly: the likelihood has no finite maximiser (separation)
        raise NonConvergenceError(
            "fitted probabilities saturated; the data are completely "
            "separated and the estimate is unbounded", trace=trace)

    alpha, beta = theta[:K - 1], theta[K - 1:]
    if not return_cov:
        return alpha, beta
    cov = np.linalg.inv(_fd_hessian(theta, y_idx, x, K))
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
    training chart. Fixed covariates precede the PCA scores in the design.
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

    def fit_fold(held, train):
        model, scores = tangent_pca([shapes[i] for i in train], var_threshold)
        try:
            alpha, beta = fit_cumulative_logit(y[train], np.hstack([x[train], scores]))
        except NonConvergenceError:
            return "nonconverged", None
        out = []
        for i in held:
            z = model.project(shapes[i])
            probs = predict_cumulative_logit(alpha, beta, np.concatenate([x[i], z]))
            out.append((i, classes[int(np.argmax(probs))], probs))
        return "converged", out

    return run_folds(bundle, "baseline", 0.0, y_raw, classes,
                     lambda folds: [fit_fold(*fold) for fold in folds])
