"""Partially linear model fits with a manifold covariate.

Three response families share one backbone: the Euclidean covariates enter a
linear term, the manifold covariate enters through nonparametric functions
estimated by kernel smoothing, and the two parts are untangled by regressing
smoother residuals on smoother residuals.

* Gaussian: one least-squares solve.
* Logistic and ordinal (three ordered categories, two cumulative logits):
  one iteratively reweighted least-squares loop, :func:`_irls`. Each sweep
  forms the linear predictor and fitted probabilities from the current state,
  takes the working response and its weights from the family's working step,
  smooths the working response unweighted to refresh the nonparametric part,
  and solves the family's weighted normal equations for the slope. Only the
  working step differs: weights ``p(1-p)`` for the logistic family, 2x2
  per-subject weight matrices for the ordinal one.

Perfectly separable data deserve a note: the logistic and ordinal likelihoods
then have no finite maximiser and the slope iterates grow without bound. The
fits detect the resulting plateau, where every observation is matched almost
exactly and the deviance has collapsed, stop there, and report
``status="separation"`` with the last well-defined iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DivergenceError,
    IllConditionedError,
    InvalidArgumentError,
)
from .smoothing import (
    KernelSpec,
    SmootherCache,
    apply_weights,
    normalised_weight_matrix,
    smooth_at,
)

__all__ = ["FitConfig", "GplmFit", "OrdinalWorkMatrices", "OrdinalPrediction",
           "fit_plm", "fit_logistic_plm", "predict_logistic",
           "ordinal_work_matrices", "fit_ordinal_plm", "predict_ordinal"]


@dataclass(frozen=True)
class FitConfig:
    """Solver knobs for the iterative fits.

    ``threshold`` is the relative slope change ``|b_new - b_old| / |b_new|``
    below which the loop stops. ``prob_floor`` clamps fitted probabilities
    away from 0 and 1 before they enter a division. ``separation_deviance``
    is the mean per-subject deviance below which the fit is declared to sit
    on a separation plateau (see module docstring); the value is calibrated
    so that the stop happens on the last informative iterate rather than
    after the working response has degenerated.
    """

    threshold: float = 2e-4
    max_iter: int = 1000
    ridge: float = 1e-8
    prob_floor: float = 1e-10
    separation_deviance: float = 2.7e-4
    irls_variant: str = "paper"
    divergence_norm: float = 1e8

    def __post_init__(self):
        if not self.threshold > 0:
            raise InvalidArgumentError("threshold must be positive")
        if self.max_iter < 1:
            raise InvalidArgumentError("max_iter must be at least 1")
        if self.ridge < 0:
            raise InvalidArgumentError("ridge must be nonnegative")
        if self.irls_variant not in ("paper", "standard"):
            raise InvalidArgumentError(
                f"irls_variant must be 'paper' or 'standard', got {self.irls_variant!r}")


@dataclass
class GplmFit:
    """Fitted state of a partially linear model.

    ``phi0`` and ``g`` have one column for the Gaussian and logistic families
    and two (the cumulative logits) for the ordinal family. ``z_final`` holds
    the working targets whose smooth produced ``phi0``; predictions at new
    points smooth these same targets. The identity ``g = phi0 - phi @ beta``
    (broadcast over columns) holds at exit.
    """

    model: str
    beta: NDArray[np.floating]
    phi0: NDArray[np.floating]
    phi: NDArray[np.floating]
    g: NDArray[np.floating]
    z_final: NDArray[np.floating]
    iterations: int
    converged: bool
    status: str
    bandwidth: float
    e_trace: list[float] = field(default_factory=list)

    def fitted_eta(self, x) -> NDArray[np.floating]:
        """In-sample linear predictors, one column per logit."""
        return (_as_design(x, len(self.g)) @ self.beta)[:, None] + self.g


def _as_design(x, n: int) -> NDArray[np.floating]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] != n:
        raise InvalidArgumentError(f"design must be n x p with n={n}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError("design contains non-finite values")
    return x


def _check_inputs(y, x, n: int, dtype=float):
    """Response of length ``n`` and an ``n x p`` design with ``n > p``."""
    y = np.asarray(y, dtype=dtype)
    if y.shape != (n,):
        raise InvalidArgumentError(f"response must have length {n}, got {y.shape}")
    x = _as_design(x, n)
    if n <= x.shape[1]:
        raise InvalidArgumentError("need more observations than covariates")
    return y, x


def _solve(A: NDArray, b: NDArray, ridge: float) -> NDArray[np.floating]:
    A = A + ridge * np.eye(A.shape[0])
    if A.shape == (1, 1):
        if A[0, 0] == 0.0:
            raise IllConditionedError(
                f"normal equations singular even after ridge {ridge:g}")
        sol = b / A[0, 0]
    else:
        try:
            sol = np.linalg.solve(A, b)
        except np.linalg.LinAlgError as exc:
            raise IllConditionedError(
                f"normal equations singular even after ridge {ridge:g}") from exc
    if not np.all(np.isfinite(sol)):
        raise IllConditionedError("normal-equation solve produced non-finite values")
    return sol


def _expit(eta: NDArray) -> NDArray[np.floating]:
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _softplus(u: NDArray) -> NDArray[np.floating]:
    return np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))


def fit_plm(y, x, shapes, spec: KernelSpec, backend,
            cache: SmootherCache | None = None,
            cfg: FitConfig | None = None) -> GplmFit:
    """Gaussian partially linear model.

    Smooth the response and each covariate over the manifold, then regress the
    response residuals on the covariate residuals; the nonparametric part is
    recovered as ``phi0 - phi @ beta``.
    """
    cfg = cfg or FitConfig()
    y, x = _check_inputs(y, x, len(shapes))
    if cache is None:
        cache = SmootherCache.from_points(shapes, backend)
    spec.check_against(backend)
    w_smooth = normalised_weight_matrix(cache, spec)
    phi0 = apply_weights(w_smooth, y)
    phi = apply_weights(w_smooth, x)
    xc = x - phi
    beta = _solve(xc.T @ xc, xc.T @ (y - phi0), cfg.ridge)
    g = phi0 - phi @ beta
    return GplmFit(model="gaussian", beta=beta, phi0=phi0[:, None], phi=phi,
                   g=g[:, None], z_final=y[:, None], iterations=1,
                   converged=True, status="converged",
                   bandwidth=spec.bandwidth, e_trace=[])


def _binary_deviance_mean(y: NDArray, eta: NDArray) -> float:
    """Mean of -[y log p + (1-y) log(1-p)], computed stably from eta."""
    sign = np.where(y > 0.5, 1.0, -1.0)
    return float(np.mean(_softplus(-sign * eta)))


def _irls(model: str, step, normal, phi0, x, shapes, spec: KernelSpec,
          backend, cfg: FitConfig, cache: SmootherCache | None) -> GplmFit:
    """The sweep shared by the logistic and ordinal fits.

    ``phi0`` is the ``n x L`` starting smooth, one column per logit.
    ``step(eta, prob)`` takes the linear predictor and the fitted
    probabilities ``expit(eta)`` and returns the mean deviance, the ``n x L``
    working response and its weights; ``normal(xc, weights, r)`` returns the
    weighted normal equations ``(A, b)`` of the slope from the smoother
    residuals ``xc`` of the design and ``r`` of the working response. Stops on
    a relative slope change below ``cfg.threshold``, on the separation plateau
    (a saturated probability or a mean deviance below
    ``cfg.separation_deviance``), or at ``cfg.max_iter``.
    """
    if cache is None:
        cache = SmootherCache.from_points(shapes, backend)
    spec.check_against(backend)
    w_smooth = normalised_weight_matrix(cache, spec)
    beta = np.zeros(x.shape[1])
    phi = apply_weights(w_smooth, x)
    xc = x - phi
    e_trace: list[float] = []
    status, iterations = "max_iter", 0

    for it in range(1, cfg.max_iter + 1):
        eta = (x @ beta)[:, None] + (phi0 - (phi @ beta)[:, None])
        prob = _expit(eta)
        saturated = bool(np.any(prob == 0.0) or np.any(prob == 1.0))
        deviance, z_new, weights = step(eta, prob)
        if it > 1 and (saturated or deviance < cfg.separation_deviance):
            status = "separation"
            break
        z = z_new  # a separated fit keeps the previous sweep's targets
        phi0 = apply_weights(w_smooth, z)
        beta_new = _solve(*normal(xc, weights, z - phi0), cfg.ridge)
        e = float(np.linalg.norm(beta_new - beta)
                  / max(np.linalg.norm(beta_new), 1e-300))
        e_trace.append(e)
        beta = beta_new
        iterations = it
        if np.linalg.norm(beta) > cfg.divergence_norm:
            raise DivergenceError(
                f"slope norm exceeded {cfg.divergence_norm:g} at iteration {it}")
        if e < cfg.threshold:
            status = "converged"
            break

    g = phi0 - (phi @ beta)[:, None]
    return GplmFit(model=model, beta=beta, phi0=phi0, phi=phi, g=g,
                   z_final=z, iterations=iterations,
                   converged=(status == "converged"), status=status,
                   bandwidth=spec.bandwidth, e_trace=e_trace)


def fit_logistic_plm(y, x, shapes, spec: KernelSpec, backend,
                     cfg: FitConfig | None = None,
                     cache: SmootherCache | None = None) -> GplmFit:
    """Logistic partially linear model by IRLS.

    Per sweep: evaluate fitted probabilities from the current state, build the
    working response ``z = eta + (y - p)/(p(1-p))`` and weights ``p(1-p)``
    (probabilities clamped to ``[prob_floor, 1 - prob_floor]``), smooth ``z``
    unweighted to refresh the nonparametric part, and solve the weighted
    normal equations for the slope. Stops on a relative slope change below
    ``cfg.threshold``, on the separation plateau, or at ``cfg.max_iter``.
    """
    cfg = cfg or FitConfig()
    y, x = _check_inputs(y, x, len(shapes))
    uniq = np.unique(y)
    if not np.all(np.isin(uniq, (0.0, 1.0))):
        raise InvalidArgumentError(f"logistic response must be 0/1, got values {uniq}")
    if len(uniq) < 2:
        raise InvalidArgumentError("both response classes must be present")
    eps = cfg.prob_floor
    y_col = y[:, None]

    def step(eta, pr):
        pc = np.clip(pr, eps, 1.0 - eps)
        w = pc * (1.0 - pc)
        return _binary_deviance_mean(y, eta[:, 0]), eta + (y_col - pc) / w, w[:, 0]

    def normal(xc, w, r):
        return xc.T @ (w[:, None] * xc), xc.T @ (w * r[:, 0])

    return _irls("logistic", step, normal, np.full((len(y), 1), -0.5), x,
                 shapes, spec, backend, cfg, cache)


def _query_terms(fit: GplmFit, model: str, x_new, s_new, train_shapes, train_x,
                 spec: KernelSpec | None, backend, query_rows):
    """The three terms of the linear predictor at a query point:
    ``x_new @ beta``, the smooth of the stored working targets (one entry per
    logit) and the smooth of the training covariates times ``beta``. The
    families add them up in different orders, which shows in the last bits."""
    if fit.model != model:
        raise InvalidArgumentError(f"{model} prediction needs a {model} fit, "
                                   f"got {fit.model!r}")
    spec = spec or KernelSpec(bandwidth=fit.bandwidth)
    x_new = np.atleast_1d(np.asarray(x_new, dtype=float))
    train_x = _as_design(train_x, len(train_shapes))
    if query_rows is None:
        dist = backend.distances_to(s_new, train_shapes)
        query_rows = dist, backend.log_density_at(dist)
    phi0_new = smooth_at(*query_rows, fit.z_final, spec, query=s_new)
    phi_new = smooth_at(*query_rows, train_x, spec, query=s_new)
    return x_new @ fit.beta, phi0_new, phi_new @ fit.beta


def predict_logistic(fit: GplmFit, x_new, s_new, train_shapes, train_x,
                     spec: KernelSpec | None = None, backend=None,
                     query_rows=None) -> float:
    """Class-1 probability at a new point.

    The nonparametric part at ``s_new`` is the kernel smooth of the stored
    working targets; the covariate smooth is re-evaluated the same way, so a
    query at a training point with its own covariates reproduces the
    in-sample fitted probability. ``query_rows`` may carry precomputed
    ``(distances, log_densities)`` from ``s_new`` to the training sample,
    e.g. rows sliced from a dataset-wide cache.
    """
    xb, phi0_new, phib = _query_terms(fit, "logistic", x_new, s_new, train_shapes,
                                      train_x, spec, backend, query_rows)
    eta = float(xb + phi0_new[0] - phib)
    return float(_expit(np.array([eta]))[0])


@dataclass(frozen=True)
class OrdinalWorkMatrices:
    """Per-subject 2x2 weight matrix and diagonal residual scaling for the
    three-category ordinal model, evaluated at category probabilities
    ``(pi1, pi2, pi3)``."""

    W: NDArray[np.floating]
    Dinv: NDArray[np.floating]
    clamped: bool


def ordinal_work_matrices(pi1: float, pi2: float, pi3: float,
                          floor: float = 1e-10) -> OrdinalWorkMatrices:
    """Weight and residual-scaling matrices of the three-category model.

    ``W`` is the inverse covariance of the cumulative indicator vector,

        W = (1/pi2) [[(1 - pi3)/pi1, -1], [-1, (1 - pi1)/pi3]]

    and the residual scaling is ``diag(pi1 (1 - pi1), pi3 (1 - pi3))``.
    Probabilities below ``floor`` are clamped up (and the result flagged)
    before any division.
    """
    probs = np.array([pi1, pi2, pi3], dtype=float)
    if not np.all(np.isfinite(probs)):
        raise InvalidArgumentError("category probabilities must be finite")
    if abs(probs.sum() - 1.0) > 1e-6:
        raise InvalidArgumentError(
            f"category probabilities must sum to 1, got {probs.sum()!r}")
    clamped = bool(np.any(probs < floor))
    p1, p2, p3 = np.clip(probs, floor, 1.0 - floor)
    W = (1.0 / p2) * np.array([[(1.0 - p3) / p1, -1.0],
                               [-1.0, (1.0 - p1) / p3]])
    Dinv = np.diag([p1 * (1.0 - p1), p3 * (1.0 - p3)])
    return OrdinalWorkMatrices(W=W, Dinv=Dinv, clamped=clamped)


def _ordinal_category_probs(gam: NDArray) -> NDArray[np.floating]:
    """n x 3 category probabilities from n x 2 cumulative probabilities."""
    return np.stack([gam[:, 0], gam[:, 1] - gam[:, 0], 1.0 - gam[:, 1]], axis=1)


def _ordinal_deviance_mean(y_idx: NDArray, pimat: NDArray) -> float:
    pobs = pimat[np.arange(len(y_idx)), y_idx]
    return float(-np.mean(np.log(np.clip(pobs, 1e-300, None))))


def fit_ordinal_plm(y, x, shapes, spec: KernelSpec, backend,
                    cfg: FitConfig | None = None,
                    cache: SmootherCache | None = None) -> GplmFit:
    """Three-category cumulative-logit partially linear model.

    The response is expanded into cumulative indicators ``Y_k = 1{y <= k}``,
    ``k = 1, 2``, sharing one slope across both logits. Each sweep builds a
    two-column working response and per-subject 2x2 weight matrices, smooths
    the working columns unweighted, and solves the stacked weighted normal
    equations for the slope.

    ``cfg.irls_variant`` selects the residual scaling: ``"paper"`` multiplies
    the indicator residuals by ``diag(gam_k (1 - gam_k))`` and weights by the
    inverse indicator covariance alone; ``"standard"`` is the textbook
    multivariate-GLM working response (residuals divided by the link
    derivative, weights sandwiched by it). The two reach different finite
    estimators; only ``"standard"`` matches the plain cumulative-logit
    maximum likelihood fit when the manifold covariate is uninformative.

    Categories other than ``{1, 2, 3}`` are rejected: the closed 2x2 forms
    are specific to three categories and general ``K`` is not implemented.
    """
    cfg = cfg or FitConfig()
    y, x = _check_inputs(y, x, len(shapes), dtype=None)
    if not np.all(np.isin(y, (1, 2, 3))):
        raise InvalidArgumentError(
            "ordinal response must take values in {1, 2, 3}; general K is unsupported")
    if len(np.unique(y)) < 3:
        raise InvalidArgumentError("all three categories must be present")
    eps = cfg.prob_floor
    y_idx = np.asarray(y, dtype=int) - 1
    Y = np.stack([(y <= 1).astype(float), (y <= 2).astype(float)], axis=1)
    cum = np.array([(y <= 1).mean(), (y <= 2).mean()])

    def step(eta, gam):
        pimat = _ordinal_category_probs(gam)
        picl = np.clip(pimat, eps, 1.0 - eps)
        gamc = np.clip(gam, eps, 1.0 - eps)
        dlink = gamc * (1.0 - gamc)                  # n x 2, gam_k (1 - gam_k)
        resid = Y - gamc
        # inverse indicator covariance, elementwise over subjects
        W11 = (1.0 - picl[:, 2]) / (picl[:, 0] * picl[:, 1])
        W12 = -1.0 / picl[:, 1]
        W22 = (1.0 - picl[:, 0]) / (picl[:, 2] * picl[:, 1])
        if cfg.irls_variant == "paper":
            z = eta + dlink * resid
        else:
            z = eta + resid / dlink
            W11 = dlink[:, 0] * W11 * dlink[:, 0]
            W12 = dlink[:, 0] * W12 * dlink[:, 1]
            W22 = dlink[:, 1] * W22 * dlink[:, 1]
        return _ordinal_deviance_mean(y_idx, pimat), z, (W11, W12, W22)

    def normal(xc, W, r):
        W11, W12, W22 = W
        # The stacked design repeats each covariate row across both logits, so
        # the normal equations reduce to scalar weights 1^T W_i 1 per subject.
        wsum = W11 + 2.0 * W12 + W22
        rhs = W11 * r[:, 0] + W12 * (r[:, 0] + r[:, 1]) + W22 * r[:, 1]
        return (xc * wsum[:, None]).T @ xc, xc.T @ rhs

    return _irls("ordinal", step, normal,
                 np.tile(np.log(cum / (1.0 - cum)), (len(y), 1)), x, shapes,
                 spec, backend, cfg, cache)


@dataclass(frozen=True)
class OrdinalPrediction:
    """Category probabilities at a query point, their argmax (ties resolved
    toward the lower category), and whether the cumulative probabilities had
    to be reordered to restore monotonicity."""

    probs: NDArray[np.floating]
    category: int
    monotone_repaired: bool


def predict_ordinal(fit: GplmFit, x_new, s_new, train_shapes, train_x,
                    spec: KernelSpec | None = None, backend=None,
                    query_rows=None) -> OrdinalPrediction:
    """Category probabilities and predicted class at a new point.

    ``query_rows`` works as in :func:`predict_logistic`.
    """
    xb, phi0_new, phib = _query_terms(fit, "ordinal", x_new, s_new, train_shapes,
                                      train_x, spec, backend, query_rows)
    eta = float(xb - phib) + phi0_new
    gam = _expit(eta)
    repaired = bool(gam[0] > gam[1])
    if repaired:
        gam = np.sort(gam)
    probs = np.array([gam[0], gam[1] - gam[0], 1.0 - gam[1]])
    category = int(np.argmax(probs)) + 1
    return OrdinalPrediction(probs=probs, category=category,
                             monotone_repaired=repaired)
