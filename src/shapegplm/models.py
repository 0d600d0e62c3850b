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

The loop advances a stack of G problems of one size together. The smoother
weights ``(G, n, n)`` and the designs ``(G, n, p)`` carry a leading problem
axis; the working quantities (linear predictors, probabilities, working
responses and their smooths) are held logit-major, ``(L, G, n)``, so that
every elementwise step runs over long contiguous rows, and each problem's
smooth is its own ``(n, n) @ (n, L)`` product. Every operation acts on each
problem's values exactly as it would on that problem alone, so a stacked fit
equals the single fit bit for bit. Each problem keeps its own stop rules;
one that stops is written out as a :class:`GplmFit` and dropped from the
stack. :func:`fit_logistic_plm` and :func:`fit_ordinal_plm` run a stack of
one; :func:`fit_stack` runs many, e.g. the folds of a cross-validation.

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
from .geometry import _row_norms
from .smoothing import (
    KernelSpec,
    SmootherCache,
    _checked_cache,
    _finite,
    _normalised,
    _weighted_average,
    apply_weights,
    normalised_weight_matrix,
    smooth_at,
)

__all__ = ["FitConfig", "GplmFit", "OrdinalWorkMatrices", "OrdinalPrediction",
           "FIT_STATUSES", "fit_plm", "fit_logistic_plm", "predict_logistic",
           "ordinal_work_matrices", "fit_ordinal_plm", "predict_ordinal",
           "fit_stack", "predict_stack"]

# How an iterative fit can end. A single fit raises DivergenceError instead of
# returning "diverged"; a stacked fit returns it.
FIT_STATUSES = ("converged", "separation", "max_iter", "diverged")


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
    """``A x = b`` for one ``p x p`` system or a stack ``(G, p, p)``."""
    if A.shape[-1] == 1:
        a = A[..., 0] + ridge  # ridge * eye(1), added without building it
        if (a == 0.0).any():
            raise IllConditionedError(
                f"normal equations singular even after ridge {ridge:g}")
        sol = b / a
    else:
        try:
            sol = np.linalg.solve(A + ridge * np.eye(A.shape[-1]),
                                  b[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise IllConditionedError(
                f"normal equations singular even after ridge {ridge:g}") from exc
    if not np.isfinite(sol).all():
        raise IllConditionedError("normal-equation solve produced non-finite values")
    return sol


def _expit(eta: NDArray) -> NDArray[np.floating]:
    """``1/(1+exp(-eta))`` where ``eta >= 0`` and ``e/(1+e)`` with
    ``e = exp(eta)`` elsewhere, so that no exponent is positive."""
    pos = eta >= 0
    e = np.exp(np.where(pos, -eta, eta))
    d = 1.0 + e
    return np.where(pos, 1.0 / d, np.divide(e, d, out=e))


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
    cache = _checked_cache(shapes, backend, cache)
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


def _binary_deviance_mean(y: NDArray, eta: NDArray):
    """Mean of -[y log p + (1-y) log(1-p)] over the last axis, computed
    stably from eta."""
    flip = np.where(y > 0.5, -1.0, 1.0)   # minus the sign of y - 1/2
    return np.add.reduce(_softplus(flip * eta), axis=-1) / eta.shape[-1]


def _times(a, b):
    """``a @ b`` for a stack of designs ``(G, n, p)`` and slopes ``(G, p, 1)``.
    With one covariate it is the elementwise product, 3 times faster; adding
    0.0 turns a -0 product into +0, as the matmul's sum from +0 does."""
    return a * b + 0.0 if b.shape[1] == 1 else a @ b


def _irls(model: str, family, w_smooth, x, bandwidths: list[float],
          cfg: FitConfig) -> list[GplmFit]:
    """The sweep shared by the logistic and ordinal fits, on a stack of G
    problems of one size.

    ``w_smooth`` holds each problem's ``n x n`` row-normalised smoother
    weights, at its bandwidth in ``bandwidths``, and ``x`` its ``n x p``
    design. The working quantities are held logit-major, ``(L, G, n)``, so
    that every elementwise step runs over long contiguous rows. ``family`` is ``(phi0, data, step, normal)``: the
    ``(L, G, n)`` starting smooth; a tuple of per-problem response arrays;
    ``step(data, eta, prob)``, which takes the linear predictor and the
    fitted probabilities ``expit(eta)`` and returns each problem's mean
    deviance, the working response and a tuple of its weights; and
    ``normal(xc, weights, r)``, which returns the weighted normal equations
    ``(A, b)`` of the slope from the smoother residuals ``xc`` of the design
    and ``r`` of the working response. The response arrays, the weights and
    the working quantities all have the problem axis second to last.

    A problem stops on a relative slope change below ``cfg.threshold``
    ("converged"), on the separation plateau (a saturated probability or a
    mean deviance below ``cfg.separation_deviance``, "separation"), on a
    slope norm above ``cfg.divergence_norm`` ("diverged"), or at
    ``cfg.max_iter`` ("max_iter"). A separated problem keeps the previous
    sweep's state. A failed solve or non-finite working targets raise for
    the whole stack. Returns one fit per problem, in stack order.

    Stopped problems leave the stack. The weights of the rest move to the
    front of ``w_smooth`` by swaps, which are undone before returning: a
    compacted copy would double the largest array while the caller still
    holds it.
    """
    phi0, data, step, normal = family
    phi = apply_weights(w_smooth, x)
    xc = x - phi
    beta = np.zeros((x.shape[0], x.shape[2]))
    z = None  # set by the first sweep, before any problem can stop
    rows = list(range(len(x)))  # each stacked problem's place in the result
    traces: list[list[float]] = [[] for _ in rows]
    fits: list[GplmFit | None] = [None] * len(rows)
    stack, swaps = w_smooth, []  # w_smooth is the live front of stack

    def stop(statuses, carried=()):
        """Write out each problem given a status in ``statuses`` (one entry
        per stacked problem, None for one that goes on) and drop it from the
        stack; returns the kept part of each array in ``carried``."""
        nonlocal rows, x, phi, xc, w_smooth, phi0, beta, z, data
        for j, status in enumerate(statuses):
            if status is None:
                continue
            k = rows[j]
            phi0_j = np.ascontiguousarray(phi0[:, j].T)
            fits[k] = GplmFit(
                model=model, beta=beta[j], phi0=phi0_j, phi=phi[j],
                g=phi0_j - (phi[j] @ beta[j])[:, None],
                z_final=np.ascontiguousarray(z[:, j].T),
                iterations=len(traces[k]), converged=(status == "converged"),
                status=status, bandwidth=bandwidths[k], e_trace=traces[k])
        # each stopped problem in the front gives its place to a kept one
        # from the back, so every problem moves at most once
        stopped = [status is not None for status in statuses]
        kept = [j for j, d in enumerate(stopped) if not d]
        order = list(range(len(kept)))
        holes = [j for j in order if stopped[j]]
        for hole, moved in zip(holes, kept[len(kept) - len(holes):]):
            order[hole] = moved
            swaps.append([hole, moved])
            stack[[hole, moved]] = stack[[moved, hole]]
        rows = [rows[j] for j in order]
        w_smooth = stack[:len(order)]
        order = np.array(order, dtype=np.intp)
        x, phi, xc, beta = (a[order] for a in (x, phi, xc, beta))
        phi0, z = phi0[:, order], z[:, order]
        data = tuple(a[..., order, :] for a in data)
        return [a[..., order, :] for a in carried]

    try:
        for it in range(1, cfg.max_iter + 1):
            b = beta[:, :, None]
            eta = _times(x, b)[..., 0] + (phi0 - _times(phi, b)[..., 0])
            prob = _expit(eta)
            deviance, z_new, weights = step(data, eta, prob)
            if it > 1:
                separated = ((deviance < cfg.separation_deviance)
                             | ((prob == 0.0) | (prob == 1.0)).any(axis=(0, 2))).tolist()
                if any(separated):
                    z_new, *weights = stop(
                        ["separation" if s else None for s in separated],
                        (z_new, *weights))
                    if not rows:
                        break
            z = z_new
            phi0 = _weighted_average(w_smooth, _finite(z), logit_major=True)
            beta_new = _solve(*normal(xc, weights, z - phi0), cfg.ridge)
            norm = _row_norms(beta_new)
            e = (_row_norms(beta_new - beta) / np.maximum(norm, 1e-300)).tolist()
            for k, e_k in zip(rows, e):
                traces[k].append(e_k)
            beta = beta_new
            # Python's float comparisons are numpy's, NaN included
            statuses = ["diverged" if n > cfg.divergence_norm
                        else "converged" if e_k < cfg.threshold else None
                        for n, e_k in zip(norm.tolist(), e)]
            if any(statuses):
                stop(statuses)
                if not rows:
                    break
        if rows:
            stop(["max_iter"] * len(rows))
    finally:
        for pair in reversed(swaps):
            stack[pair] = stack[pair[::-1]]
    return fits


def _fit_one(model: str, family, x, shapes, spec: KernelSpec, backend,
             cfg: FitConfig, cache: SmootherCache | None) -> GplmFit:
    """One problem through :func:`_irls`, as a stack of one."""
    cache = _checked_cache(shapes, backend, cache)
    spec.check_against(backend)
    w_smooth = normalised_weight_matrix(cache, spec)
    fit, = _irls(model, family, w_smooth[None], x[None], [spec.bandwidth], cfg)
    if fit.status == "diverged":
        raise DivergenceError(f"slope norm exceeded {cfg.divergence_norm:g} "
                              f"at iteration {fit.iterations}")
    return fit


def _logistic(y: NDArray, cfg: FitConfig):
    """The logistic family of :func:`_irls` for 0/1 responses ``(G, n)``."""
    uniq = np.unique(y)
    if not np.all(np.isin(uniq, (0.0, 1.0))):
        raise InvalidArgumentError(f"logistic response must be 0/1, got values {uniq}")
    if np.any(y.min(axis=-1) == y.max(axis=-1)):
        raise InvalidArgumentError("both response classes must be present")
    eps = cfg.prob_floor

    def step(data, eta, pr):
        y, = data
        pc = np.minimum(np.maximum(pr, eps), 1.0 - eps)
        w = pc * (1.0 - pc)
        return _binary_deviance_mean(y, eta[0]), eta + (y - pc) / w, (w,)

    def normal(xc, weights, r):
        w, = weights
        xt = xc.swapaxes(-1, -2)
        return xt @ (w[0, ..., None] * xc), (xt @ (w * r)[0, ..., None])[..., 0]

    return np.full((1,) + y.shape, -0.5), (y,), step, normal


def fit_logistic_plm(y, x, shapes, spec: KernelSpec, backend,
                     cfg: FitConfig | None = None,
                     cache: SmootherCache | None = None) -> GplmFit:
    """Logistic partially linear model by IRLS.

    Per sweep: evaluate fitted probabilities from the current state, build the
    working response ``z = eta + (y - p)/(p(1-p))`` and weights ``p(1-p)``
    (probabilities clamped to ``[prob_floor, 1 - prob_floor]``), smooth ``z``
    unweighted to refresh the nonparametric part, and solve the weighted
    normal equations for the slope. Stops on a relative slope change below
    ``cfg.threshold``, on the separation plateau, or at ``cfg.max_iter``;
    raises :class:`DivergenceError` when the slope norm exceeds
    ``cfg.divergence_norm``.
    """
    cfg = cfg or FitConfig()
    y, x = _check_inputs(y, x, len(shapes))
    return _fit_one("logistic", _logistic(y[None], cfg), x, shapes, spec,
                    backend, cfg, cache)


def _query_terms(fit: GplmFit, model: str, x_new, s_new, train_shapes, train_x,
                 spec: KernelSpec | None, backend, query_rows):
    """Whether one query was given (a stack of one), and the three terms of
    the linear predictor at each query point (:func:`_terms`). The families
    add them up in different orders, which shows in the last bits."""
    if fit.model != model:
        raise InvalidArgumentError(f"{model} prediction needs a {model} fit, "
                                   f"got {fit.model!r}")
    spec = spec or KernelSpec(bandwidth=fit.bandwidth)
    one = np.ndim(x_new) < 2
    x_new = np.atleast_2d(np.asarray(x_new, dtype=float))
    query = s_new if one else f"<one of {len(s_new)} query points>"
    s_new = [s_new] if one else s_new
    train_x = _as_design(train_x, len(train_shapes))
    if query_rows is None:
        dist = backend.cross_distances(s_new, train_shapes)
        query_rows = dist, backend.log_density_at(dist)
    query_rows = np.atleast_2d(*query_rows)
    phi0_new = smooth_at(*query_rows, fit.z_final, spec, query=query)
    phi_new = smooth_at(*query_rows, train_x, spec, query=query)
    return one, _terms(x_new, fit.beta, phi0_new, phi_new)


def _terms(x_new, beta, phi0_new, phi_new):
    """``x_new @ beta``, the smooth ``phi0_new`` of the working targets and
    the covariate smooth times ``beta`` at Q query points, from one fit's
    ``beta`` or one ``(Q, p)`` row per query: each query's products run alone,
    as ``(Q, p) @ (p,)`` would sum in another order."""
    b = beta[..., None]
    return (x_new[:, None] @ b)[:, 0, 0], phi0_new, (phi_new[:, None] @ b)[:, 0, 0]


def predict_logistic(fit: GplmFit, x_new, s_new, train_shapes, train_x,
                     spec: KernelSpec | None = None, backend=None,
                     query_rows=None):
    """Class-1 probability at a new point; at Q points, with ``x_new``
    ``(Q, p)``, the ``(Q,)`` array of the Q single calls' results.

    The nonparametric part at ``s_new`` is the kernel smooth of the stored
    working targets; the covariate smooth is re-evaluated the same way, so a
    query at a training point with its own covariates reproduces the
    in-sample fitted probability. ``query_rows`` may carry precomputed
    ``(distances, log_densities)`` from ``s_new`` to the training sample,
    e.g. rows sliced from a dataset-wide cache.
    """
    one, terms = _query_terms(fit, "logistic", x_new, s_new, train_shapes, train_x,
                              spec, backend, query_rows)
    prob = _logistic_probs(*terms)
    return float(prob[0]) if one else prob


def _logistic_probs(xb, phi0, phib) -> NDArray[np.floating]:
    """Class-1 probabilities from the terms of :func:`_terms`."""
    return _expit(xb + phi0[:, 0] - phib)


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
    W11, W12, W22 = _ordinal_weights(p1, p2, p3)
    W = np.array([[W11, W12], [W12, W22]])
    Dinv = np.diag([p1 * (1.0 - p1), p3 * (1.0 - p3)])
    return OrdinalWorkMatrices(W=W, Dinv=Dinv, clamped=clamped)


def _ordinal_weights(p1, p2, p3):
    """``W11, W12, W22`` of :func:`ordinal_work_matrices`, elementwise."""
    return (1.0 - p3) / (p1 * p2), -1.0 / p2, (1.0 - p1) / (p3 * p2)


def _ordinal_category_probs(gam: NDArray, axis: int = -1) -> NDArray[np.floating]:
    """Category probabilities, 3 along ``axis``, from cumulative ones, 2 along
    ``axis``: ``... x 3`` from ``... x 2``, or ``3 x ...`` from ``2 x ...``."""
    g1, g2 = np.moveaxis(gam, axis, 0) if axis else gam
    return np.stack([g1, g2 - g1, 1.0 - g2], axis=axis)


def _ordinal_deviance_mean(y_idx: NDArray, pimat: NDArray, axis: int = -1):
    """Mean of ``-log pi`` of the observed categories ``y_idx`` (0-based)
    over the last axis; ``pimat`` is the contiguous array from
    :func:`_ordinal_category_probs` with the same ``axis``, ``y_idx.shape +
    (3,)`` or ``(3,) + y_idx.shape``."""
    at = np.arange(y_idx.size).reshape(y_idx.shape)
    pobs = pimat.take(y_idx * y_idx.size + at if axis == 0 else 3 * at + y_idx)
    return -(np.add.reduce(np.log(np.maximum(pobs, 1e-300, out=pobs)), axis=-1)
             / y_idx.shape[-1])


def _ordinal(y: NDArray, cfg: FitConfig):
    """The ordinal family of :func:`_irls` for responses ``(G, n)`` in
    ``{1, 2, 3}``."""
    if not np.all(np.isin(y, (1, 2, 3))):
        raise InvalidArgumentError(
            "ordinal response must take values in {1, 2, 3}; general K is unsupported")
    if not all(np.all(np.any(y == c, axis=-1)) for c in (1, 2, 3)):
        raise InvalidArgumentError("all three categories must be present")
    eps = cfg.prob_floor
    y_idx = np.asarray(y, dtype=int) - 1
    Y = np.stack([(y <= 1).astype(float), (y <= 2).astype(float)])
    cum = np.stack([(y <= 1).mean(axis=-1), (y <= 2).mean(axis=-1)])

    def step(data, eta, gam):
        Y, y_idx = data
        pimat = _ordinal_category_probs(gam, axis=0)
        deviance = _ordinal_deviance_mean(y_idx, pimat, axis=0)
        # clipped in place: the deviance above took the unclipped values
        p1, p2, p3 = np.minimum(np.maximum(pimat, eps, out=pimat), 1.0 - eps, out=pimat)
        gamc = np.minimum(np.maximum(gam, eps), 1.0 - eps)
        dlink = gamc * (1.0 - gamc)                  # 2 x G x n, gam_k (1 - gam_k)
        resid = Y - gamc
        W11, W12, W22 = _ordinal_weights(p1, p2, p3)  # inverse indicator covariance
        if cfg.irls_variant == "paper":
            z = eta + dlink * resid
        else:
            z = eta + resid / dlink
            W11 = dlink[0] * W11 * dlink[0]
            W12 = dlink[0] * W12 * dlink[1]
            W22 = dlink[1] * W22 * dlink[1]
        return deviance, z, (W11, W12, W22)

    def normal(xc, W, r):
        W11, W12, W22 = W
        # The stacked design repeats each covariate row across both logits, so
        # the normal equations reduce to scalar weights 1^T W_i 1 per subject.
        wsum = W11 + 2.0 * W12 + W22
        rhs = W11 * r[0] + W12 * (r[0] + r[1]) + W22 * r[1]
        return ((xc * wsum[..., None]).swapaxes(-1, -2) @ xc,
                (xc.swapaxes(-1, -2) @ rhs[..., None])[..., 0])

    start = np.repeat(np.log(cum / (1.0 - cum))[..., None], y.shape[-1], axis=-1)
    return start, (Y, y_idx), step, normal


def fit_ordinal_plm(y, x, shapes, spec: KernelSpec, backend,
                    cfg: FitConfig | None = None,
                    cache: SmootherCache | None = None) -> GplmFit:
    """Three-category cumulative-logit partially linear model.

    The response is expanded into cumulative indicators ``Y_k = 1{y <= k}``,
    ``k = 1, 2``, sharing one slope across both logits. Each sweep builds a
    two-column working response and per-subject 2x2 weight matrices, smooths
    the working columns unweighted, and solves the stacked weighted normal
    equations for the slope. Stops as :func:`fit_logistic_plm` does.

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
    return _fit_one("ordinal", _ordinal(y[None], cfg), x, shapes, spec,
                    backend, cfg, cache)


# The response check and IRLS family of each model that cross-validates.
_FAMILIES = {"logistic": _logistic, "ordinal": _ordinal}


def fit_stack(model: str, y, x, w_smooth, spec: KernelSpec | list[KernelSpec],
              cfg: FitConfig | None = None) -> list[GplmFit]:
    """Logistic or ordinal fits of G problems of one size, advanced together.

    ``y`` is ``(G, n)``, ``x`` the ``(G, n, p)`` designs and ``w_smooth`` the
    ``(G, n, n)`` row-normalised smoother weights of each problem's sample at
    the bandwidth of ``spec``, or of its own entry of a list of G specs
    (slice ``g`` as :func:`normalised_weight_matrix` returns it for problem
    ``g``). Each fit equals, bit for bit, the one
    :func:`fit_logistic_plm` or :func:`fit_ordinal_plm` makes for its
    problem alone, except that a problem whose slope diverges ends with
    ``status="diverged"`` instead of raising :class:`DivergenceError`.
    ``w_smooth`` is reordered in place while the fits run, unless it is
    read-only, and holds what it held on entry when this returns. A writable
    ``w_smooth`` must therefore not be read or passed to another fit while
    this runs, in this thread or any other; pass a read-only array to have
    it copied instead.
    """
    if model not in _FAMILIES:
        raise InvalidArgumentError(f"stacked fits are logistic/ordinal, got {model!r}")
    cfg = cfg or FitConfig()
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    w_smooth = np.asarray(w_smooth, dtype=float)
    if not w_smooth.flags.writeable:
        w_smooth = w_smooth.copy()
    if (y.ndim != 2 or x.ndim != 3 or x.shape[:2] != y.shape
            or w_smooth.shape != y.shape + y.shape[-1:]):
        raise InvalidArgumentError(
            f"stack shapes disagree: y {y.shape}, x {x.shape}, weights {w_smooth.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError("design contains non-finite values")
    if y.shape[1] <= x.shape[2]:
        raise InvalidArgumentError("need more observations than covariates")
    specs = spec if isinstance(spec, list) else [spec] * len(y)
    if len(specs) != len(y):
        raise InvalidArgumentError(f"{len(specs)} kernel specs for {len(y)} problems")
    return _irls(model, _FAMILIES[model](y, cfg), w_smooth, x,
                 [s.bandwidth for s in specs], cfg)


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
                    query_rows=None):
    """Category probabilities and predicted class at a new point.

    Arguments work as in :func:`predict_logistic`; a stack gives a list.
    """
    one, terms = _query_terms(fit, "ordinal", x_new, s_new, train_shapes, train_x,
                              spec, backend, query_rows)
    preds = _ordinal_predictions(*terms)
    return preds[0] if one else preds


def _ordinal_predictions(xb, phi0, phib) -> list[OrdinalPrediction]:
    """One :class:`OrdinalPrediction` per query from the terms of
    :func:`_terms`."""
    gam = _expit((xb - phib)[:, None] + phi0)
    repaired = gam[:, 0] > gam[:, 1]
    gam[repaired] = gam[repaired, ::-1]
    probs = _ordinal_category_probs(gam)
    return [OrdinalPrediction(probs=p, category=c + 1, monotone_repaired=r)
            for p, c, r in zip(probs, np.argmax(probs, axis=1).tolist(),
                               repaired.tolist())]


def predict_stack(model: str, fits: list[GplmFit], x_new, train_x, log_w, query=None):
    """Logistic or ordinal predictions at Q query points, each from its own
    fit, in one pass: e.g. the held-out rows of a stack of cross-validation
    folds.

    ``fits`` holds each query's fit, ``x_new`` its ``(Q, p)`` covariates,
    ``train_x`` the ``(Q, n, p)`` training covariates of its fit, and
    ``log_w`` its ``(Q, n)`` unnormalised log kernel weights against its
    fit's training sample, which are overwritten. Returns what
    :func:`predict_logistic` or :func:`predict_ordinal` returns for a stack
    of queries; each query's result is, bit for bit, the one that call gives
    with the query's own fit and weight row.
    """
    w = _normalised(log_w, query)[:, None]
    phi0 = _weighted_average(w, np.array([fit.z_final for fit in fits]))[:, 0]
    phi = _weighted_average(w, train_x)[:, 0]
    terms = _terms(x_new, np.array([fit.beta for fit in fits]), phi0, phi)
    return (_logistic_probs if model == "logistic" else _ordinal_predictions)(*terms)
