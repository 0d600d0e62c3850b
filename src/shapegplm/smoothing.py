"""Kernel regression on a manifold backend.

The estimator at a query point ``s`` is a weighted average of the targets,
with weights ``K_h(rho(s, s_i)) / theta_s(s_i)``: a Gaussian kernel in the
geodesic distance, corrected by the reciprocal volume density so that the
curvature of the manifold does not bias the local averaging. All weights are
accumulated in log domain with a max shift; normalisation constants cancel in
the ratio.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import BandwidthTooSmallError, InvalidArgumentError

__all__ = ["KernelSpec", "SmootherCache", "kernel_weight",
           "pelletier_estimate", "smooth_all"]


@dataclass(frozen=True)
class KernelSpec:
    """Bandwidth (radians) of the Gaussian kernel."""

    bandwidth: float

    def __post_init__(self):
        if not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise InvalidArgumentError(f"bandwidth must be positive, got {self.bandwidth!r}")

    def check_against(self, backend) -> None:
        """Warn (never raise) when the bandwidth exceeds the injectivity bound."""
        bound = getattr(backend, "injectivity_bound", None)
        if bound is not None and self.bandwidth > bound:
            warnings.warn(
                f"bandwidth {self.bandwidth:.6g} exceeds the injectivity bound "
                f"{bound:.6g} of {backend.description}; estimates remain defined "
                "but lose their local character", stacklevel=2)


@dataclass(frozen=True)
class SmootherCache:
    """Pairwise distances and log volume densities over one sample.

    Both matrices are symmetric with exactly zero diagonals; they depend only
    on the sample, not on the bandwidth, so one cache serves every fit and
    every bandwidth on the same data.
    """

    dist: NDArray[np.floating]
    logdens: NDArray[np.floating]

    def __post_init__(self):
        d, l = np.asarray(self.dist, float), np.asarray(self.logdens, float)
        if d.shape != l.shape or d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise InvalidArgumentError("cache matrices must be square and congruent")
        for name, mat in (("distance", d), ("log-density", l)):
            if not np.allclose(mat, mat.T, atol=1e-12):
                raise InvalidArgumentError(f"{name} matrix is not symmetric")
            if np.any(np.diagonal(mat) != 0.0):
                raise InvalidArgumentError(f"{name} matrix has a nonzero diagonal")

    @classmethod
    def from_points(cls, points, backend) -> "SmootherCache":
        dist, logdens = backend.pairwise_matrices(points)
        return cls(dist=dist, logdens=logdens)

    @property
    def n(self) -> int:
        return self.dist.shape[0]


def _checked_cache(points, backend, cache: SmootherCache | None) -> SmootherCache:
    """``cache`` once it is known to be built over as many points as
    ``points``, or a new cache over ``points`` when it is None."""
    if cache is None:
        return SmootherCache.from_points(points, backend)
    if cache.n != len(points):
        raise InvalidArgumentError(
            f"cache built for {cache.n} points cannot serve {len(points)} points")
    return cache


def kernel_weight(d: float, spec: KernelSpec) -> float:
    """Unnormalised Gaussian kernel value ``exp(-d^2 / (2 h^2))``."""
    if d < 0:
        raise InvalidArgumentError(f"distance must be nonnegative, got {d}")
    return float(np.exp(_log_weights(d, 0.0, spec)))


def _log_weights(dist, logdens, spec: KernelSpec) -> NDArray[np.floating]:
    h = spec.bandwidth
    # extreme bandwidths may overflow to -inf here, or give 0/0 = NaN on the
    # diagonal when h * h underflows; the normalisation guard turns either
    # into BandwidthTooSmallError
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return (-np.asarray(logdens, float)
                - np.asarray(dist, float) ** 2 / (2.0 * h * h))


def _normalised(logw: NDArray, query) -> NDArray[np.floating]:
    """Rows of normalised weights from log weights, max-shifted per row.

    Works in place: ``logw``, a float array the caller hands over, is
    overwritten with the weights and returned.
    """
    shift = logw.max(axis=-1, keepdims=True)
    if not np.all(np.isfinite(shift)):
        raise BandwidthTooSmallError(query)
    w = np.exp(np.subtract(logw, shift, out=logw), out=logw)
    w /= w.sum(axis=-1, keepdims=True)
    return w


def _weighted_average(w: NDArray, targets: NDArray,
                      logit_major: bool = False) -> NDArray[np.floating]:
    """``w @ targets`` for one row of weights ``(n,)`` over targets ``(n, L)``,
    a matrix ``(m, n)`` of them, or a stack ``(G, m, n)`` over ``(G, n, L)``.

    With ``logit_major`` the stack of targets and the result are held as
    ``(L, G, n)`` and ``(L, G, m)``, as the IRLS sweep holds them, and are
    smoothed exactly as the C-ordered ``(G, n, L)`` stack of the same values.
    """
    axis = -1 if logit_major else -2   # the axis of the n sample points
    n, columns = targets.shape[axis], targets.shape[0 if logit_major else -1]
    # Averaging deviations from the column mean keeps constant targets exact.
    if targets.ndim == 3 and columns > 1 and (logit_major or targets.flags.c_contiguous):
        # numpy sums a C-ordered stack over n in sequence, with a short inner
        # loop; an n-major copy sums in the same order over long rows
        n_major = np.ascontiguousarray(targets.transpose((2, 0, 1) if logit_major
                                                         else (1, 0, 2)))
        tbar = np.add.reduce(n_major, axis=0) / n
        tbar = tbar[..., None] if logit_major else tbar[:, None, :]
    else:   # e.g. (n, L) or (G, n, 1), which numpy sums pairwise over n
        tbar = np.add.reduce(targets, axis=axis, keepdims=True) / n
    if not logit_major:
        out = tbar + w @ (targets - tbar)
        return out[0] if w.ndim == 1 else out
    # the products take each problem's C-ordered (n, L) deviations, as above
    dev = np.ascontiguousarray((targets - tbar).transpose(1, 2, 0))
    return np.add(tbar, (w @ dev).transpose(2, 0, 1),
                  out=np.empty((len(targets),) + w.shape[:-1]))


def normalised_weight_matrix(cache: SmootherCache, spec: KernelSpec) -> NDArray:
    """Row-normalised weights over one sample, ready for repeated smoothing.

    The weights depend only on the cache and the bandwidth, not on the
    targets, so iterative fits compute this once and re-apply it every sweep;
    ``apply_weights(w, t)`` then equals ``smooth_all`` on the same cache.
    """
    return _normalised(_log_weights(cache.dist, cache.logdens, spec),
                       query="<all sample points>")


def _finite(targets) -> NDArray[np.floating]:
    """``targets`` as floats, once they are known to be finite."""
    t = np.asarray(targets, dtype=float)
    if not np.isfinite(t).all():
        raise InvalidArgumentError("targets contain non-finite values")
    return t


def apply_weights(w: NDArray, targets) -> NDArray[np.floating]:
    """Smooth targets ``(n,)`` or ``(n, L)`` with row-normalised weights
    ``(n,)`` or ``(m, n)``, or a stack of targets ``(G, n, L)`` with weights
    ``(G, m, n)``, each slice as it would alone. Every smooth ends in its
    core, which the IRLS sweep calls directly on its logit-major targets."""
    t = _finite(targets)
    if t.ndim == 1:
        return _weighted_average(w, t[:, None])[..., 0]
    return _weighted_average(w, t)


def smooth_at(dist_rows, logdens_rows, targets, spec: KernelSpec, query=None):
    """Estimates at off-sample points from precomputed distances.

    Low-level entry used by prediction paths that already hold the rows from
    the queries to the training sample, ``(n,)`` or ``(Q, n)``; each row is
    smoothed as a ``1 x n`` matrix, as ``(Q, n) @ (n, L)`` sums in another order.
    """
    w = _normalised(_log_weights(dist_rows, logdens_rows, spec), query)
    out = apply_weights(w[..., None, :], targets)
    return out[..., 0] if np.ndim(targets) == 1 else out[..., 0, :]


def _check_sample(points, targets, spec: KernelSpec, backend) -> None:
    if len(points) == 0:
        raise InvalidArgumentError("cannot smooth over an empty sample")
    if len(targets) != len(points):
        raise InvalidArgumentError(
            f"{len(targets)} target rows for {len(points)} sample points")
    spec.check_against(backend)


def pelletier_estimate(query, points, targets, spec: KernelSpec, backend,
                       cache: SmootherCache | None = None):
    """Kernel-regression estimate of the target function at one point.

    ``query`` is either a point of the backend or an integer index into
    ``points`` (served from ``cache`` when given). Vector targets are smoothed
    column-wise. Every sample point contributes, including the query itself
    when it is part of the sample.

    Raises :class:`BandwidthTooSmallError` when all log weights underflow to
    ``-inf`` even after shifting, naming the query.
    """
    _check_sample(points, targets, spec, backend)
    if isinstance(query, (int, np.integer)) and cache is not None:
        cache = _checked_cache(points, backend, cache)
        return smooth_at(cache.dist[query], cache.logdens[query], targets, spec,
                         query)
    point = points[query] if isinstance(query, (int, np.integer)) else query
    dist = backend.distances_to(point, points)
    return smooth_at(dist, backend.log_density_at(dist), targets, spec, query)


def smooth_all(points, targets, spec: KernelSpec, backend,
               cache: SmootherCache | None = None) -> NDArray[np.floating]:
    """Estimates at every sample point; row ``i`` is the estimate at point ``i``.

    Equivalent to ``n`` independent :func:`pelletier_estimate` calls over the
    shared cache.
    """
    _check_sample(points, targets, spec, backend)
    cache = _checked_cache(points, backend, cache)
    return apply_weights(normalised_weight_matrix(cache, spec), targets)
