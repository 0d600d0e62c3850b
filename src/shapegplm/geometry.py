"""Kendall shape-space geometry: preshapes, Procrustes distance, volume density.

Configurations are ``k x m`` landmark matrices. Removing translation (Helmert
submatrix) and scale (centroid size) maps them to preshapes, points on the
unit sphere in R^{m(k-1)}. Shapes are preshapes modulo rotation; all distances
here are geodesic distances in that quotient, with range [0, pi/2].

A small unit-hypersphere backend is provided alongside the Kendall backend so
the smoothing and model layers can be exercised on a manifold with elementary
closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DegenerateConfigurationError,
    InvalidArgumentError,
    OutOfChartError,
)

__all__ = [
    "PreShape",
    "ShapeSample",
    "helmert_submatrix",
    "centroid_size",
    "preshape",
    "procrustes_distance",
    "density_exponent",
    "log_volume_density",
    "log_density_from_distance",
    "procrustes_mean",
    "tangent_coordinates",
    "exponential_map",
    "KendallShapeBackend",
    "SphereBackend",
]

_UNIT_NORM_TOL = 1e-12
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class PreShape:
    """Unit Frobenius-norm ``(k-1) x m`` matrix representing a shape.

    The array is made read-only on construction; instances are safe to share
    across threads.
    """

    z: NDArray[np.floating]

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        if z.ndim != 2:
            raise InvalidArgumentError(f"preshape must be a 2-d matrix, got ndim={z.ndim}")
        if not np.all(np.isfinite(z)):
            raise InvalidArgumentError("preshape contains non-finite entries")
        norm = np.linalg.norm(z)
        if abs(norm - 1.0) > _UNIT_NORM_TOL:
            raise InvalidArgumentError(
                f"preshape must have unit Frobenius norm, got {norm!r}")
        z = z.copy()
        z.flags.writeable = False
        object.__setattr__(self, "z", z)

    @property
    def k(self) -> int:
        """Landmark count of the originating configuration."""
        return self.z.shape[0] + 1

    @property
    def m(self) -> int:
        return self.z.shape[1]


@dataclass(frozen=True)
class ShapeSample:
    """A preshape together with the centroid size it was scaled away from."""

    preshape: PreShape
    size: float

    def __post_init__(self):
        if not (np.isfinite(self.size) and self.size > 0):
            raise InvalidArgumentError(f"centroid size must be positive, got {self.size!r}")


def helmert_submatrix(k: int) -> NDArray[np.floating]:
    """Sub-Helmert matrix: ``(k-1) x k``, orthonormal rows, each summing to 0.

    Row ``j`` (1-based) holds ``j`` copies of ``h_j = -1/sqrt(j(j+1))`` followed
    by ``-j*h_j`` and zeros. Left-multiplication removes the location of a
    configuration. Any orthonormal translation-annihilating matrix would give
    the same shape distances; this fixes one convention.
    """
    if k < 2:
        raise InvalidArgumentError(f"helmert_submatrix requires k >= 2, got {k}")
    H = np.zeros((k - 1, k))
    for j in range(1, k):
        hj = -1.0 / np.sqrt(j * (j + 1.0))
        H[j - 1, :j] = hj
        H[j - 1, j] = -j * hj
    return H


@lru_cache(maxsize=None)
def _shared_helmert(k: int) -> NDArray[np.floating]:
    """:func:`helmert_submatrix`, built once per ``k`` and read-only."""
    H = helmert_submatrix(k)
    H.flags.writeable = False
    return H


def _as_configuration(x) -> NDArray[np.floating]:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InvalidArgumentError(
            f"configuration must be a k x m matrix with k >= 2, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError("configuration contains non-finite entries")
    return x


def _coincident(size: float, x: NDArray) -> bool:
    """Whether the centred size of ``x`` is rounding noise of its coordinates.

    Centring landmarks that all coincide at ``c`` leaves noise of order
    ``eps |c|`` per coordinate rather than exact zeros; the bound scales with
    the coordinates, so a configuration counts as one point anywhere in space
    while a genuine shape at any scale passes.
    """
    return size <= x.size * _EPS * np.abs(x).max()


def centroid_size(x) -> float:
    """Frobenius norm of the centered configuration.

    Equals ``||H x||`` for the Helmert submatrix ``H``; invariant under
    translation.
    """
    x = _as_configuration(x)
    size = float(np.linalg.norm(x - x.mean(axis=0)))
    if _coincident(size, x):
        raise DegenerateConfigurationError(
            "all landmarks coincide; centroid size is zero")
    return size


def preshape(x) -> ShapeSample:
    """Remove location and scale from a configuration.

    Returns the unit-norm Helmertized matrix together with the centroid size.
    """
    x = _as_configuration(x)
    xh = _shared_helmert(x.shape[0]) @ x
    size = float(np.linalg.norm(xh))
    if _coincident(size, x):
        raise DegenerateConfigurationError(
            "all landmarks coincide; configuration has no shape")
    return ShapeSample(preshape=PreShape(xh / size), size=size)


_CHORD_SWITCH = 0.999  # cos(rho) above which the chord evaluation takes over


# Stack size from which the closed-form 3 x 3 determinants cost less than
# two LU calls: 7 us either way at 16 pairs, 6.8 against 3.9 us for one pair
# (each tangent_coordinates call), 9 against 28 us for 100 pairs.
_CLOSED_FORM_PAIRS = 16


def _reflected(u: NDArray, vt: NDArray) -> NDArray:
    """Whether ``det(u) det(vt) < 0`` for each pair of two SVD factor stacks.

    For m = 3 and stacks of at least :data:`_CLOSED_FORM_PAIRS` pairs, both
    determinants come from one closed-form cofactor expansion, a few
    elementwise operations in place of two LU factorisations per pair. The
    sign is the same: ``u`` and ``vt`` are orthogonal to rounding, so each
    determinant is +-1 to within a few ulps, and no evaluation of it can
    fall on the other side of 0.
    """
    if u.shape[-1] != 3 or len(u) < _CLOSED_FORM_PAIRS:
        return np.linalg.det(u) * np.linalg.det(vt) < 0
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = (
        np.concatenate((u, vt)).reshape(-1, 9).T)
    det = (a00 * (a11 * a22 - a12 * a21) + a01 * (a12 * a20 - a10 * a22)
           + a02 * (a10 * a21 - a11 * a20))
    return det[:len(u)] * det[len(u):] < 0


def _align(za: NDArray, zb: NDArray):
    """Optimal rotations of a stack of preshape pairs: the Procrustes kernel.

    ``za`` and ``zb`` are ``(P, k-1, m)`` stacks (``za`` may be a broadcast
    view). For each pair, ``s`` is the sum of the singular values of
    ``zb^T za``, the smallest negated exactly when ``det(zb^T za) < 0``, and
    ``R`` is the SO(m) rotation maximising ``<za, zb R>`` (reflections never
    allowed); that maximum equals ``s``. Every step runs on the whole stack
    and does, per pair, the arithmetic of the one-pair evaluation, so a pair
    gives the same bits alone or in any stack.
    """
    c = np.matmul(zb.transpose(0, 2, 1), za)
    u, lam, vt = np.linalg.svd(c)
    flip = np.where(_reflected(u, vt), -1.0, 1.0)
    # 1 - flip is exactly 0 or 2: the one-pair sum, less 2 lam[-1] if reflected
    s = lam.sum(axis=1) - (1.0 - flip) * lam[:, -1]
    u[:, :, -1] *= flip[:, None]
    return s, np.matmul(u, vt)


def _geodesic(za: NDArray, zb: NDArray, s: NDArray, rotation: NDArray) -> NDArray:
    """Shape distances of aligned pairs from their :func:`_align` output.

    Evaluates ``arcsin(sqrt(1 - s^2))``. Near ``s = 1`` that expression loses
    half the working precision (the subtraction leaves an O(sqrt(eps)) floor),
    so the same angle is then taken from the chord after optimal alignment,
    ``2 arcsin(||za - zb R|| / 2)``, which is exact to full precision for
    small separations.
    """
    s = np.minimum(np.maximum(s, -1.0), 1.0)   # keeps 1 - s^2 within [0, 1]
    rho = np.arcsin(np.sqrt(1.0 - s * s))
    near = np.flatnonzero(s > _CHORD_SWITCH)
    if near.size:
        resid = (za[near] - np.matmul(zb[near], rotation[near])).reshape(near.size, -1)
        # the norm as a per-pair dot product, as np.linalg.norm takes it
        chord = 0.5 * np.sqrt(np.matmul(resid[:, None, :], resid[:, :, None]).ravel())
        rho[near] = 2.0 * np.arcsin(np.minimum(chord, 1.0))
    return rho


def _distances(za: NDArray, zb: NDArray) -> NDArray:
    """Shape distance of each pair of two ``(P, k-1, m)`` preshape stacks;
    equal preshapes are exactly 0 apart."""
    rho = _geodesic(za, zb, *_align(za, zb))
    rho[np.all(za == zb, axis=(1, 2))] = 0.0
    return rho


def _check_same_shape(a: PreShape, b: PreShape):
    if a.z.shape != b.z.shape:
        raise InvalidArgumentError(
            f"preshape dimension mismatch: {a.z.shape} vs {b.z.shape}")


def procrustes_distance(a: PreShape, b: PreShape) -> float:
    """Riemannian shape distance, in radians within [0, pi/2].

    ``arcsin(sqrt(1 - s^2))`` where ``s`` is the sum of the square roots of
    the eigenvalues of ``Z1^T Z2 Z2^T Z1`` (singular values of ``Z1^T Z2``),
    the smallest taken negative exactly when ``det(Z1^T Z2) < 0``. Because the
    singular values are sorted with only the smallest eligible for the sign
    flip, ``s`` is always nonnegative and the expression agrees with
    ``arccos(s)``; the range is capped at pi/2 either way.
    """
    _check_same_shape(a, b)
    return float(_distances(a.z[None], b.z[None])[0])


def density_exponent(k: int, m: int) -> int:
    """Exponent of ``sin(rho)/rho`` in the shape-space volume density.

    ``m(k-1) - 2 - m(m-1)/2``: preshape-sphere dimension minus one, minus the
    rotation-fibre dimension.
    """
    return m * (k - 1) - 2 - (m * (m - 1)) // 2


def _log_sinc(rho) -> NDArray[np.floating]:
    """log(sin(rho)/rho), elementwise, with a series branch near zero."""
    rho = np.asarray(rho, dtype=float)
    out = np.zeros(rho.shape)
    small = np.abs(rho) < 1e-6
    r2 = rho[small] ** 2
    out[small] = -r2 / 6.0 - r2 * r2 / 180.0
    rs = rho[~small]
    out[~small] = np.log(np.sin(rs) / rs)
    return out


def log_density_from_distance(rho, k: int, m: int) -> NDArray[np.floating]:
    """Log volume density at distance ``rho`` for ``k`` landmarks in R^m.

    Always ``<= 0``; 0 exactly at ``rho = 0``. Only the log form is exposed:
    for large ``k`` (the exponent grows like ``m k``) the density underflows
    and its reciprocal overflows in linear domain.
    """
    return density_exponent(k, m) * _log_sinc(rho)


def log_volume_density(a: PreShape, b: PreShape) -> float:
    """Log volume density of the shape manifold at ``b`` relative to ``a``."""
    _check_same_shape(a, b)
    rho = procrustes_distance(a, b)
    return float(log_density_from_distance(rho, a.k, a.m))


def procrustes_mean(shapes: list[PreShape], tol: float = 1e-9,
                    max_iter: int = 200,
                    initial: PreShape | None = None) -> PreShape:
    """Full Procrustes mean by iterative align-average-renormalise.

    Minimises the summed squared full-Procrustes distances to the sample.
    Iterates until the mean moves less than ``tol`` in Frobenius norm or
    ``max_iter`` sweeps have run. ``initial`` seeds the iteration (defaults
    to the first shape); a converged mean re-used as the seed moves less
    than ``tol``.
    """
    if not shapes:
        raise InvalidArgumentError("procrustes_mean requires a nonempty list")
    for s in shapes[1:]:
        _check_same_shape(shapes[0], s)
    if len(shapes) == 1 and initial is None:
        return shapes[0]
    mean = initial if initial is not None else shapes[0]
    _check_same_shape(shapes[0], mean)
    zs = np.array([s.z for s in shapes])
    for _ in range(max_iter):
        ssum, rotation = _align(np.broadcast_to(mean.z, zs.shape), zs)
        # optimal similarity fit of each shape onto the mean scales by <mean, s R>
        acc = np.add.reduce(ssum[:, None, None] * np.matmul(zs, rotation), axis=0)
        acc /= len(shapes)
        norm = np.linalg.norm(acc)
        if norm <= 0.0:
            raise DegenerateConfigurationError("mean shape collapsed to zero")
        new_mean = PreShape(acc / norm)
        delta = np.linalg.norm(new_mean.z - mean.z)
        mean = new_mean
        if delta < tol:
            break
    return mean


def tangent_coordinates(pole: PreShape, s: PreShape) -> NDArray[np.floating]:
    """Coordinates of ``s`` in the tangent space at ``pole``.

    ``s`` is first rotated into optimal position, then mapped by the inverse
    exponential of the preshape sphere. The returned vector is flattened to
    length ``(k-1)m`` and its Euclidean norm equals the shape distance to the
    pole, so distances to the pole are preserved exactly.
    """
    _check_same_shape(pole, s)
    if pole.z is s.z or np.array_equal(pole.z, s.z):
        return np.zeros(pole.z.size)
    za, zb = pole.z[None], s.z[None]
    ssum, rotation = _align(za, zb)
    rho = float(_geodesic(za, zb, ssum, rotation)[0])
    cosr = min(max(float(ssum[0]), -1.0), 1.0)
    if cosr <= 0.0 or rho >= np.pi / 2:
        raise OutOfChartError(
            f"shape at distance {rho:.6f} >= pi/2 from the pole")
    zs = s.z @ rotation[0]
    resid = zs - cosr * pole.z
    rnorm = np.linalg.norm(resid)
    if rnorm < 1e-300:
        return np.zeros(pole.z.size)
    return (rho / rnorm) * resid.ravel()


def exponential_map(pole: PreShape, v: NDArray[np.floating]) -> PreShape:
    """Inverse of :func:`tangent_coordinates`: map a tangent vector back to a
    preshape on the sphere."""
    v = np.asarray(v, dtype=float).reshape(pole.z.shape)
    norm = float(np.linalg.norm(v))
    if norm < 1e-300:
        return pole
    z = np.cos(norm) * pole.z + np.sin(norm) * (v / norm)
    return PreShape(z / np.linalg.norm(z))


# --- manifold backends -------------------------------------------------------

# Process-wide count of pairwise-matrix builds, keyed by an arbitrary label.
# Used to assert that a dataset's distance matrix is computed exactly once.
MATRIX_BUILD_COUNTS: dict[str, int] = {}


def _count_build(label: str | None):
    if label is not None:
        MATRIX_BUILD_COUNTS[label] = MATRIX_BUILD_COUNTS.get(label, 0) + 1


@dataclass(frozen=True)
class KendallShapeBackend:
    """Shape-manifold backend for ``k`` landmarks in R^m.

    Points are :class:`PreShape` instances. The injectivity bound pi/2 is the
    diameter-scale guidance used to warn about oversized bandwidths.
    """

    k: int
    m: int = 3

    @property
    def injectivity_bound(self) -> float:
        return np.pi / 2

    @property
    def description(self) -> str:
        return f"kendall(k={self.k}, m={self.m})"

    def log_density_at(self, rho) -> NDArray[np.floating]:
        return log_density_from_distance(rho, self.k, self.m)

    def _stack(self, points: list[PreShape]) -> NDArray:
        """The preshapes of ``points`` as one ``(n, k-1, m)`` array."""
        for s in points:
            if (s.k, s.m) != (self.k, self.m):
                raise InvalidArgumentError(
                    f"point of dimension (k={s.k}, m={s.m}) does not match "
                    f"backend {self.description}")
        # the reshape gives an empty list its (0, k-1, m) shape too
        return np.array([s.z for s in points]).reshape(len(points), self.k - 1, self.m)

    def pairwise_matrices(self, points: list[PreShape],
                          count_label: str | None = None):
        """Distance and log-density matrices over a point list.

        Both are symmetric with exactly zero diagonals. Row ``i`` is measured
        against the points after it in one kernel call. ``count_label``
        increments the process-wide build counter for cache instrumentation.
        """
        z = self._stack(points)
        _count_build(count_label)
        n = len(points)
        dist = np.zeros((n, n))
        for i in range(n - 1):
            rest = z[i + 1:]
            dist[i, i + 1:] = dist[i + 1:, i] = _distances(
                np.broadcast_to(z[i], rest.shape), rest)
        logdens = self.log_density_at(dist)
        np.fill_diagonal(logdens, 0.0)
        return dist, logdens

    def cross_distances(self, queries: list[PreShape],
                        points: list[PreShape]) -> NDArray:
        """``(Q, n)`` distances from each of ``queries`` to each of ``points``.

        The points are stacked and checked once; row ``q`` is then measured
        in one kernel call, as a row of :meth:`pairwise_matrices` is.
        """
        q, z = self._stack(queries), self._stack(points)
        dist = np.empty((len(q), len(z)))
        for i, zi in enumerate(q):
            dist[i] = _distances(np.broadcast_to(zi, z.shape), z)
        return dist

    def distances_to(self, query: PreShape, points: list[PreShape]) -> NDArray:
        return self.cross_distances([query], points)[0]


@dataclass(frozen=True)
class SphereBackend:
    """Unit hypersphere S^d in R^{d+1}; the test manifold.

    Geodesic distance is the arc length ``arccos <u, v>`` and the volume
    density follows the same ``(sin rho / rho)`` power law with exponent
    ``d - 1``.
    """

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise InvalidArgumentError(f"sphere dimension must be >= 1, got {self.d}")

    @property
    def injectivity_bound(self) -> float:
        return np.pi

    @property
    def description(self) -> str:
        return f"sphere(d={self.d})"

    def _check(self, u) -> NDArray[np.floating]:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.d + 1,):
            raise InvalidArgumentError(
                f"point on S^{self.d} must have {self.d + 1} components, got {u.shape}")
        if abs(np.linalg.norm(u) - 1.0) > 1e-9:
            raise InvalidArgumentError("sphere point is not unit norm")
        return u

    def distance(self, a, b) -> float:
        a, b = self._check(a), self._check(b)
        return float(np.arccos(min(max(float(a @ b), -1.0), 1.0)))

    def log_density_at(self, rho) -> NDArray[np.floating]:
        return (self.d - 1) * _log_sinc(rho)

    def log_volume_density(self, a, b) -> float:
        return float(self.log_density_at(self.distance(a, b)))

    def pairwise_matrices(self, points, count_label: str | None = None):
        pts = np.asarray([self._check(p) for p in points])
        _count_build(count_label)
        gram = np.clip(pts @ pts.T, -1.0, 1.0)
        dist = np.arccos(gram)
        np.fill_diagonal(dist, 0.0)
        logdens = self.log_density_at(dist)
        np.fill_diagonal(logdens, 0.0)
        return dist, logdens

    def cross_distances(self, queries, points) -> NDArray:
        """``(Q, n)`` arc lengths, one matrix-vector product per query row."""
        q = np.asarray([self._check(u) for u in queries])
        pts = np.asarray([self._check(p) for p in points])
        return np.arccos(np.clip((pts @ q[:, :, None])[..., 0], -1.0, 1.0))

    def distances_to(self, query, points) -> NDArray:
        return self.cross_distances([query], points)[0]
