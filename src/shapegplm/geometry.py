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
from functools import lru_cache, partial

import numpy as np
from numpy.typing import NDArray

from . import _workers
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
    "MEAN_PAIRS",
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


def _reflected(u: NDArray, vt: NDArray) -> NDArray:
    """Whether ``det(u) det(vt) < 0`` for each pair of two SVD factor stacks.

    For m = 3 both determinants come from one closed-form cofactor
    expansion, a few elementwise operations in place of two LU
    factorisations per pair. The sign is the one LU gives: ``u`` and ``vt``
    are orthogonal to rounding, so each determinant is +-1 to within a few
    ulps, and no evaluation of it can fall on the other side of 0.
    """
    if u.shape[-1] != 3:
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
        chord = 0.5 * _row_norms(za[near] - np.matmul(zb[near], rotation[near]))
        rho[near] = 2.0 * np.arcsin(np.minimum(chord, 1.0))
    return rho


def _row_norms(v: NDArray) -> NDArray[np.floating]:
    """Euclidean norm of each row of ``v``, or of each item of a stack of
    matrices, summed as ``np.linalg.norm`` sums a single array."""
    if v.ndim > 2:
        v = v.reshape(len(v), -1)
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


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


# Most preshape pairs in one kernel call of a stacked procrustes_mean, e.g.
# 8 samples of 88 shapes. Each pair holds about six (k-1) x m arrays while it
# sweeps. Wider stacks measured no faster but raised the peak RSS of a
# benchmark session (see the README).
MEAN_PAIRS = 768


def procrustes_mean(shapes: list[PreShape] | list[list[PreShape]],
                    tol: float = 1e-9, max_iter: int = 200,
                    initial=None) -> PreShape | list[PreShape]:
    """Full Procrustes mean by iterative align-average-renormalise.

    Minimises the summed squared full-Procrustes distances to the sample.
    Iterates until the mean moves less than ``tol`` in Frobenius norm or
    ``max_iter`` sweeps have run. ``initial`` seeds the iteration (defaults
    to the first shape); a converged mean re-used as the seed moves less
    than ``tol``.

    ``shapes`` is one sample, a list of :class:`PreShape`, or a list of F
    samples of one length, which returns a list of F means (``initial`` is
    then None or a list of F seeds). Their sweeps run together, at most
    :data:`MEAN_PAIRS` pairs per kernel call; a sample that stops leaves the
    stack, and each mean is bit for bit the one its sample gets alone.
    """
    stacked = bool(shapes) and not isinstance(shapes[0], PreShape)
    samples = shapes if stacked else [shapes]
    seeds = initial if stacked and initial is not None else [initial] * len(samples)
    n = len(samples[0])
    for sample, seed in zip(samples, seeds):
        if not sample:
            raise InvalidArgumentError("procrustes_mean requires a nonempty list")
        if len(sample) != n:
            raise InvalidArgumentError("stacked samples must all have one length")
        for s in sample if seed is None else [*sample, seed]:
            _check_same_shape(samples[0][0], s)
    means = [sample[0] if seed is None else seed for sample, seed in zip(samples, seeds)]
    todo = [f for f, seed in enumerate(seeds) if n > 1 or seed is not None]
    per_stack = max(1, MEAN_PAIRS // n)
    for first in range(0, len(todo), per_stack):
        part = todo[first:first + per_stack]
        zs = np.array([[s.z for s in samples[f]] for f in part])
        swept = _mean_sweeps(zs, np.array([means[f].z for f in part]), tol, max_iter)
        for f, z in zip(part, swept):
            means[f] = PreShape(z)
    return means if stacked else means[0]


def _mean_sweeps(zs: NDArray, mean: NDArray, tol: float, max_iter: int) -> NDArray:
    """The sweeps of :func:`procrustes_mean` on G samples ``(G, n, k-1, m)``
    from seeds ``(G, k-1, m)``, with one :func:`_align` call per sweep."""
    out = mean.copy()
    live = np.arange(len(zs))
    for _ in range(max_iter):
        pairs = zs.reshape(-1, *zs.shape[2:])
        ssum, rotation = _align(np.repeat(mean, zs.shape[1], axis=0), pairs)
        # optimal similarity fit of each shape onto the mean scales by <mean, s R>;
        # the axis-1 sum adds a sample's shapes in order, as axis 0 of one sample
        acc = np.add.reduce((ssum[:, None, None] * np.matmul(pairs, rotation))
                            .reshape(zs.shape), axis=1)
        acc /= zs.shape[1]
        norm = _row_norms(acc)
        if np.any(norm <= 0.0):
            raise DegenerateConfigurationError("mean shape collapsed to zero")
        new_mean = acc / norm[:, None, None]
        moving = ~(_row_norms(new_mean - mean) < tol)
        out[live] = mean = new_mean
        if not moving.any():
            break
        if not moving.all():
            zs, mean, live = zs[moving], mean[moving], live[moving]
    return out


def tangent_coordinates(pole: PreShape, shapes: PreShape | list[PreShape]
                        ) -> NDArray[np.floating]:
    """Coordinates of shapes in the tangent space at ``pole``.

    Each shape is first rotated into optimal position, then mapped by the
    inverse exponential of the preshape sphere. Its vector is flattened to
    length ``(k-1)m`` and its Euclidean norm equals the shape distance to the
    pole, so distances to the pole are preserved exactly; a shape equal to
    the pole maps to zeros.

    ``shapes`` is one :class:`PreShape`, giving a ``((k-1)m,)`` vector, or a
    list of P of them, giving ``(P, (k-1)m)`` rows from one kernel call, each
    the vector its shape gets alone. Raises :class:`OutOfChartError` for the
    first shape in order at pi/2 or more from the pole (cosine at most 0),
    naming its position in the list.
    """
    if isinstance(shapes, PreShape):
        return tangent_coordinates(pole, [shapes])[0]
    for s in shapes:
        _check_same_shape(pole, s)
    zb = np.array([s.z for s in shapes]).reshape(len(shapes), *pole.z.shape)
    za = np.broadcast_to(pole.z, zb.shape)
    ssum, rotation = _align(za, zb)
    rho = _geodesic(za, zb, ssum, rotation)
    cosr = np.minimum(np.maximum(ssum, -1.0), 1.0)
    at_pole = np.all(zb == pole.z, axis=(1, 2))
    off = np.flatnonzero(~at_pole & ((cosr <= 0.0) | (rho >= np.pi / 2)))
    if off.size:
        i = int(off[0])
        raise OutOfChartError(
            f"shape {i} of {len(zb)} lies outside the tangent chart of the pole: "
            f"distance {float(rho[i])!r}, cos {float(cosr[i])!r}", i)
    resid = (np.matmul(zb, rotation) - cosr[:, None, None] * pole.z).reshape(
        len(zb), pole.z.size)
    rnorm = _row_norms(resid)
    out = np.zeros(resid.shape)
    keep = ~at_pole & (rnorm >= 1e-300)
    out[keep] = (rho[keep] / rnorm[keep])[:, None] * resid[keep]
    return out


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

# Fewest pairs of distance rows worth a worker process of their own: smaller
# builds, such as every macaque build, stay serial (see the README).
SLAB_PAIRS = 4096

# Process-wide count of the pairwise-matrix builds `io.ingest` makes, keyed by
# the dataset's content hash: a dataset's matrix is computed exactly once.
MATRIX_BUILD_COUNTS: dict[str, int] = {}


def _distance_rows(a: NDArray, b: NDArray, after: bool = False) -> list[NDArray]:
    """Distances from each preshape of stack ``a`` to the preshapes of ``b``,
    one row per kernel call: row ``i`` against ``b[i + 1:]`` when ``after``
    (``a`` is then ``b`` less its last point), else against all of ``b``.

    Each row is one task of :func:`_workers.run`, so row ``i`` runs on worker
    ``i mod w`` and comes back in place. The rows go to forked worker
    processes when each worker gets at least :data:`SLAB_PAIRS` pairs.
    """
    n = len(a)

    def row(i):
        rest = b[(i + 1) * after:]
        return _distances(np.broadcast_to(a[i], rest.shape), rest)

    workers = _workers.count((n * len(b) - after * n * (n + 1) // 2) // SLAB_PAIRS)
    return _workers.run([partial(row, i) for i in range(n)], workers)


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

    def pairwise_matrices(self, points: list[PreShape]):
        """Distance and log-density matrices over a point list.

        Both are symmetric with exactly zero diagonals. Row ``i`` is measured
        against the points after it (see :func:`_distance_rows`).
        """
        z = self._stack(points)
        dist = np.zeros((len(z), len(z)))
        for i, row in enumerate(_distance_rows(z[:-1], z, after=True)):
            dist[i, i + 1:] = dist[i + 1:, i] = row
        del z   # freed, like the rows, before the log densities' n x n temporaries
        logdens = self.log_density_at(dist)
        np.fill_diagonal(logdens, 0.0)
        return dist, logdens

    def cross_distances(self, queries: list[PreShape],
                        points: list[PreShape]) -> NDArray:
        """``(Q, n)`` distances from each of ``queries`` to each of ``points``,
        row ``q`` measured as a row of :meth:`pairwise_matrices` is."""
        q, z = self._stack(queries), self._stack(points)
        return np.array(_distance_rows(q, z)).reshape(len(q), len(z))

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

    def pairwise_matrices(self, points):
        pts = np.asarray([self._check(p) for p in points])
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
