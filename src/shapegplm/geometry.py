"""Kendall shape-space geometry: preshapes, Procrustes distance, volume density.

Configurations are ``k x m`` landmark matrices. Removing translation (Helmert
submatrix) and scale (centroid size) maps them to preshapes, points on the
unit sphere in R^{m(k-1)}. Shapes are preshapes modulo rotation; all distances
here are geodesic distances in that quotient, with range [0, pi/2].

Optimal rotations of means and tangents come from the SVD of each pair's
``zb^T za`` (:func:`_align`). Distances of 3-D shapes come from Horn's
quaternion matrix instead (:func:`_qcp_distances`): its largest eigenvalue
for far pairs, and the rotation of its eigenvector for the chord of near
ones. The SVD measures the pairs where either is ill-conditioned and every
pair of other m; the two agree to within 1e-12. Distance builds measure
their pairs in blocks (:func:`_pair_distances`).

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
    "preshape",
    "preshape_stack",
    "procrustes_distance",
    "density_exponent",
    "log_density_from_distance",
    "procrustes_mean",
    "MEAN_PAIRS",
    "tangent_coordinates",
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


def preshape(x) -> ShapeSample:
    """Remove location and scale from a configuration.

    Returns the unit-norm Helmertized matrix together with the centroid size.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InvalidArgumentError(
            f"configuration must be a k x m matrix with k >= 2, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError("configuration contains non-finite entries")
    z, size, has_shape = preshape_stack(x[None])
    if not has_shape[0]:
        raise DegenerateConfigurationError(
            "all landmarks coincide; configuration has no shape")
    return ShapeSample(preshape=PreShape(z[0]), size=float(size[0]))


def preshape_stack(x: NDArray) -> tuple[NDArray, NDArray, NDArray]:
    """:func:`preshape` of each configuration of an ``(n, k, m)`` stack, in
    one array pass with the bits of one configuration alone.

    Returns the ``(n, k-1, m)`` preshapes, the ``n`` centroid sizes and, for
    each configuration, whether it has a shape: finite coordinates, and a
    centred size above the rounding noise of its coordinates. The entries of
    one without a shape are meaningless. The Helmert product is one matrix
    product per configuration and each size a ``dot`` of the row with itself,
    as ``np.linalg.norm`` takes it, then a square root.
    """
    with np.errstate(divide="ignore", invalid="ignore"):   # for those without
        xh = _shared_helmert(x.shape[1]) @ x
        row = xh.reshape(len(x), 1, -1)
        size = np.sqrt(row @ row.transpose(0, 2, 1)).reshape(len(x))
        # centring landmarks that all coincide at c leaves noise of order
        # eps |c| per coordinate rather than exact zeros; the bound scales
        # with the coordinates, so a configuration counts as one point
        # anywhere in space while a genuine shape at any scale passes
        noise = x.shape[1] * x.shape[2] * _EPS * np.abs(x).max(axis=(1, 2), initial=0.0)
        has_shape = np.isfinite(x).all(axis=(1, 2)) & (size > noise)
        return xh / size[:, None, None], size, has_shape


_CHORD_SWITCH = 0.999  # cos(rho) above which the chord evaluation takes over


def _det3(entries) -> NDArray:
    """Determinants of a stack of 3 x 3 matrices, given as its nine entries
    in row-major order, each an array over the stack, by cofactor expansion
    along the first row: a few elementwise operations per matrix."""
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = entries
    return (a00 * (a11 * a22 - a12 * a21) + a01 * (a12 * a20 - a10 * a22)
            + a02 * (a10 * a21 - a11 * a20))


def _reflected(u: NDArray, vt: NDArray) -> NDArray:
    """Whether ``det(u) det(vt) < 0`` for each pair of two SVD factor stacks.

    For m = 3 both determinants come from :func:`_det3`, in place of two LU
    factorisations per pair. The sign is the one LU gives: ``u`` and ``vt``
    are orthogonal to rounding, so each determinant is +-1 to within a few
    ulps, and no evaluation of it can fall on the other side of 0.
    """
    if u.shape[-1] != 3:
        return np.linalg.det(u) * np.linalg.det(vt) < 0
    det = _det3(np.concatenate((u, vt)).reshape(-1, 9).T)
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
    so the same angle is then taken from the chord after optimal alignment
    (:func:`_chord_distances`).
    """
    s = np.minimum(np.maximum(s, -1.0), 1.0)   # keeps 1 - s^2 within [0, 1]
    rho = np.arcsin(np.sqrt(1.0 - s * s))
    near = np.flatnonzero(s > _CHORD_SWITCH)
    if near.size:
        rho[near] = _chord_distances(za[near], zb[near], rotation[near])
    return rho


def _chord_distances(za: NDArray, zb: NDArray, rotation: NDArray) -> NDArray:
    """``2 arcsin(||za - zb R|| / 2)`` of pairs aligned by their rotations
    ``R``: the shape distance, exact to full precision for small
    separations."""
    chord = 0.5 * _row_norms(za - np.matmul(zb, rotation))
    return 2.0 * np.arcsin(np.minimum(chord, 1.0))


def _row_norms(v: NDArray) -> NDArray[np.floating]:
    """Euclidean norm of each row of ``v``, or of each item of a stack of
    matrices, summed as ``np.linalg.norm`` sums a single array."""
    if v.ndim > 2:
        v = v.reshape(len(v), -1)
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


_QCP_STEPS = 50        # Newton steps before a pair is left to the SVD
# Least P'(s) sin(rho) / s^4 at which the root is trusted: rounding moves rho
# by up to about 10 eps over this ratio, so by at most about 5e-14.
_QCP_CONDITION = 0.05
# Least norm of the adjugate column a chord pair's quaternion is taken from,
# about the product of the root's gaps to the other three eigenvalues: the
# quaternion then errs by about 1e-12 at most, which moves the chord of an
# optimal rotation only at second order.
_ROTATION_CONDITION = 1e-3
# For each row i of a 4-vector, the other three rows in order
_OTHERS = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
_ALTERNATING = np.array([1.0, -1.0, 1.0, -1.0])[:, None, None]


def _qcp_distances(za: NDArray, zb: NDArray) -> NDArray:
    """Shape distances of 3-D pairs, two ``(P, k-1, 3)`` preshape stacks, by
    Horn's quaternion eigenvalue; NaN where the SVD must decide.

    The signed singular-value sum ``s`` of :func:`_align` is the largest
    eigenvalue of Horn's 4 x 4 quaternion matrix ``K`` of ``C = zb^T za``
    (Horn 1987), so the largest root of its characteristic quartic
    ``P(l) = l^4 - 2|C|^2 l^2 - 8 det(C) l + 2|C^T C|^2 - |C|^4`` (Theobald's
    QCP, 2005). Newton's method descends to it from ``min(1, sqrt(3) |C|)``,
    a bound on ``s``, and each pair stops at the first step that is not a
    descent of more than 4 ulps. A pair is left to the SVD (NaN) when its
    iterate is not finite or has not stopped after :data:`_QCP_STEPS` steps,
    or when the root is too close to the next one to be accurate,
    ``P'(s) sin(rho) < _QCP_CONDITION s^4``, as for collinear shapes, where
    it is double. Chord pairs (``s > _CHORD_SWITCH``) are measured by
    :func:`_chord_distances` with the rotation of :func:`_horn_rotations`,
    or left to the SVD where that rotation is not trusted. The arithmetic
    is elementwise, so a pair gets the same bits alone or in any stack.
    """
    c = np.matmul(zb.transpose(0, 2, 1), za)
    t = c.transpose(1, 2, 0).copy()     # t[i, j] holds C_ij of every pair
    prod = t[:, :, None] * t[:, None]   # C_ki C_kj at [k, i, j]
    gram = prod[0] + prod[1] + prod[2]  # C^T C
    sq = gram * gram
    col = sq[0] + sq[1] + sq[2]
    norm2 = gram[0, 0] + gram[1, 1] + gram[2, 2]
    c0 = 2.0 * (col[0] + col[1] + col[2]) - norm2 * norm2
    b = 8.0 * _det3(t.reshape(9, -1))
    s = np.full(len(c), np.nan)
    live, coef = np.arange(len(c)), np.array((2.0 * norm2, b, c0, norm2))
    lam = np.minimum(np.sqrt(3.0 * norm2), 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_QCP_STEPS):
            if not live.size:
                break
            la, lb, lc0, ln2 = coef
            l2 = lam * lam
            step = (((l2 - la) * lam - lb) * lam + lc0) / (4.0 * (l2 - ln2) * lam - lb)
            lam = lam - step
            go = step > 4.0 * _EPS * lam
            if not go.all():
                stop = ~go
                s[live[stop]] = lam[stop]
                live, lam, coef = live[go], lam[go], coef[:, go]
        s2 = s * s
        sin = np.sqrt(1.0 - s2)
        slope = 4.0 * (s2 - norm2) * s - b
        far = (s <= _CHORD_SWITCH) & (slope * sin >= _QCP_CONDITION * (s2 * s2))
        rho = np.where(far, np.arcsin(sin), np.nan)
    chord = np.flatnonzero(s > _CHORD_SWITCH)
    if chord.size:
        trusted, rotation = _horn_rotations(t.reshape(9, -1)[:, chord], s[chord])
        chord = chord[trusted]
        if chord.size:
            rho[chord] = _chord_distances(za[chord], zb[chord], rotation)
    return rho


def _horn_rotations(entries, s: NDArray):
    """The optimal rotations of pairs from their ``C`` (nine entries in
    row-major order, each an array over the pairs) and the largest
    eigenvalue ``s`` of Horn's matrix ``K``: the mask of the pairs whose
    rotation is trusted, and those ``(T, 3, 3)`` rotations ``R``, each the
    :func:`_align` rotation to rounding.

    The unit quaternion of ``R`` spans the null space of ``A = K - sI``. It is
    the 4-D cross product of any three columns of ``A``; the four choices are
    the columns of ``adj(A)``, and the one of largest norm is taken. That
    norm is about the product of the root's gaps to the other eigenvalues;
    below :data:`_ROTATION_CONDITION`, as for collinear shapes, the pair is
    not trusted.
    """
    c00, c01, c02, c10, c11, c12, c20, c21, c22 = entries
    a = np.array([[c00 + c11 + c22 - s, c21 - c12, c02 - c20, c10 - c01],
                  [c21 - c12, c00 - c11 - c22 - s, c01 + c10, c02 + c20],
                  [c02 - c20, c01 + c10, c11 - c00 - c22 - s, c12 + c21],
                  [c10 - c01, c02 + c20, c12 + c21, c22 - c00 - c11 - s]])
    # u, v, w[i, j]: row i of the three columns of A other than column j;
    # component r of a cross product is -1^r times the minor of its other rows
    u, v, w = (a[:, _OTHERS[:, k]] for k in range(3))
    i, j, k = _OTHERS.T
    cross = _ALTERNATING * _det3((u[i], u[j], u[k], v[i], v[j], v[k], w[i], w[j], w[k]))
    norm = np.sqrt(np.add.reduce(cross * cross, axis=0))
    best = np.argmax(norm, axis=0)
    pairs = np.arange(len(s))
    norm = norm[best, pairs]
    trusted = norm >= _ROTATION_CONDITION
    q0, q1, q2, q3 = cross[:, best[trusted], pairs[trusted]] / norm[trusted]
    s0, s1, s2, s3 = q0 * q0, q1 * q1, q2 * q2, q3 * q3
    rotation = np.array([
        [s0 + s1 - s2 - s3, 2.0 * (q1 * q2 - q0 * q3), 2.0 * (q1 * q3 + q0 * q2)],
        [2.0 * (q1 * q2 + q0 * q3), s0 - s1 + s2 - s3, 2.0 * (q2 * q3 - q0 * q1)],
        [2.0 * (q1 * q3 - q0 * q2), 2.0 * (q2 * q3 + q0 * q1), s0 - s1 - s2 + s3]])
    return trusted, np.ascontiguousarray(rotation.transpose(2, 0, 1))


def _distances(za: NDArray, zb: NDArray) -> NDArray:
    """Shape distance of each pair of two ``(P, k-1, m)`` preshape stacks;
    equal preshapes are exactly 0 apart.

    For m = 3, :func:`_qcp_distances` measures the far pairs, and the chord
    pairs whose Horn rotation is trusted. The others, and every pair for
    other m, take the SVD of :func:`_align` and :func:`_geodesic`, run on
    just those pairs.
    """
    if za.shape[-1] == 3:
        rho = _qcp_distances(za, zb)
    else:
        rho = np.full(len(za), np.nan)
    rest = np.flatnonzero(np.isnan(rho))
    if rest.size:
        a, b = za[rest], zb[rest]
        rho[rest] = _geodesic(a, b, *_align(a, b))
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
    ``arccos(s)``; the range is capped at pi/2 either way. Near pairs take
    the chord form of :func:`_chord_distances` instead. For m = 3, ``s`` is
    the largest eigenvalue of Horn's quaternion matrix, and a near pair's
    rotation comes from its eigenvector (:func:`_qcp_distances`); the SVD
    serves the pairs where either is ill-conditioned, and other m. A pair
    gets the bits it gets in any block of a distance build.
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
    pole by the SVD evaluation (:func:`_align`, :func:`_geodesic`), so
    distances to the pole are preserved exactly against that evaluation and
    within 1e-12 of :func:`procrustes_distance`; a shape equal to the pole
    maps to zeros.

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


# --- manifold backends -------------------------------------------------------

# Fewest pairs of a distance build worth a worker process of their own:
# smaller builds, such as every macaque build, the 4005 pairs of a 90-row set
# and both builds of a 300-row set with 100 queries, stay serial (see the
# README).
SLAB_PAIRS = 32768

# Most preshape values ((k-1) m per pair) in one block of a distance build:
# 1149 pairs of k = 20 shapes, 445 of k = 50. A block's fixed cost, some 250 numpy
# calls, is then small beside its pairs, and its temporaries stay below the
# n x n outputs of a 300-point pairwise build (see the README).
BLOCK_VALUES = 2 ** 16

# Names the distance evaluation of `_distances`, so that `io.ingest` rebuilds a
# distance cache written by another: QCP for far pairs of 3-D shapes, Horn's
# rotation for their chord pairs, the SVD for the rest. A change that moves
# any distance's bits gives it a new name.
DISTANCE_KERNEL = "qcp-horn-svd"

# Process-wide count of the pairwise-matrix builds `io.ingest` makes, keyed by
# the dataset's content hash: a dataset's matrix is computed exactly once.
MATRIX_BUILD_COUNTS: dict[str, int] = {}


def _pair_distances(a: NDArray, b: NDArray, upper: bool = False) -> NDArray:
    """Distances of the pairs ``(a[i], b[j])`` of two preshape stacks, in
    row-major order: every ``j``, or, when ``upper`` (``a`` is then ``b``),
    every ``j > i``.

    The pairs are cut into blocks of about one size, as few as hold at most
    :data:`BLOCK_VALUES` preshape values each, and about as many as workers
    when that is more. Each block is one :func:`_distances` call and one
    task of :func:`_workers.run`, so block ``t`` runs on worker ``t mod w``
    and comes back in place. The blocks go to forked worker processes when
    each worker gets at least :data:`SLAB_PAIRS` pairs. A pair gets the
    same bits in any block.
    """
    lengths = len(b) - np.arange(1, len(a) + 1) * upper
    starts = np.concatenate(([0], np.cumsum(lengths)))
    total = int(starts[-1])
    workers = _workers.count(total // SLAB_PAIRS)
    count = max(workers, -(-total * b.shape[1] * b.shape[2] // BLOCK_VALUES))
    size = max(1, -(-total // count))   # all blocks of about one size

    def block(first):
        pair = np.arange(first, min(first + size, total))
        i = np.searchsorted(starts, pair, side="right") - 1
        return _distances(a[i], b[pair - starts[i] + (i + 1) * upper])

    blocks = [partial(block, first) for first in range(0, total, size)]
    return np.concatenate([np.empty(0), *_workers.run(blocks, workers)])


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

        Both are symmetric with exactly zero diagonals. The pairs of the
        upper triangle are measured in blocks (see :func:`_pair_distances`).
        """
        z = self._stack(points)
        upper = np.triu(np.ones((len(z), len(z)), dtype=bool), 1)
        dist = np.zeros(upper.shape)
        dist[upper] = dist.T[upper] = _pair_distances(z, z, upper=True)
        del z, upper   # freed before the log densities' n x n temporaries
        logdens = self.log_density_at(dist)
        np.fill_diagonal(logdens, 0.0)
        return dist, logdens

    def cross_distances(self, queries: list[PreShape],
                        points: list[PreShape]) -> NDArray:
        """``(Q, n)`` distances from each of ``queries`` to each of ``points``,
        each pair measured as in :meth:`pairwise_matrices`."""
        q, z = self._stack(queries), self._stack(points)
        return _pair_distances(q, z).reshape(len(q), len(z))

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
