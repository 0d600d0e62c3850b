"""The one-pair Procrustes alignment and the loops built on it, kept as the
reference for the stacked alignment kernel in :mod:`shapegplm.geometry`.

The kernel does each pair's arithmetic in the same order as the one-pair
evaluation, so every mean and tangent vector, and every distance of planar
(m = 2) shapes, must agree exactly, not to a tolerance, also when the
distance blocks run on forked worker processes. Distances of 3-D shapes come
from Horn's quaternion matrix for most pairs: they must agree with the SVD
loop here within :data:`SVD_TOL`, and bit for bit with the scalar QCP loop of
``test_reference_qcp.py``. A memory check keeps the pairwise build in
small blocks.
"""

import tracemalloc

import numpy as np
import pytest

from shapegplm import (
    KendallShapeBackend,
    PreShape,
    _workers,
    geometry,
    preshape,
    procrustes_distance,
    procrustes_mean,
    tangent_coordinates,
)
from shapegplm.errors import (
    DegenerateConfigurationError,
    InvalidArgumentError,
    OutOfChartError,
)
from shapegplm.geometry import _CHORD_SWITCH, _check_same_shape

from conftest import assert_no_child_left, random_rotation


def ref_align_and_sum(z1, z2):
    """Signed singular-value sum of ``z1^T z2`` and the SO(m) rotation that
    realises it.

    ``s`` is the sum of the square roots of the eigenvalues of
    ``z1^T z2 z2^T z1`` with the smallest negated exactly when
    ``det(z1^T z2) < 0``; ``R`` maximises ``<z1, z2 R>`` over rotations
    (reflections never allowed), and that maximum equals ``s``.
    """
    c = z2.T @ z1
    u, lam, vt = np.linalg.svd(c)
    det_sign = np.sign(np.linalg.det(u) * np.linalg.det(vt))
    s = float(lam.sum() if det_sign >= 0 else lam.sum() - 2.0 * lam[-1])
    flip = np.ones(c.shape[0])
    flip[-1] = det_sign if det_sign != 0 else 1.0
    rotation = (u * flip) @ vt
    return s, rotation


def ref_distance_from_sum(s: float) -> float:
    s = min(max(s, -1.0), 1.0)
    arg = 1.0 - s * s
    if arg < 0.0:
        arg = 0.0
    elif arg > 1.0:
        arg = 1.0
    return float(np.arcsin(np.sqrt(arg)))


def ref_distance_pair(z1, z2) -> float:
    """Shape distance between two raw preshape arrays.

    Evaluates ``arcsin(sqrt(1 - s^2))``. Near ``s = 1`` that expression loses
    half the working precision (the subtraction leaves an O(sqrt(eps)) floor),
    so the same angle is then taken from the chord after optimal alignment,
    ``2 arcsin(||z1 - z2 R|| / 2)``, which is exact to full precision for
    small separations.
    """
    if z1 is z2 or np.array_equal(z1, z2):
        return 0.0
    s, rotation = ref_align_and_sum(z1, z2)
    if s <= _CHORD_SWITCH:
        return ref_distance_from_sum(s)
    chord = 0.5 * np.linalg.norm(z1 - z2 @ rotation)
    return float(2.0 * np.arcsin(min(chord, 1.0)))


def ref_pairwise_matrices(backend, points, distance=ref_distance_pair):
    n = len(points)
    dist = np.zeros((n, n))
    for i in range(n):
        zi = points[i].z
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = distance(zi, points[j].z)
    return dist, log_densities(backend, dist)


def log_densities(backend, dist):
    """The log-density matrix of a distance matrix, with a zero diagonal."""
    logdens = backend.log_density_at(dist)
    np.fill_diagonal(logdens, 0.0)
    return logdens


# Largest |rho| difference allowed between a 3-D distance and the SVD loop
SVD_TOL = 1e-12


def assert_near_svd(got, ref):
    """``got`` lies within :data:`SVD_TOL` of the SVD loop's ``ref``, entry by
    entry, and exact zeros stay exact."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max(initial=0.0) <= SVD_TOL
    assert np.array_equal(got == 0.0, ref == 0.0)


def assert_exact(got, ref):
    assert np.array_equal(got, ref)


def ref_procrustes_mean(shapes, tol=1e-9, max_iter=200, initial=None):
    """Full Procrustes mean by iterative align-average-renormalise."""
    if not shapes:
        raise InvalidArgumentError("procrustes_mean requires a nonempty list")
    for s in shapes[1:]:
        _check_same_shape(shapes[0], s)
    if len(shapes) == 1 and initial is None:
        return shapes[0]
    mean = initial if initial is not None else shapes[0]
    _check_same_shape(shapes[0], mean)
    for _ in range(max_iter):
        acc = np.zeros_like(mean.z)
        for s in shapes:
            ssum, rotation = ref_align_and_sum(mean.z, s.z)
            # optimal similarity fit of s onto the mean scales by <mean, s R>
            acc += ssum * (s.z @ rotation)
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


def ref_tangent_coordinates(pole, s):
    """Coordinates of ``s`` in the tangent space at ``pole``."""
    _check_same_shape(pole, s)
    if pole.z is s.z or np.array_equal(pole.z, s.z):
        return np.zeros(pole.z.size)
    ssum, rotation = ref_align_and_sum(pole.z, s.z)
    zs = s.z @ rotation
    cosr = min(max(ssum, -1.0), 1.0)
    if cosr > _CHORD_SWITCH:
        rho = float(2.0 * np.arcsin(min(0.5 * np.linalg.norm(pole.z - zs), 1.0)))
    else:
        rho = ref_distance_from_sum(cosr)
    if cosr <= 0.0 or rho >= np.pi / 2:
        raise OutOfChartError(
            f"shape at distance {rho:.6f} >= pi/2 from the pole")
    resid = zs - cosr * pole.z
    rnorm = np.linalg.norm(resid)
    if rnorm < 1e-300:
        return np.zeros(pole.z.size)
    return (rho / rnorm) * resid.ravel()


# --- data --------------------------------------------------------------------

K_SYNTH = 20


def synthetic_k20():
    """Seeded k=20 shapes with every branch of the kernel: clusters of near
    copies (chord branch), mirror images (negative determinant), planar
    configurations and exact duplicates (distance exactly 0), each in a
    random pose."""
    rng = np.random.default_rng(42)
    mirror = np.diag([1.0, 1.0, -1.0])
    configs = []
    for _ in range(6):
        base = rng.normal(size=(K_SYNTH, 3))
        configs.append(base)
        configs += [base + scale * rng.normal(size=base.shape)
                    for scale in (1e-7, 1e-4, 1e-2, 0.1)]
        configs.append(base @ mirror)
        configs.append(base @ mirror + 1e-3 * rng.normal(size=base.shape))
    planar = rng.normal(size=(K_SYNTH, 3))
    planar[:, 2] = 0.0
    configs += [planar, planar + 1e-5 * rng.normal(size=planar.shape) * [1, 1, 0]]
    posed = [rng.uniform(0.5, 2.0) * x @ random_rotation(rng) + rng.normal(size=3)
             for x in configs]
    posed += [posed[0], posed[9], posed[-1]]   # exact duplicates
    return [preshape(x).preshape for x in posed]


def orthogonal_to(pole: PreShape) -> PreShape:
    """A preshape exactly pi/2 from ``pole``: its columns span directions
    orthogonal to every column of the pole, so ``z^T pole = 0``."""
    q, _ = np.linalg.qr(np.hstack([pole.z, np.eye(pole.z.shape[0])]))
    z = q[:, pole.m:2 * pole.m]
    return PreShape(z / np.linalg.norm(z))


@pytest.fixture(scope="module")
def synth():
    return synthetic_k20()


# --- exactness ---------------------------------------------------------------

def test_synthetic_set_covers_every_branch(synth):
    pairs = [(a.z, b.z) for i, a in enumerate(synth) for b in synth[i + 1:]]
    sums = [ref_align_and_sum(za, zb)[0] for za, zb in pairs]
    dets = [np.linalg.det(zb.T @ za) for za, zb in pairs]
    equal = [np.array_equal(za, zb) for za, zb in pairs]
    assert sum(s > _CHORD_SWITCH for s, e in zip(sums, equal) if not e) >= 20
    assert sum(d < 0 for d in dets) >= 100
    assert sum(equal) == 3


@pytest.mark.parametrize("data", ["macaque", "synthetic"])
def test_pairwise_matrices_match_reference(data, macaque_bundle, synth):
    if data == "macaque":
        points, backend = macaque_bundle.shapes, macaque_bundle.backend
    else:
        points, backend = synth, KendallShapeBackend(k=K_SYNTH)
    dist, logdens = backend.pairwise_matrices(points)
    ref_dist, _ = ref_pairwise_matrices(backend, points)
    assert_near_svd(dist, ref_dist)
    assert np.array_equal(logdens, log_densities(backend, dist))
    if data == "synthetic":
        n = len(points)
        for i, j in ((0, n - 3), (9, n - 2), (n - 4, n - 1)):
            assert dist[i, j] == 0.0 and dist[j, i] == 0.0
        assert np.count_nonzero(dist) == n * (n - 1) - 6


@pytest.mark.parametrize("data", ["macaque", "synthetic"])
def test_distances_to_and_scalar_distance_match_reference(data, macaque_bundle, synth):
    if data == "macaque":
        points, backend = macaque_bundle.shapes, macaque_bundle.backend
    else:
        points, backend = synth, KendallShapeBackend(k=K_SYNTH)
    for q in points[::3]:
        ref = np.array([ref_distance_pair(q.z, s.z) for s in points])
        row = backend.distances_to(q, points)
        assert_near_svd(row, ref)
        # a pair alone gets the bits it gets in a row
        assert [procrustes_distance(q, s) for s in points] == row.tolist()


@pytest.mark.parametrize("data", ["macaque", "synthetic"])
def test_leave_two_out_means_and_tangents_match_reference(data, macaque_bundle, synth):
    points = macaque_bundle.shapes if data == "macaque" else synth
    n = len(points)
    for drop in ((0, 1), (4, 11), (n - 2, n - 1)):
        train = [s for i, s in enumerate(points) if i not in drop]
        mean = procrustes_mean(train)
        ref = ref_procrustes_mean(train)
        assert np.array_equal(mean.z, ref.z)
        for s in points:
            assert np.array_equal(tangent_coordinates(mean, s),
                                  ref_tangent_coordinates(ref, s))
        far = orthogonal_to(mean)
        with pytest.raises(OutOfChartError):
            ref_tangent_coordinates(ref, far)
        with pytest.raises(OutOfChartError):
            tangent_coordinates(mean, far)
    seeded = procrustes_mean(points, initial=points[5], max_iter=3)
    assert np.array_equal(seeded.z, ref_procrustes_mean(points, initial=points[5],
                                                        max_iter=3).z)


# --- memory ------------------------------------------------------------------

def test_pairwise_build_stays_in_small_blocks(monkeypatch):
    """The build measures blocks of at most ``geometry.BLOCK_VALUES``
    preshape values, fewer pairs the larger k, so its traced peak stays a
    small multiple of the two ``n x n`` outputs at every k, and the preshape
    stack and blocks are gone before the log densities are taken. Blocks of
    a fixed thousand pairs break the bound at k = 50."""
    monkeypatch.setenv("SHAPEGPLM_THREADS", "1")  # traced in this process
    n = 300
    for k in (K_SYNTH, 50):
        rng = np.random.default_rng(7)
        points = [preshape(rng.normal(size=(k, 3))).preshape for _ in range(n)]
        backend = KendallShapeBackend(k=k)
        tracemalloc.start()
        try:
            dist, logdens = backend.pairwise_matrices(points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dist.shape == logdens.shape == (n, n)
        assert peak <= 6 * n * n * 8, f"k={k}: peak {peak / 1e6:.2f} MB"


# --- forked builds -----------------------------------------------------------

def planar_k6():
    """Seeded m = 2 shapes with near copies and exact duplicates."""
    rng = np.random.default_rng(3)
    base = [rng.normal(size=(6, 2)) for _ in range(8)]
    configs = base + [b + 1e-7 * rng.normal(size=b.shape) for b in base[:4]] + base[:2]
    return [preshape(x).preshape for x in configs]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_forked_builds_match_reference(workers, monkeypatch, synth):
    """With one pair a slab, every build of two or more pairs deals its
    blocks out to the workers; each distance still matches the per-pair
    loop, within
    :data:`SVD_TOL` for 3-D shapes and bit for bit for planar ones, down to
    empty builds and query sets."""
    monkeypatch.setattr(geometry, "SLAB_PAIRS", 1)
    monkeypatch.setenv("SHAPEGPLM_THREADS", workers)
    forks, run = [], _workers.run
    monkeypatch.setattr(_workers, "run", lambda tasks, w: (
        forks.append(min(w, len(tasks))) or run(tasks, w)))
    for points, backend in ((synth, KendallShapeBackend(k=K_SYNTH)),
                            (planar_k6(), KendallShapeBackend(k=6, m=2))):
        same = assert_exact if backend.m == 2 else assert_near_svd
        for n in (0, 1, 2, 3, len(points)):
            dist, logdens = backend.pairwise_matrices(points[:n])
            ref_dist, _ = ref_pairwise_matrices(backend, points[:n])
            same(dist, ref_dist)
            assert np.array_equal(logdens, log_densities(backend, dist))
            for queries in ([], points[-1:], points[::3]):
                ref = np.array([[ref_distance_pair(q.z, s.z) for s in points[:n]]
                                for q in queries]).reshape(len(queries), n)
                same(backend.cross_distances(queries, points[:n]), ref)
    assert max(forks) == int(workers)
    assert_no_child_left()
