"""The scalar quaternion-eigenvalue (QCP) loop, kept as the bit-for-bit
reference for :func:`shapegplm.geometry._qcp_distances`, and the accuracy of
that kernel against the SVD loop of ``test_reference_geometry.py``.

The reference runs one pair at a time over plain Python floats, in the
kernel's order of operations, from the pair's ``zb^T za``: the eigenvalue
for every pair, and for a chord pair also the rotation from Horn's
quaternion. Every 3-D distance of a build, alone, in a block or on a forked
worker, must equal it exactly; every one must lie within 1e-12 of the SVD
loop (``SVD_TOL``).
"""

import math

import numpy as np
import pytest

from shapegplm import (
    KendallShapeBackend,
    PreShape,
    _workers,
    geometry,
    preshape,
    procrustes_distance,
)
from shapegplm.geometry import (
    _CHORD_SWITCH,
    _QCP_CONDITION,
    _ROTATION_CONDITION,
    _qcp_distances,
)

from conftest import assert_no_child_left, random_rotation
from test_reference_geometry import (
    assert_near_svd,
    ref_distance_pair,
    ref_pairwise_matrices,
    synthetic_k20,
)

EPS = float(np.finfo(float).eps)


# --- the reference ------------------------------------------------------------

def ieee_div(num: float, den: float) -> float:
    """``num / den`` as IEEE 754 divides, where Python raises on zero."""
    if den != 0.0 or math.isnan(den):
        return num / den
    if num == 0.0 or math.isnan(num):
        return math.nan
    return math.copysign(math.inf, num) * math.copysign(1.0, den)


OTHERS = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]


def ref_horn_rotation(c, s: float):
    """The rotation of a chord pair from the null vector of Horn's ``K - sI``:
    the 4-D cross product of three of its columns, the choice of largest
    norm (the first of equals), or None when that norm is under
    :data:`_ROTATION_CONDITION`."""
    (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = c
    a = [[c00 + c11 + c22 - s, c21 - c12, c02 - c20, c10 - c01],
         [c21 - c12, c00 - c11 - c22 - s, c01 + c10, c02 + c20],
         [c02 - c20, c01 + c10, c11 - c00 - c22 - s, c12 + c21],
         [c10 - c01, c02 + c20, c12 + c21, c22 - c00 - c11 - s]]
    crosses, norms = [], []
    for column in range(4):
        u, v, w = ([a[r][o] for r in range(4)] for o in OTHERS[column])
        cross = []
        for r, (i, j, k) in enumerate(OTHERS):
            x = (u[i] * (v[j] * w[k] - v[k] * w[j]) - u[j] * (v[i] * w[k] - v[k] * w[i])
                 + u[k] * (v[i] * w[j] - v[j] * w[i]))
            cross.append(-x if r % 2 else x)
        crosses.append(cross)
        norms.append(math.sqrt(cross[0] * cross[0] + cross[1] * cross[1]
                               + cross[2] * cross[2] + cross[3] * cross[3]))
    best = int(np.argmax(norms))
    if not norms[best] >= _ROTATION_CONDITION:
        return None
    q0, q1, q2, q3 = (x / norms[best] for x in crosses[best])
    s0, s1, s2, s3 = q0 * q0, q1 * q1, q2 * q2, q3 * q3
    return np.array([
        [s0 + s1 - s2 - s3, 2.0 * (q1 * q2 - q0 * q3), 2.0 * (q1 * q3 + q0 * q2)],
        [2.0 * (q1 * q2 + q0 * q3), s0 - s1 + s2 - s3, 2.0 * (q2 * q3 - q0 * q1)],
        [2.0 * (q1 * q3 - q0 * q2), 2.0 * (q2 * q3 + q0 * q1), s0 - s1 - s2 + s3]])


def ref_qcp(z1, z2) -> tuple[str, float | None]:
    """``("qcp", rho)`` for a far pair the kernel measures by QCP, ``("chord",
    rho)`` for a near one it measures by the chord after Horn's rotation,
    else the reason it leaves the pair to the SVD: ``"non-finite"``,
    ``"steps"``, ``"condition"`` or ``"rotation"``."""
    c = (z2.T @ z1).tolist()
    (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = c
    gram = [[c[0][i] * c[0][j] + c[1][i] * c[1][j] + c[2][i] * c[2][j]
             for j in range(3)] for i in range(3)]
    col = [gram[0][j] * gram[0][j] + gram[1][j] * gram[1][j] + gram[2][j] * gram[2][j]
           for j in range(3)]
    norm2 = gram[0][0] + gram[1][1] + gram[2][2]
    c0 = 2.0 * (col[0] + col[1] + col[2]) - norm2 * norm2
    det = (c00 * (c11 * c22 - c12 * c21) + c01 * (c12 * c20 - c10 * c22)
           + c02 * (c10 * c21 - c11 * c20))
    a, b = 2.0 * norm2, 8.0 * det
    lam = min(math.sqrt(3.0 * norm2), 1.0)
    for _ in range(geometry._QCP_STEPS):
        l2 = lam * lam
        step = ieee_div(((l2 - a) * lam - b) * lam + c0, 4.0 * (l2 - norm2) * lam - b)
        lam = lam - step
        if not step > 4.0 * EPS * lam:
            s = lam
            break
    else:
        return "steps", None
    if not math.isfinite(s):
        return "non-finite", None
    if s > _CHORD_SWITCH:
        rotation = ref_horn_rotation(c, s)
        if rotation is None:
            return "rotation", None
        chord = 0.5 * np.linalg.norm(z1 - z2 @ rotation)
        return "chord", float(2.0 * np.arcsin(min(chord, 1.0)))
    s2 = s * s
    sin = math.sqrt(1.0 - s2)
    slope = 4.0 * (s2 - norm2) * s - b
    if not slope * sin >= _QCP_CONDITION * (s2 * s2):
        return "condition", None
    return "qcp", float(np.arcsin(sin))


def ref_qcp_distance_pair(z1, z2) -> float:
    """The kernel's distance of one pair: the QCP loop, or the SVD loop for
    the pairs QCP leaves to it; equal preshapes are 0."""
    if np.array_equal(z1, z2):
        return 0.0
    reason, rho = ref_qcp(z1, z2)
    return rho if reason in ("qcp", "chord") else ref_distance_pair(z1, z2)


# --- data ---------------------------------------------------------------------

def posed(configs, rng):
    """Each configuration moved by a random similarity."""
    return [rng.uniform(0.5, 2.0) * x @ random_rotation(rng) + rng.normal(size=3)
            for x in configs]


def collinear(rng, k):
    """Landmarks on one line, so ``zb^T za`` has rank 1."""
    return np.outer(rng.normal(size=k), rng.normal(size=3)) + rng.normal(size=3)


def shape_set(name):
    """A seeded list of 3-D preshapes of one kind."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name.startswith("random"):
        k = int(name.split("k")[1])
        configs = [rng.normal(size=(k, 3)) for _ in range(24)]
    elif name == "posed":
        configs = posed([rng.normal(size=(12, 3)) for _ in range(6)] * 4, rng)
    elif name == "planar":
        configs = [rng.normal(size=(12, 3)) * [1.0, 1.0, 0.0] for _ in range(12)]
        configs = posed(configs, rng) + configs
    elif name == "collinear":
        configs = posed([collinear(rng, 10) for _ in range(24)], rng)
    elif name == "near-collinear":
        base = [collinear(rng, 10) + 1e-2 * rng.normal(size=(10, 3)) for _ in range(6)]
        configs = posed(base + [x + 1e-7 * rng.normal(size=x.shape)
                                for x in base for _ in range(2)], rng)
    elif name == "mirrored":
        base = [rng.normal(size=(12, 3)) for _ in range(12)]
        configs = posed(base + [x @ np.diag([1.0, 1.0, -1.0]) for x in base], rng)
    elif name.startswith("near-duplicate"):
        scale = float(name.split()[1])
        base = [rng.normal(size=(12, 3)) for _ in range(8)]
        configs = posed(base + [x + scale * rng.normal(size=x.shape)
                                for x in base for _ in range(2)], rng)
    else:
        assert name == "exact-duplicate"
        configs = posed([rng.normal(size=(12, 3)) for _ in range(12)], rng)
        configs += configs[:6]
    return [preshape(x).preshape for x in configs]


SETS = ["random k7", "random k20", "random k50", "posed", "planar", "collinear",
        "near-collinear", "mirrored", "near-duplicate 1e-7", "near-duplicate 1e-4",
        "near-duplicate 3e-2", "exact-duplicate"]


def ref_rows(queries, points):
    """The kernel's query rows: each query is the first preshape of its pairs."""
    return np.array([[ref_qcp_distance_pair(q.z, s.z) for s in points]
                     for q in queries]).reshape(len(queries), len(points))


def reasons(points):
    """How the kernel measures each pair of ``points`` with distinct preshapes."""
    return [ref_qcp(a.z, b.z)[0] for i, a in enumerate(points) for b in points[i + 1:]
            if not np.array_equal(a.z, b.z)]


# --- bit for bit --------------------------------------------------------------

@pytest.mark.parametrize("name", SETS + ["synthetic k20"])
def test_kernel_matches_scalar_loop(name):
    points = synthetic_k20() if name == "synthetic k20" else shape_set(name)
    backend = KendallShapeBackend(k=points[0].k)
    dist, _ = backend.pairwise_matrices(points)
    ref, _ = ref_pairwise_matrices(backend, points, distance=ref_qcp_distance_pair)
    assert np.array_equal(dist, ref)
    rows = ref_rows(points[::4], points)
    assert np.array_equal(backend.cross_distances(points[::4], points), rows)
    assert [procrustes_distance(points[4], s) for s in points] == rows[1].tolist()


def test_macaque_matches_scalar_loop(macaque_bundle):
    backend, points = macaque_bundle.backend, macaque_bundle.shapes
    ref, _ = ref_pairwise_matrices(backend, points, distance=ref_qcp_distance_pair)
    assert np.array_equal(macaque_bundle.cache.dist, ref)
    assert np.array_equal(backend.pairwise_matrices(points)[0], ref)


def test_forked_blocks_match_scalar_loop(monkeypatch):
    """Blocks of seven pairs, cut across rows and dealt out to two workers,
    give the bits of the scalar loop."""
    monkeypatch.setattr(geometry, "SLAB_PAIRS", 1)
    monkeypatch.setenv("SHAPEGPLM_THREADS", "2")
    forks, run = [], _workers.run
    monkeypatch.setattr(_workers, "run", lambda tasks, w: (
        forks.append((len(tasks), min(w, len(tasks)))) or run(tasks, w)))
    for points in (synthetic_k20(), shape_set("collinear"), shape_set("random k7"),
                   shape_set("near-collinear"), shape_set("near-duplicate 1e-7")):
        monkeypatch.setattr(geometry, "BLOCK_VALUES", 7 * points[0].z.size)
        backend = KendallShapeBackend(k=points[0].k)
        ref, _ = ref_pairwise_matrices(backend, points, distance=ref_qcp_distance_pair)
        assert np.array_equal(backend.pairwise_matrices(points)[0], ref)
        assert np.array_equal(backend.cross_distances(points[1::3], points),
                              ref_rows(points[1::3], points))
    assert len(forks) == 10
    assert all(tasks > len(points) // 7 and workers == 2 for tasks, workers in forks)
    assert_no_child_left()


# --- accuracy against the SVD -------------------------------------------------

@pytest.mark.parametrize("name", SETS)
def test_within_tolerance_of_svd(name):
    points = shape_set(name)
    backend = KendallShapeBackend(k=points[0].k)
    dist, _ = backend.pairwise_matrices(points)
    ref, _ = ref_pairwise_matrices(backend, points)
    assert_near_svd(dist, ref)
    assert dist.min() >= 0.0 and dist.max() <= np.pi / 2
    equal = np.array([[np.array_equal(a.z, b.z) for b in points] for a in points])
    assert np.array_equal(dist == 0.0, equal)


@pytest.mark.parametrize("name", ["random k7", "random k20", "random k50", "posed",
                                  "mirrored"])
def test_far_pairs_of_general_sets_take_qcp(name):
    """Every pair of a general set is measured by QCP, the near duplicates of
    the pose-only set excepted. (Planar sets can hold pairs whose top two
    roots nearly meet, which the condition test leaves to the SVD.)"""
    assert set(reasons(shape_set(name))) == ({"qcp", "chord"} if name == "posed"
                                             else {"qcp"})


def test_near_duplicates_take_the_chord():
    """Near copies are left to the chord branch, also at 3e-2, where some lie
    just inside ``s > _CHORD_SWITCH`` with a root the condition test would
    trust."""
    for scale in ("1e-7", "1e-4", "3e-2"):
        assert {"qcp", "chord"} == set(reasons(shape_set(f"near-duplicate {scale}")))


# --- the fallback ---------------------------------------------------------------

def pair_kernel(points):
    """:func:`_qcp_distances` of every pair ``i < j`` of ``points``."""
    z = np.array([p.z for p in points])
    i, j = np.triu_indices(len(z), 1)
    return _qcp_distances(z[i], z[j])


@pytest.mark.filterwarnings("error")
def test_collinear_pairs_fall_back_to_the_svd():
    """Collinear shapes make the quartic's largest root double, where no
    root Newton's method stops at can be trusted: the condition test leaves
    every pair to the SVD, which then measures it bit for bit as the SVD
    loop does."""
    points = shape_set("collinear")
    assert set(reasons(points)) == {"condition"}
    assert np.isnan(pair_kernel(points)).all()
    backend = KendallShapeBackend(k=points[0].k)
    assert np.array_equal(backend.pairwise_matrices(points)[0],
                          ref_pairwise_matrices(backend, points)[0])


@pytest.mark.filterwarnings("error")
def test_near_collinear_chord_pairs_fall_back_to_the_svd():
    """Near copies of nearly collinear shapes are chord pairs whose top root
    nearly meets the next one, so Horn's quaternion is ill-conditioned: the
    rotation test leaves such pairs to the SVD, which measures them bit for
    bit as the SVD loop does, and no floating-point warning escapes."""
    points = shape_set("near-collinear")
    z = np.array([p.z for p in points])
    i, j = np.triu_indices(len(z), 1)
    why = [ref_qcp(z[a], z[b])[0] for a, b in zip(i, j)]
    assert {"chord", "rotation"} <= set(why)
    dist = KendallShapeBackend(k=10).pairwise_matrices(points)[0]
    back = [k for k, reason in enumerate(why) if reason == "rotation"]
    assert np.isnan(pair_kernel(points)[back]).all()
    assert [dist[i[k], j[k]] for k in back] == [ref_distance_pair(z[i[k]], z[j[k]])
                                                for k in back]


def test_horn_rotations_are_the_svd_rotations():
    """The rotation of every chord pair of the general and near-duplicate sets
    is trusted and lies within 1e-12 of the SVD's, entry by entry."""
    for name in ("posed", "near-duplicate 1e-7", "near-duplicate 1e-4",
                 "near-duplicate 3e-2"):
        z = np.array([p.z for p in shape_set(name)])
        i, j = np.triu_indices(len(z), 1)
        za, zb = z[i], z[j]
        s, rotation = geometry._align(za, zb)
        chord = (s > _CHORD_SWITCH) & np.any(za != zb, axis=(1, 2))
        c = np.matmul(zb.transpose(0, 2, 1), za)[chord]
        trusted, horn = geometry._horn_rotations(c.reshape(-1, 9).T, s[chord])
        assert chord.sum() > 0 and trusted.all()
        assert np.abs(horn - rotation[chord]).max() <= 1e-12


@pytest.mark.filterwarnings("error")
def test_non_finite_iterates_fall_back_to_the_svd():
    """Preshapes on disjoint rows have ``zb^T za = 0``, so the first Newton
    step is 0 / 0. A non-finite iterate is left to the SVD, which puts the
    pair pi/2 apart, and no floating-point warning escapes the kernel."""
    rng = np.random.default_rng(4)
    points = []
    for rows in (slice(0, 3), slice(3, 7), slice(0, 3), slice(4, 7)):
        z = np.zeros((7, 3))
        z[rows] = rng.normal(size=z[rows].shape)
        points.append(PreShape(z / np.linalg.norm(z)))
    assert reasons(points[:2]) == reasons(points[2:]) == ["non-finite"]
    backend = KendallShapeBackend(k=8)
    dist = backend.pairwise_matrices(points)[0]
    assert dist[0, 1] == dist[0, 3] == dist[1, 2] == dist[2, 3] == np.pi / 2
    assert np.array_equal(dist, ref_pairwise_matrices(backend, points,
                                                      distance=ref_qcp_distance_pair)[0])
    assert np.isnan(pair_kernel(points)[[0, 2, 3, 5]]).all()


def test_pairs_out_of_steps_fall_back_to_the_svd(monkeypatch):
    """A pair whose iterate has not stopped after :data:`_QCP_STEPS` steps is
    left to the SVD (the reference's pair distance for it is the SVD loop's)."""
    monkeypatch.setattr(geometry, "_QCP_STEPS", 8)
    points = shape_set("random k7")
    why = reasons(points)
    assert 0 < why.count("steps") < len(why)
    backend = KendallShapeBackend(k=7)
    assert np.array_equal(backend.pairwise_matrices(points)[0],
                          ref_pairwise_matrices(backend, points,
                                                distance=ref_qcp_distance_pair)[0])


def test_stop_rule_accepts_ulp_stalls():
    """Rounding can leave Newton's iterate one ulp either side of the root,
    each step undoing the last. The stop rule ends such a pair at its first
    step that does not descend, so none of 1000 random pairs at each k runs
    out of steps and every one is measured by QCP."""
    rng = np.random.default_rng(11)
    for k in (7, 20):
        z = np.array([preshape(rng.normal(size=(k, 3))).preshape.z for _ in range(1000)])
        assert [ref_qcp(z[i], z[i - 1])[0] for i in range(1000)] == ["qcp"] * 1000
        rest = np.roll(z, 1, axis=0)
        assert not np.isnan(_qcp_distances(z, rest)).any()
