"""The one-sample Procrustes mean and the one-shape tangent map that the
stacked baseline path replaces, kept as its references.

``procrustes_mean`` sweeps many samples in one kernel call per sweep,
``tangent_coordinates`` maps a list of shapes in one call, and
``baseline_loocv`` takes the poles of every fold of one training size from
one stacked call. Each must give the bits of the references below, not
values within a tolerance: the baseline CSVs are compared byte for byte.
"""

import tracemalloc

import numpy as np
import pytest

from shapegplm import (
    PreShape,
    baseline_loocv,
    baselines,
    geometry,
    ingest,
    procrustes_mean,
    tangent_coordinates,
    tangent_pca,
)
from shapegplm.errors import (
    DegenerateConfigurationError,
    InvalidArgumentError,
    OutOfChartError,
)
from shapegplm.geometry import _align, _check_same_shape, _geodesic
from shapegplm.io import DatasetBundle

from conftest import REPO_ROOT, random_preshape
from test_reference_geometry import orthogonal_to, synthetic_k20
from test_stacked_folds import assert_same_report


# --- the references ------------------------------------------------------------

def ref_mean_and_sweeps(shapes, tol=1e-9, max_iter=200, initial=None):
    """One sample's Procrustes mean, one kernel call over the sample per
    sweep, and the number of sweeps it took."""
    if not shapes:
        raise InvalidArgumentError("procrustes_mean requires a nonempty list")
    for s in shapes[1:]:
        _check_same_shape(shapes[0], s)
    if len(shapes) == 1 and initial is None:
        return shapes[0], 0
    mean = initial if initial is not None else shapes[0]
    _check_same_shape(shapes[0], mean)
    zs = np.array([s.z for s in shapes])
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        ssum, rotation = _align(np.broadcast_to(mean.z, zs.shape), zs)
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
    return mean, sweeps


def ref_procrustes_mean(shapes, **kwargs):
    return ref_mean_and_sweeps(shapes, **kwargs)[0]


def ref_tangent_coordinates(pole, s):
    """One shape's tangent vector, from a kernel call on a stack of one."""
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
    resid = s.z @ rotation[0] - cosr * pole.z
    rnorm = np.linalg.norm(resid)
    if rnorm < 1e-300:
        return np.zeros(pole.z.size)
    return (rho / rnorm) * resid.ravel()


def ref_project(model, s):
    """One shape's scores, a 1-d vector times the basis."""
    v = ref_tangent_coordinates(model.pole, s)
    return (v - model.center) @ model.components[: model.retained].T


def route_through_references(monkeypatch):
    """Send the baseline through the references: one mean per sample, one
    tangent call per shape and one projection per held-out shape."""
    def means(shapes, **kwargs):
        if isinstance(shapes[0], PreShape):
            return ref_procrustes_mean(shapes, **kwargs)
        return [ref_procrustes_mean(sample, **kwargs) for sample in shapes]

    def tangents(pole, shapes):
        if isinstance(shapes, PreShape):
            return ref_tangent_coordinates(pole, shapes)
        return np.array([ref_tangent_coordinates(pole, s) for s in shapes])

    def project(model, shapes):
        return np.array([ref_project(model, s) for s in shapes])

    monkeypatch.setattr(baselines, "procrustes_mean", means)
    monkeypatch.setattr(baselines, "tangent_coordinates", tangents)
    monkeypatch.setattr(baselines.TangentPcaModel, "project", project)


# --- data ------------------------------------------------------------------------

@pytest.fixture(scope="module")
def compare_bundle(tmp_path_factory):
    """The benchmark's ``ordinal_compare`` data, seed 1: 45 subjects of two
    rows, k = 7."""
    with pytest.MonkeyPatch.context() as m:
        m.syspath_prepend(str(REPO_ROOT / "bench"))
        import workloads as wl
    dest = tmp_path_factory.mktemp("ordinal-compare")
    data = wl.generate(wl.WORKLOADS["full"]["ordinal_compare"], 1, dest)
    return ingest(data["train"]["manifest"], cache_dir=dest / "cache")


@pytest.fixture()
def bundle(request, compare_bundle, macaque_bundle):
    return compare_bundle if request.param == "ordinal_compare" else macaque_bundle


def folds(bundle):
    """Leave-one-subject-out ``(held, train)`` row indices."""
    subjects = np.asarray(bundle.subjects)
    return [(np.flatnonzero(subjects == s), np.flatnonzero(subjects != s))
            for s in dict.fromkeys(bundle.subjects)]


def mixed_subjects(bundle):
    """``bundle`` with subjects of 1, 2 and 3 rows in turn, so folds have
    three training sizes."""
    sizes = [1, 2, 3] * len(bundle.ids)
    subjects = [f"m{j}" for j, size in enumerate(sizes) for _ in range(size)]
    return DatasetBundle(
        ids=bundle.ids, subjects=subjects[:len(bundle.ids)], y=bundle.y,
        x=bundle.x, covariate_names=bundle.covariate_names,
        response_type=bundle.response_type, samples=bundle.samples,
        backend=bundle.backend, cache=bundle.cache,
        content_hash=bundle.content_hash)


# --- exactness -------------------------------------------------------------------

@pytest.mark.parametrize("bundle", ["ordinal_compare", "macaque"], indirect=True)
def test_fold_poles_and_tangent_rows_match_reference(bundle):
    shapes = bundle.shapes
    trains = [[shapes[i] for i in train] for _, train in folds(bundle)]
    poles = procrustes_mean(trains)
    for (held, _), train, pole in zip(folds(bundle), trains, poles):
        ref = ref_procrustes_mean(train)
        assert np.array_equal(pole.z, ref.z)
        assert np.array_equal(procrustes_mean(train).z, ref.z)
        for rows in (train, [shapes[i] for i in held]):
            want = np.array([ref_tangent_coordinates(ref, s) for s in rows])
            assert np.array_equal(tangent_coordinates(pole, rows), want)
        assert np.array_equal(tangent_coordinates(pole, shapes[held[0]]), want[0])


@pytest.mark.parametrize("bundle", ["ordinal_compare", "macaque"], indirect=True)
def test_pca_scores_and_projections_match_reference(bundle, monkeypatch):
    shapes = bundle.shapes
    for held, train in folds(bundle)[::4]:
        train_shapes = [shapes[i] for i in train]
        model, scores = tangent_pca(train_shapes)
        given, given_scores = tangent_pca(train_shapes, pole=model.pole)
        with monkeypatch.context() as m:
            route_through_references(m)
            ref_model, ref_scores = tangent_pca(train_shapes)
        assert np.array_equal(model.pole.z, ref_model.pole.z)
        for a, b in ((model, ref_model), (given, ref_model)):
            assert np.array_equal(a.center, b.center)
            assert np.array_equal(a.components, b.components)
            assert a.retained == b.retained
        assert np.array_equal(scores, ref_scores)
        assert np.array_equal(given_scores, ref_scores)
        rows = [shapes[i] for i in held] + train_shapes[:5]
        want = np.array([ref_project(ref_model, s) for s in rows])
        assert np.array_equal(model.project(rows), want)
        assert np.array_equal(model.project(rows[0]), want[0])


@pytest.mark.parametrize("stacking", ["one fold a stack", "default cap", "two threads"])
def test_baseline_report_matches_reference(compare_bundle, monkeypatch, stacking):
    bundle = mixed_subjects(compare_bundle)
    assert len({len(train) for _, train in folds(bundle)}) == 3
    with monkeypatch.context() as m:
        route_through_references(m)
        want = baseline_loocv(bundle)
    assert sum(want.fit_status[0.0].values()) == len(folds(bundle))

    calls, stacks = [], []
    mean, sweeps, pca = baselines.procrustes_mean, geometry._mean_sweeps, baselines.tangent_pca

    def own_pole(shapes, var_threshold, pole):
        # the grouping must hand each fold the mean of its own training rows
        assert np.array_equal(pole.z, ref_procrustes_mean(shapes).z)
        return pca(shapes, var_threshold, pole)

    monkeypatch.setattr(baselines, "procrustes_mean",
                        lambda samples: calls.append(len(samples)) or mean(samples))
    monkeypatch.setattr(geometry, "_mean_sweeps",
                        lambda zs, *args: stacks.append(len(zs)) or sweeps(zs, *args))
    monkeypatch.setattr(baselines, "tangent_pca", own_pole)
    if stacking == "one fold a stack":
        monkeypatch.setattr(geometry, "MEAN_PAIRS", 1)
    monkeypatch.setenv("SHAPEGPLM_THREADS", "2" if stacking == "two threads" else "1")
    assert_same_report(baseline_loocv(bundle), want)
    assert sum(calls) == sum(stacks) == len(folds(bundle))
    if stacking == "one fold a stack":
        assert set(stacks) == {1}
    elif stacking == "default cap":
        assert len(calls) == 3   # one stacked call per training size
        assert max(stacks) == geometry.MEAN_PAIRS // 87 < max(calls)   # groups split


def test_out_of_chart_names_the_first_offender():
    shapes = synthetic_k20()
    pole = shapes[0]
    far = orthogonal_to(pole)
    with pytest.raises(OutOfChartError) as ref:
        ref_tangent_coordinates(pole, far)
    # shapes before the offender, equal to the pole or inside the chart, pass
    with pytest.raises(OutOfChartError) as got:
        tangent_coordinates(pole, [pole, *shapes[1:8], far, shapes[9]])
    assert str(got.value) == str(ref.value)
    with pytest.raises(OutOfChartError) as got:
        tangent_coordinates(pole, far)
    assert str(got.value) == str(ref.value)


def test_shapes_equal_to_the_pole_map_to_zero_rows():
    shapes = synthetic_k20()
    pole = shapes[0]
    rows = [shapes[1], pole, shapes[2], PreShape(pole.z.copy()), shapes[-3]]
    got = tangent_coordinates(pole, rows)
    assert np.array_equal(got, [ref_tangent_coordinates(pole, s) for s in rows])
    for i in (1, 3, 4):   # shapes[-3] duplicates shapes[0]
        assert not got[i].any() and not np.signbit(got[i]).any()
    assert np.array_equal(tangent_coordinates(pole, pole), np.zeros(pole.z.size))
    assert tangent_coordinates(pole, []).shape == (0, pole.z.size)


def test_single_shapes_and_seeded_means(rng):
    a, b, c, d = (random_preshape(rng) for _ in range(4))
    assert procrustes_mean([a]) is a
    assert procrustes_mean([[a], [b]]) == [a, b]
    seeded = procrustes_mean([[a], [b]], initial=[c, None])
    assert np.array_equal(seeded[0].z, ref_procrustes_mean([a], initial=c).z)
    assert seeded[1] is b
    assert np.array_equal(procrustes_mean([a], initial=c).z,
                          ref_procrustes_mean([a], initial=c).z)
    samples = [[a, b, c], [d, c, b], [b, a, d]]
    for max_iter in (0, 1, 3, 200):
        got = procrustes_mean(samples, initial=[d, None, a], max_iter=max_iter)
        for sample, seed, mean in zip(samples, [d, None, a], got):
            want = ref_procrustes_mean(sample, initial=seed, max_iter=max_iter)
            assert np.array_equal(mean.z, want.z)
    with pytest.raises(InvalidArgumentError, match="one length"):
        procrustes_mean([[a, b], [c]])
    with pytest.raises(InvalidArgumentError, match="nonempty"):
        procrustes_mean([[a], []])
    with pytest.raises(InvalidArgumentError, match="dimension mismatch"):
        procrustes_mean([[a, b], [random_preshape(rng, k=5)] * 2])


def test_each_sample_stops_at_its_own_sweep(rng, monkeypatch):
    """Samples that converge at different sweeps share stacks; each leaves
    the stack when it stops, so its mean is the one it gets alone."""
    anchor = random_preshape(rng)

    def sample(spread):
        z = anchor.z + rng.normal(0, spread, (12,) + anchor.z.shape)
        return [PreShape(v / np.linalg.norm(v)) for v in z]

    samples = [sample(spread) for spread in (1e-4, 0.3, 0.02, 0.6, 1e-3, 0.1)]
    refs = [ref_mean_and_sweeps(s) for s in samples]
    assert len({sweeps for _, sweeps in refs}) >= 3
    for cap in (12, 36, geometry.MEAN_PAIRS):
        monkeypatch.setattr(geometry, "MEAN_PAIRS", cap)
        for mean, (want, _) in zip(procrustes_mean(samples), refs):
            assert np.array_equal(mean.z, want.z)


# --- memory ----------------------------------------------------------------------

def test_peak_memory_is_bounded_by_the_pair_cap(rng):
    """A stacked mean holds about six ``(k-1) x m`` arrays per pair of a
    stack (5.9 times the stack's preshape bytes for the 45 folds of 88 shapes
    below), so its traced peak stays a small multiple of the cap. With the
    45 folds in one uncapped stack the peak was 3.3 MB, 3.7 times the
    bound."""
    anchor = random_preshape(rng)
    z = anchor.z + rng.normal(0, 0.1, (90,) + anchor.z.shape)
    pool = [PreShape(v / np.linalg.norm(v)) for v in z]
    samples = [pool[:2 * f] + pool[2 * f + 2:] for f in range(45)]
    tracemalloc.start()
    try:
        procrustes_mean(samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = 8 * geometry.MEAN_PAIRS * anchor.z.size * 8
    assert peak <= bound, f"peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"
