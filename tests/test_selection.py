import copy
import os
import tracemalloc

import numpy as np
import pytest

from shapegplm import (
    DegenerateDatasetError,
    FitConfig,
    InvalidArgumentError,
    KernelSpec,
    SmootherCache,
    SphereBackend,
    bandwidth_sweep,
    fit_logistic_plm,
    loocv,
    selection,
)
from shapegplm.cli import main
from shapegplm.io import DatasetBundle, ingest
from shapegplm.selection import CvReport

from conftest import REPO_ROOT, assert_no_child_left, sphere_points
from test_acceptance import synthetic_sphere_ordinal
from test_reference_fitters import assert_same_fit
from test_stacked_folds import assert_same_report, unequal_subjects_bundle
from test_workers import record_runs


def sphere_bundle(rng, n=30, n_classes=2, subjects=None):
    """Synthetic bundle over S^2 with latitude-driven labels."""
    backend = SphereBackend(d=2)
    pts = [p for p in sphere_points(rng, n)]
    lat = np.array([np.arccos(p[2]) for p in pts])
    if n_classes == 2:
        y = (lat > np.median(lat)).astype(float)
    else:
        y = (np.digitize(lat, np.quantile(lat, [1 / 3, 2 / 3])) + 1).astype(float)
    x = (lat + rng.normal(0, 0.3, n))[:, None]
    ids = [f"r{i}" for i in range(n)]
    subjects = subjects or ids
    dist, logdens = backend.pairwise_matrices(pts)
    cache = SmootherCache(dist=dist, logdens=logdens)
    return DatasetBundle(
        ids=ids, subjects=list(subjects), y=y, x=x,
        covariate_names=("lat_noisy",),
        response_type="binary" if n_classes == 2 else "ordinal3",
        samples=pts, backend=backend, cache=cache, content_hash="synthetic")


class TestLoocv:
    def test_macaque_pi100_is_perfect(self, macaque_bundle):
        rep = loocv(macaque_bundle, "logistic", KernelSpec(np.pi / 100))
        h = np.pi / 100
        assert rep.n_correct[h] == 18 and rep.n_evaluated[h] == 18
        assert rep.accuracy[h] == 100.0
        assert rep.confusion[h].sum() == 18
        assert np.all(rep.confusion[h].sum(axis=1) == [9, 9])

    def test_heldout_label_cannot_leak(self, macaque_bundle):
        b = macaque_bundle
        spec = KernelSpec(np.pi / 50)
        train = [i for i in range(18) if i != 4]
        shapes_tr = [b.shapes[i] for i in train]
        cache_tr = SmootherCache(dist=b.cache.dist[np.ix_(train, train)],
                                 logdens=b.cache.logdens[np.ix_(train, train)])
        fit_a = fit_logistic_plm(b.y[train], b.x[train], shapes_tr, spec,
                                 b.backend, cache=cache_tr)
        y_perturbed = b.y.copy()
        y_perturbed[4] = 1.0 - y_perturbed[4]
        fit_b = fit_logistic_plm(y_perturbed[train], b.x[train], shapes_tr,
                                 spec, b.backend, cache=cache_tr)
        assert np.array_equal(fit_a.beta, fit_b.beta)
        assert np.array_equal(fit_a.z_final, fit_b.z_final)

    def test_constant_model_gets_majority_share(self, rng):
        # identical shapes and a zero covariate: every fold predicts its
        # training majority, so accuracy equals the majority-class share
        bundle = sphere_bundle(rng, n=18)
        point = bundle.samples[0]
        bundle.samples = [point] * 18
        n = 18
        bundle.cache = SmootherCache(dist=np.zeros((n, n)),
                                     logdens=np.zeros((n, n)))
        bundle.y[:] = 0.0
        bundle.y[:6] = 1.0
        bundle.x[:] = 0.0
        rep = loocv(bundle, "logistic", KernelSpec(bandwidth=0.5))
        h = 0.5
        assert rep.accuracy[h] == pytest.approx(100 * 12 / 18)

    def test_skipped_folds_flagged(self, rng):
        bundle = sphere_bundle(rng, n=12)
        bundle.y[:] = 0.0
        bundle.y[3] = 1.0  # single positive: its fold must be skipped
        rep = loocv(bundle, "logistic", KernelSpec(bandwidth=0.8))
        h = 0.8
        assert rep.skipped_folds[h] == ["r3"]
        assert rep.n_evaluated[h] == 11

    def test_all_folds_skipped_raises(self, rng):
        bundle = sphere_bundle(rng, n=4,
                               subjects=["a", "a", "b", "b"])
        bundle.y[:] = [0.0, 0.0, 1.0, 1.0]
        with pytest.raises(DegenerateDatasetError):
            loocv(bundle, "logistic", KernelSpec(bandwidth=0.8))

    def test_response_is_checked_before_any_fold(self, macaque_bundle, monkeypatch):
        # the binary macaque labels: fit_ordinal_plm names the same problem
        monkeypatch.setattr(selection, "run_folds", None)
        with pytest.raises(InvalidArgumentError,
                           match=r"ordinal response must take values in \{1, 2, 3\}"):
            loocv(macaque_bundle, "ordinal", KernelSpec(np.pi / 40))
        bundle = copy.copy(macaque_bundle)
        bundle.y = macaque_bundle.y + 1.0
        with pytest.raises(InvalidArgumentError, match="logistic response must be 0/1"):
            loocv(bundle, "logistic", KernelSpec(np.pi / 40))

    def test_needs_three_rows(self, rng):
        bundle = sphere_bundle(rng, n=30)
        bundle.samples = bundle.samples[:2]
        with pytest.raises(Exception):
            loocv(bundle, "logistic", KernelSpec(bandwidth=0.5))

    def test_subject_grouping_counts_rows(self, rng):
        # children-style data: each subject contributes three rows
        n_subj = 12
        backend = SphereBackend(d=2)
        base = sphere_points(rng, n_subj)
        pts, ids, subjects, y, x = [], [], [], [], []
        for j in range(n_subj):
            lat = np.arccos(base[j][2])
            for r, size in enumerate((1.0, 2.0, 3.0)):
                pts.append(base[j])
                ids.append(f"s{j}g{r}")
                subjects.append(f"s{j}")
                y.append(1 + int(size > 1 + 2 * lat / np.pi) + int(size > 2.2 * lat / np.pi + 1.1))
                x.append([size])
        y = np.clip(np.asarray(y, float), 1, 3)
        # ensure all three classes exist
        y[0], y[1], y[2] = 1, 2, 3
        dist, logdens = backend.pairwise_matrices(pts)
        bundle = DatasetBundle(ids=ids, subjects=subjects, y=y,
                               x=np.asarray(x), covariate_names=("garment",),
                               response_type="ordinal3", samples=pts,
                               backend=backend,
                               cache=SmootherCache(dist=dist, logdens=logdens),
                               content_hash="children-style")
        rep = loocv(bundle, "ordinal", KernelSpec(bandwidth=0.6),
                    cfg=FitConfig(max_iter=150))
        h = 0.6
        assert rep.n_evaluated[h] == 3 * n_subj - sum(
            3 for _ in rep.skipped_folds[h])
        assert len({p.subject for p in rep.predictions}) == n_subj - len(
            rep.skipped_folds[h])


class TestThreadedFolds:
    def test_thread_count_env_var_preserves_results(self, macaque_bundle, monkeypatch):
        spec = KernelSpec(np.pi / 100)
        serial = loocv(macaque_bundle, "logistic", spec)
        # three capped stacks of the 18 macaque folds, so two workers share them
        monkeypatch.setattr(selection, "STACK_WEIGHTS", 6 * 17 ** 2)
        monkeypatch.setenv("SHAPEGPLM_THREADS", "2")
        threaded = loocv(macaque_bundle, "logistic", spec)
        h = spec.bandwidth
        assert serial.accuracy[h] == threaded.accuracy[h]
        assert [(p.row_id, p.predicted, p.probs) for p in serial.predictions] == \
            [(p.row_id, p.predicted, p.probs) for p in threaded.predictions]

    @pytest.mark.parametrize("threads", ["", " ", "1", "0", "-2"])
    def test_empty_or_small_thread_count_runs_serially(self, macaque_bundle,
                                                       monkeypatch, threads):
        spec = KernelSpec(np.pi / 25)
        serial = loocv(macaque_bundle, "logistic", spec)
        monkeypatch.setenv("SHAPEGPLM_THREADS", threads)
        # the macaque folds are one stack: no worker process is started
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("a worker was forked"))
        again = loocv(macaque_bundle, "logistic", spec)
        assert [(p.row_id, p.predicted, p.probs) for p in again.predictions] == \
            [(p.row_id, p.predicted, p.probs) for p in serial.predictions]


def paired_subjects_bundle(n):
    """Sphere ordinal data with two rows per subject."""
    b = synthetic_sphere_ordinal(n=n, seed=7)
    return DatasetBundle(
        ids=b.ids, subjects=[f"s{i // 2}" for i in range(n)], y=b.y, x=b.x,
        covariate_names=b.covariate_names, response_type=b.response_type,
        samples=b.samples, backend=b.backend, cache=b.cache,
        content_hash=b.content_hash)


class TestStackCap:
    def test_report_independent_of_a_splitting_cap(self, monkeypatch):
        bundle = paired_subjects_bundle(42)  # 21 folds of 40 training rows
        spec = KernelSpec(bandwidth=np.pi / 8)
        cfg = FitConfig(max_iter=40, irls_variant="standard")
        fit_stack = selection.fit_stack
        stacks = []

        def spy(model, y, *args):
            stacks.append(len(y))
            return fit_stack(model, y, *args)

        monkeypatch.setattr(selection, "fit_stack", spy)
        monkeypatch.setenv("SHAPEGPLM_THREADS", "1")  # the spy records here
        reports = {}
        for folds_per_stack in (1, 6, 21):
            monkeypatch.setattr(selection, "STACK_WEIGHTS", folds_per_stack * 40 ** 2)
            stacks.clear()
            reports[folds_per_stack] = loocv(bundle, "ordinal", spec, cfg)
            assert max(stacks) == folds_per_stack
        assert stacks == [21]
        monkeypatch.setattr(selection, "STACK_WEIGHTS", 6 * 40 ** 2 + 1)
        stacks.clear()
        split = loocv(bundle, "ordinal", spec, cfg)
        assert len(stacks) >= 3 and stacks[:-1] == [6] * (len(stacks) - 1)
        assert 0 < stacks[-1] < 6
        # folds converge or separate early, so stacks shrink while they run
        assert set(split.fit_status[spec.bandwidth]) == {
            "converged", "separation", "max_iter"}
        for report in reports.values():
            assert_same_report(report, split)

    def test_fit_stack_leaves_its_weights_as_given(self, monkeypatch):
        # folds stop mid-stack here, so the stack compacts its weights in place
        bundle = paired_subjects_bundle(42)
        spec = KernelSpec(bandwidth=np.pi / 8)
        fit_stack = selection.fit_stack
        calls = []

        def spy(model, y, x, w_smooth, spec, cfg=None):
            given = w_smooth.copy()
            fits = fit_stack(model, y, x, w_smooth, spec, cfg)
            assert np.array_equal(w_smooth, given)
            frozen = given.copy()
            frozen.flags.writeable = False
            again = fit_stack(model, y, x, frozen, spec, cfg)
            assert np.array_equal(frozen, given)
            calls.append(len(y))
            for a, b in zip(fits, again):
                assert_same_fit(a, b)
            return fits

        monkeypatch.setattr(selection, "fit_stack", spy)
        report = loocv(bundle, "ordinal", spec, FitConfig(max_iter=40, irls_variant="standard"))
        assert calls == [21]
        assert len(report.fit_status[spec.bandwidth]) > 1   # folds stopped apart

    def test_one_log_weight_matrix_per_bandwidth(self, macaque_bundle, monkeypatch):
        specs = [KernelSpec(bandwidth=h) for h in (np.pi / 50, np.pi / 25)]
        monkeypatch.setenv("SHAPEGPLM_THREADS", "1")  # the spies record here
        whole = loocv(macaque_bundle, "logistic", specs)
        log_weights, fit_stack = selection._log_weights, selection.fit_stack
        calls, stacks = [], []

        def log_spy(dist, logdens, spec):
            calls.append((np.shape(dist), spec.bandwidth))
            return log_weights(dist, logdens, spec)

        def stack_spy(model, y, x, w_smooth, spec, *args):
            stacks.append(spec.bandwidth)
            return fit_stack(model, y, x, w_smooth, spec, *args)

        monkeypatch.setattr(selection, "_log_weights", log_spy)
        monkeypatch.setattr(selection, "fit_stack", stack_spy)
        # 18 folds of 17 training rows: four stacks a bandwidth
        monkeypatch.setattr(selection, "STACK_WEIGHTS", 5 * 17 ** 2)
        split = loocv(macaque_bundle, "logistic", specs)
        assert stacks == [specs[0].bandwidth] * 4 + [specs[1].bandwidth] * 4
        assert calls == [((18, 18), s.bandwidth) for s in specs]
        assert_same_report(split, whole)

    def test_peak_memory_is_bounded_by_the_cap(self, monkeypatch):
        # Calibrated with a 2^16 cap, where the peak was 1.8 times the cap's
        # bytes at both bandwidths (1.6 times with 2^17). In the last case
        # folds stop mid-stack, which took 3.5 times while a stack compacted
        # into a copy of its weights. The 2^19 cap fits the 45 folds as one
        # stack; the peak is 1.45 times its weights' bytes, and 1.8 times in
        # the last case.
        bundle = paired_subjects_bundle(90)  # 45 folds of 88 training rows
        monkeypatch.setenv("SHAPEGPLM_THREADS", "1")  # traced in this process
        fit_stack, widest = selection.fit_stack, [0]

        def spy(model, y, x, w_smooth, *args):
            widest[0] = max(widest[0], w_smooth.size)
            return fit_stack(model, y, x, w_smooth, *args)

        monkeypatch.setattr(selection, "fit_stack", spy)
        for h, max_iter in ((np.pi / 20, 5), (np.pi / 80, 5), (np.pi / 80, 300)):
            widest[0] = 0
            tracemalloc.start()
            try:
                report = loocv(bundle, "ordinal", KernelSpec(bandwidth=h),
                               FitConfig(max_iter=max_iter))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # the bound the cap sets, and one that a raised cap cannot loosen
            assert widest[0] == 45 * 88 ** 2
            for bound in (3 * selection.STACK_WEIGHTS * 8, 3 * widest[0] * 8):
                assert peak <= bound, f"peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"
            if max_iter == 300:
                assert report.fit_status[h]["converged"] > 0
                assert report.fit_status[h]["max_iter"] > 0
                with monkeypatch.context() as m:
                    m.setattr(selection, "STACK_WEIGHTS", 88 ** 2)
                    assert_same_report(report, loocv(bundle, "ordinal",
                                                     KernelSpec(bandwidth=h),
                                                     FitConfig(max_iter=max_iter)))


class TestBandwidthSweep:
    def test_single_grid_matches_loocv(self, macaque_bundle):
        h = np.pi / 100
        a = loocv(macaque_bundle, "logistic", KernelSpec(h))
        b = bandwidth_sweep(macaque_bundle, "logistic", [h])
        assert a.accuracy[h] == b.accuracy[h]
        assert a.n_correct[h] == b.n_correct[h]

    def test_grid_order_irrelevant(self, macaque_bundle):
        g1 = [np.pi / 50, np.pi / 100]
        g2 = [np.pi / 100, np.pi / 50]
        r1 = bandwidth_sweep(macaque_bundle, "logistic", g1)
        r2 = bandwidth_sweep(macaque_bundle, "logistic", g2)
        assert r1.bandwidths == r2.bandwidths
        for h in r1.bandwidths:
            assert r1.accuracy[h] == r2.accuracy[h]

    def test_best_bandwidth_tie_goes_small(self, macaque_bundle):
        rep = bandwidth_sweep(macaque_bundle, "logistic",
                              [np.pi / 25, np.pi / 50])
        # both give 88.89%: the tie resolves toward the smaller h
        assert rep.best_bandwidth == np.pi / 50

    def test_empty_grid_rejected(self, macaque_bundle):
        with pytest.raises(Exception):
            bandwidth_sweep(macaque_bundle, "logistic", [])

    def test_duplicated_grid_gives_the_single_bandwidth_report(self, macaque_bundle):
        h = np.pi / 40
        once = bandwidth_sweep(macaque_bundle, "logistic", [h])
        assert once.bandwidths == [h]
        assert_same_report(bandwidth_sweep(macaque_bundle, "logistic", [h, h]), once)

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("folds_per_stack", [None, 4])
    def test_grid_report_is_the_per_bandwidth_reports(self, monkeypatch, threads,
                                                       folds_per_stack):
        # subjects of 1, 2 and 3 rows: 10 folds of each of three training sizes
        bundle = unequal_subjects_bundle()
        grid = [np.pi / 20, np.pi / 8, np.pi / 4]
        cfg = FitConfig(max_iter=40)
        monkeypatch.setenv("SHAPEGPLM_THREADS", "1")
        alone = [loocv(bundle, "ordinal", KernelSpec(h), cfg) for h in grid]
        monkeypatch.setenv("SHAPEGPLM_THREADS", threads)
        tasks = 9   # one stack per bandwidth and size
        if folds_per_stack:
            monkeypatch.setattr(selection, "STACK_WEIGHTS", folds_per_stack * 59 ** 2)
            tasks = 27  # three per bandwidth and size
        calls = record_runs(monkeypatch)
        swept = bandwidth_sweep(bundle, "ordinal", grid[::-1], cfg)
        assert calls == [(tasks, int(threads))]
        assert_no_child_left()
        assert_same_report(swept, CvReport(
            model="ordinal", bandwidths=grid,
            accuracy={h: r.accuracy[h] for h, r in zip(grid, alone)},
            n_evaluated={h: r.n_evaluated[h] for h, r in zip(grid, alone)},
            n_correct={h: r.n_correct[h] for h, r in zip(grid, alone)},
            predictions=[p for r in alone for p in r.predictions],
            confusion={h: r.confusion[h] for h, r in zip(grid, alone)},
            skipped_folds={h: r.skipped_folds[h] for h, r in zip(grid, alone)},
            fit_status={h: r.fit_status[h] for h, r in zip(grid, alone)}))


@pytest.fixture(scope="module")
def compare_manifest(tmp_path_factory):
    """The benchmark's ``ordinal_compare`` training data on a warm distance
    cache: 90 rows, k = 7, two rows per subject, so 45 folds of 88 training
    rows."""
    with pytest.MonkeyPatch.context() as m:
        m.syspath_prepend(str(REPO_ROOT / "bench"))
        import workloads as wl
    data = wl.generate(wl.WORKLOADS["full"]["ordinal_compare"], 1,
                       tmp_path_factory.mktemp("compare"))
    ingest(data["train"]["manifest"])
    return str(data["train"]["manifest"])


class TestGridPool:
    def test_one_pool_of_one_stack_per_bandwidth(self, compare_manifest, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("SHAPEGPLM_THREADS", "2")
        calls = record_runs(monkeypatch)
        assert main(["cv", "--manifest", compare_manifest, "--model", "ordinal",
                     "--grid", "pi/80,pi/40", "--max-iter", "5",
                     "--out", str(tmp_path)]) == 0
        assert calls == [(2, 2)]
        assert_no_child_left()

    def test_error_in_the_grid_pool_reads_as_the_serial_error(
            self, compare_manifest, tmp_path, monkeypatch, capsys):
        # at 1e-160 every held-out row's kernel weights underflow; the pi/40
        # stack fits beside it on the other worker
        argv = ["cv", "--manifest", compare_manifest, "--model", "ordinal",
                "--grid", "1e-160,pi/40", "--max-iter", "5",
                "--out", str(tmp_path)]
        calls = record_runs(monkeypatch)
        seen = {}
        for setting in ("1", "2"):
            monkeypatch.setenv("SHAPEGPLM_THREADS", setting)
            seen[setting] = main(argv), capsys.readouterr()
            assert_no_child_left()
        assert calls == [(2, 1), (2, 2)]
        assert seen["2"] == seen["1"]
        code, out = seen["2"]
        assert code == 2 and out.out == ""
        assert out.err == ("shapegplm cv: numerical failure: kernel weights "
                           "underflowed at query '<one of 2 query points>'; "
                           "increase the bandwidth\n")
        assert not (tmp_path / "cv_report.csv").exists()
