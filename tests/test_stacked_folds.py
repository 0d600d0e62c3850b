"""Cross-validation fits its folds as stacks (``models.fit_stack``); every
stacked fold fit must be the fit the fold gets alone, exactly, and the report
must not depend on how the folds were stacked."""

import numpy as np
import pytest

from shapegplm import FitConfig, KernelSpec, SmootherCache, loocv, selection
from shapegplm.cli import main
from shapegplm.errors import DivergenceError, InvalidArgumentError
from shapegplm.io import DatasetBundle
from shapegplm.models import (
    fit_logistic_plm,
    fit_ordinal_plm,
    fit_stack,
    predict_logistic,
    predict_ordinal,
)
from shapegplm.smoothing import normalised_weight_matrix

from conftest import REPO_ROOT
from test_acceptance import synthetic_sphere_ordinal
from test_reference_fitters import assert_same_fit


def stacked_fold_fits(bundle, model, spec, cfg, monkeypatch):
    """Run :func:`loocv`, recording each stacked problem's weights and fit."""
    seen = []
    fit_stack = selection.fit_stack

    def spy(model, y, x, w_smooth, spec, cfg=None):
        fits = fit_stack(model, y, x, w_smooth, spec, cfg)
        seen.extend(zip(w_smooth, fits))
        return fits

    monkeypatch.setattr(selection, "fit_stack", spy)
    report = loocv(bundle, model, spec, cfg)
    monkeypatch.setattr(selection, "fit_stack", fit_stack)
    return report, seen


def assert_folds_match_single_fits(bundle, model, spec, cfg, monkeypatch):
    """Each fold's stacked fit, weights and held-out predictions equal those
    of the fold fitted alone; returns the report."""
    report, seen = stacked_fold_fits(bundle, model, spec, cfg, monkeypatch)
    logistic = model == "logistic"
    fitter, predict = ((fit_logistic_plm, predict_logistic) if logistic
                       else (fit_ordinal_plm, predict_ordinal))
    classes = (0, 1) if logistic else (1, 2, 3)
    y = np.asarray(bundle.y)
    subjects = np.asarray(bundle.subjects)
    h = spec.bandwidth
    by_row = {p.row_id: p for p in report.predictions}
    matched = 0
    for subject in dict.fromkeys(bundle.subjects):
        train = np.flatnonzero(subjects != subject)
        if any(not np.any(y[train] == c) for c in classes):
            continue
        ix = np.ix_(train, train)
        cache = SmootherCache(dist=bundle.cache.dist[ix],
                              logdens=bundle.cache.logdens[ix])
        weights = normalised_weight_matrix(cache, spec)
        hits = [fit for w, fit in seen if np.array_equal(w, weights)]
        assert len(hits) == 1, f"fold {subject}: {len(hits)} stacked matches"
        stacked = hits[0]
        matched += 1
        shapes_tr = [bundle.shapes[i] for i in train]
        try:
            alone = fitter(y[train], bundle.x[train], shapes_tr, spec,
                           bundle.backend, cfg=cfg, cache=cache)
        except DivergenceError:
            assert stacked.status == "diverged"
            assert str(subject) in report.skipped_folds[h]
            continue
        assert_same_fit(stacked, alone)
        for i in np.flatnonzero(subjects == subject):
            rows = (bundle.cache.dist[i, train], bundle.cache.logdens[i, train])
            pred = predict(alone, bundle.x[i], bundle.shapes[i], shapes_tr,
                           bundle.x[train], spec, bundle.backend, query_rows=rows)
            got = by_row[bundle.ids[i]]
            if logistic:
                assert got.probs == (1.0 - pred, pred)
            else:
                assert got.probs == tuple(pred.probs)
                assert got.predicted == pred.category
    assert matched == len(seen)
    return report


def with_design(bundle, x):
    return DatasetBundle(
        ids=bundle.ids, subjects=bundle.subjects, y=bundle.y, x=x,
        covariate_names=tuple(f"x{j}" for j in range(x.shape[1])),
        response_type=bundle.response_type, samples=bundle.samples,
        backend=bundle.backend, cache=bundle.cache,
        content_hash=bundle.content_hash)


@pytest.mark.parametrize("denom", [100, 50, 25, 10])
def test_macaque_logistic_folds(macaque_bundle, denom, monkeypatch):
    spec = KernelSpec(bandwidth=np.pi / denom)
    report = assert_folds_match_single_fits(macaque_bundle, "logistic", spec,
                                            FitConfig(), monkeypatch)
    assert sum(report.fit_status[spec.bandwidth].values()) == 18


@pytest.mark.parametrize("variant", ["paper", "standard"])
@pytest.mark.parametrize("denom", [20, 80])
def test_sphere_ordinal_folds(variant, denom, monkeypatch):
    bundle = synthetic_sphere_ordinal()
    spec = KernelSpec(bandwidth=np.pi / denom)
    cfg = FitConfig(max_iter=300, irls_variant=variant)
    assert_folds_match_single_fits(bundle, "ordinal", spec, cfg, monkeypatch)


def test_two_covariate_design(macaque_bundle, monkeypatch):
    b = macaque_bundle
    noise = np.random.default_rng(3).normal(size=(len(b.ids), 1))
    bundle = with_design(b, np.hstack([b.x, noise]))
    for denom in (50, 10):
        spec = KernelSpec(bandwidth=np.pi / denom)
        assert_folds_match_single_fits(bundle, "logistic", spec, FitConfig(),
                                       monkeypatch)


def unequal_subjects_bundle():
    """Sphere ordinal data whose subjects hold 1, 2 or 3 rows, so the folds'
    training sets come in three sizes."""
    b = synthetic_sphere_ordinal(n=60, seed=11)
    sizes = [1, 2, 3] * 10
    subjects = [f"s{k}" for k, size in enumerate(sizes) for _ in range(size)]
    return DatasetBundle(
        ids=b.ids, subjects=subjects, y=b.y, x=b.x,
        covariate_names=b.covariate_names, response_type=b.response_type,
        samples=b.samples, backend=b.backend, cache=b.cache,
        content_hash=b.content_hash)


def test_unequal_subject_sizes_keep_fold_order(monkeypatch):
    bundle = unequal_subjects_bundle()
    spec = KernelSpec(bandwidth=np.pi / 20)
    cfg = FitConfig(max_iter=100)
    report, seen = stacked_fold_fits(bundle, "ordinal", spec, cfg, monkeypatch)
    assert {len(w) for w, _ in seen} == {57, 58, 59}
    assert_folds_match_single_fits(bundle, "ordinal", spec, cfg, monkeypatch)
    # predictions follow the manifest's subject order, whatever the stacks
    order = list(dict.fromkeys(bundle.subjects))
    reported = list(dict.fromkeys(p.subject for p in report.predictions))
    skipped = report.skipped_folds[spec.bandwidth]
    assert reported == [s for s in order if s not in skipped]
    assert [p.row_id for p in report.predictions] == [
        rid for rid, s in zip(bundle.ids, bundle.subjects) if s not in skipped]


def assert_same_report(a, b):
    assert a.bandwidths == b.bandwidths
    assert a.accuracy == b.accuracy
    assert a.n_evaluated == b.n_evaluated and a.n_correct == b.n_correct
    assert a.predictions == b.predictions
    assert a.skipped_folds == b.skipped_folds
    assert a.fit_status == b.fit_status
    for h in a.bandwidths:
        assert np.array_equal(a.confusion[h], b.confusion[h])


@pytest.mark.parametrize("threads", ["1", "3"])
def test_report_independent_of_stacking(macaque_bundle, monkeypatch, threads):
    spec = KernelSpec(bandwidth=np.pi / 20)
    cases = [(macaque_bundle, "logistic", FitConfig()),
             (unequal_subjects_bundle(), "ordinal", FitConfig(max_iter=60))]
    for bundle, model, cfg in cases:
        stacked = loocv(bundle, model, spec, cfg)
        monkeypatch.setattr(selection, "STACK_WEIGHTS", 1)  # one fold a stack
        monkeypatch.setenv("SHAPEGPLM_THREADS", threads)
        single = loocv(bundle, model, spec, cfg)
        monkeypatch.undo()
        assert_same_report(stacked, single)


def test_diverged_fold_is_skipped(macaque_bundle, monkeypatch):
    # At pi/100 the macaque slope grows to about 6 before the separation
    # stop; a divergence bound of 5 makes some folds diverge first.
    b = macaque_bundle
    spec = KernelSpec(bandwidth=np.pi / 100)
    cfg = FitConfig(divergence_norm=5.0)
    with pytest.raises(DivergenceError, match=r"slope norm exceeded 5 at iteration \d+"):
        fit_logistic_plm(b.y, b.x, b.shapes, spec, b.backend, cfg=cfg, cache=b.cache)
    report = assert_folds_match_single_fits(b, "logistic", spec, cfg, monkeypatch)
    h = spec.bandwidth
    diverged = report.fit_status[h]["diverged"]
    assert diverged > 0
    assert len(report.skipped_folds[h]) == diverged
    assert report.n_evaluated[h] == 18 - diverged
    assert sum(report.fit_status[h].values()) == 18


def test_cli_cv_survives_a_diverging_fold(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "bench"))
    import workloads

    w = workloads.WORKLOADS["full"]["ordinal_compare"]
    data = workloads.generate(w, 1, tmp_path / "data")
    code = main(["cv", "--manifest", str(data["train"]["manifest"]),
                 "--model", "ordinal", "--irls-variant", "standard",
                 "--grid", "pi/80,pi/40", "--max-iter", "300",
                 "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    status = [ln for ln in out.splitlines() if "fold fits:" in ln]
    assert len(status) == 2
    assert "diverged=0" in status[0] and "diverged=1" in status[1]
    assert "(64/88)" in out  # one two-row subject skipped at pi/40


def test_fit_stack_rejects_bad_stacks():
    spec = KernelSpec(bandwidth=0.5)
    y = np.tile([0.0, 1.0, 0.0, 1.0], (2, 1))
    x = np.ones((2, 4, 1))
    w = np.full((2, 4, 4), 0.25)
    with pytest.raises(InvalidArgumentError, match="logistic/ordinal"):
        fit_stack("gaussian", y, x, w, spec)
    with pytest.raises(InvalidArgumentError, match="stack shapes"):
        fit_stack("logistic", y, x, w[:, :3, :3], spec)
    with pytest.raises(InvalidArgumentError, match="both response classes"):
        fit_stack("logistic", np.vstack([y[0], np.zeros(4)]), x, w, spec)
    with pytest.raises(InvalidArgumentError, match="all three categories"):
        fit_stack("ordinal", np.tile([1.0, 2.0, 2.0, 1.0], (2, 1)), x, w, spec)
