"""Stacked prediction is per-query prediction, bit for bit.

``smooth_at``, ``predict_logistic`` and ``predict_ordinal`` take a stack of Q
queries in one call. The per-query forms they replaced are kept here as the
reference: one 1-D weight row per query through ``_weighted_average``, and a
1-D dot product for ``x_new @ beta``. With Q >= 2 queries and p = 2
covariates, a plain ``(Q, n) @ (n, L)`` smooth or a plain ``(Q, p) @ (p,)``
product sums in another order than these and fails here; the macaque and
benchmark data have p = 1 and cannot show it.

``predict_stack`` goes one step further: each query has its own fit, as the
held-out rows of a stack of cross-validation folds do, and each row must
get the bits of its fold's own ``predict_*`` call.
"""

import numpy as np
import pytest

from shapegplm import FitConfig, KernelSpec, loocv, selection
from shapegplm.errors import InvalidArgumentError
from shapegplm.io import DatasetBundle
from shapegplm.models import (
    _expit,
    fit_logistic_plm,
    fit_ordinal_plm,
    fit_stack,
    predict_logistic,
    predict_ordinal,
    predict_stack,
)
from shapegplm.smoothing import (
    SmootherCache,
    _log_weights,
    _normalised,
    _weighted_average,
    smooth_at,
)

from test_acceptance import synthetic_sphere_ordinal
from test_reference_fitters import assert_same_fit
from test_stacked_folds import unequal_subjects_bundle

N_TRAIN = 60


# --- the per-query references -------------------------------------------------

def ref_smooth_row(dist, logdens, targets, spec):
    """One query's smooth of ``(n, L)`` targets from its 1-D rows."""
    w = _normalised(_log_weights(dist, logdens, spec), None)
    return _weighted_average(w, targets)


def ref_terms(fit, x_q, dist, logdens, train_x, spec):
    phi0 = ref_smooth_row(dist, logdens, fit.z_final, spec)
    phi = ref_smooth_row(dist, logdens, train_x, spec)
    return x_q @ fit.beta, phi0, phi @ fit.beta


def ref_predict_logistic(fit, x_q, dist, logdens, train_x, spec):
    xb, phi0, phib = ref_terms(fit, x_q, dist, logdens, train_x, spec)
    return float(_expit(np.array([float(xb + phi0[0] - phib)]))[0])


def ref_predict_ordinal(fit, x_q, dist, logdens, train_x, spec):
    xb, phi0, phib = ref_terms(fit, x_q, dist, logdens, train_x, spec)
    gam = _expit(float(xb - phib) + phi0)
    repaired = bool(gam[0] > gam[1])
    if repaired:
        gam = np.sort(gam)
    probs = np.array([gam[0], gam[1] - gam[0], 1.0 - gam[1]])
    return probs, int(np.argmax(probs)) + 1, repaired


# --- data ------------------------------------------------------------------------

def two_covariate_split(n_held):
    """Sphere data with p = 2 covariates, split into a training sample and
    ``n_held`` queries, with the query rows sliced from the full cache."""
    b = synthetic_sphere_ordinal()
    rng = np.random.default_rng(11)
    x = np.column_stack([b.x[:, 0], rng.normal(size=len(b.ids))])
    train = np.arange(N_TRAIN)
    held = np.arange(N_TRAIN, N_TRAIN + n_held)
    block = np.ix_(held, train)
    return dict(
        y=b.y, x=x, train=train, held=held, backend=b.backend,
        shapes_tr=[b.shapes[i] for i in train],
        shapes_q=[b.shapes[i] for i in held],
        cache_tr=SmootherCache(dist=b.cache.dist[np.ix_(train, train)],
                               logdens=b.cache.logdens[np.ix_(train, train)]),
        rows=(b.cache.dist[block], b.cache.logdens[block]))


def measured_rows(d):
    """Query rows measured one query at a time."""
    dist = np.array([d["backend"].distances_to(s, d["shapes_tr"])
                     for s in d["shapes_q"]])
    return dist, d["backend"].log_density_at(dist)


# --- the pins ----------------------------------------------------------------------

@pytest.mark.parametrize("n_held", [2, 30])
@pytest.mark.parametrize("width", [None, 1, 2, 3])
def test_stacked_smooth_at_is_per_row(n_held, width):
    d = two_covariate_split(n_held)
    spec = KernelSpec(bandwidth=np.pi / 20)
    rng = np.random.default_rng(width or 0)
    targets = rng.normal(size=(N_TRAIN,) if width is None else (N_TRAIN, width))
    dist, logdens = d["rows"]
    got = smooth_at(dist, logdens, targets, spec)
    for q in range(n_held):
        want = ref_smooth_row(dist[q], logdens[q], targets.reshape(N_TRAIN, -1),
                              spec)
        want = want[0] if width is None else want
        assert np.array_equal(got[q], want)
        assert np.array_equal(smooth_at(dist[q], logdens[q], targets, spec), want)


@pytest.mark.parametrize("n_held", [2, 30])
@pytest.mark.parametrize("denom", [40, 10])
def test_stacked_predict_logistic_is_per_query(n_held, denom):
    d = two_covariate_split(n_held)
    spec = KernelSpec(bandwidth=np.pi / denom)
    y = (d["y"] > 1.5).astype(float)
    x_tr = d["x"][d["train"]]
    fit = fit_logistic_plm(y[d["train"]], x_tr, d["shapes_tr"], spec,
                           d["backend"], cache=d["cache_tr"])
    assert fit.beta.shape == (2,)
    x_q = d["x"][d["held"]]
    for rows in (d["rows"], None):
        got = predict_logistic(fit, x_q, d["shapes_q"], d["shapes_tr"], x_tr,
                               spec, d["backend"], query_rows=rows)
        dist, logdens = rows or measured_rows(d)
        assert got.shape == (n_held,)
        for q in range(n_held):
            want = ref_predict_logistic(fit, x_q[q], dist[q], logdens[q], x_tr,
                                        spec)
            assert got[q] == want
            one = predict_logistic(fit, x_q[q], d["shapes_q"][q], d["shapes_tr"],
                                   x_tr, spec, d["backend"],
                                   query_rows=None if rows is None
                                   else (dist[q], logdens[q]))
            assert one == want


@pytest.mark.parametrize("n_held", [2, 30])
@pytest.mark.parametrize("denom", [40, 10])
def test_stacked_predict_ordinal_is_per_query(n_held, denom):
    d = two_covariate_split(n_held)
    spec = KernelSpec(bandwidth=np.pi / denom)
    x_tr = d["x"][d["train"]]
    fit = fit_ordinal_plm(d["y"][d["train"]].astype(int), x_tr, d["shapes_tr"],
                          spec, d["backend"], cfg=FitConfig(max_iter=200),
                          cache=d["cache_tr"])
    assert fit.beta.shape == (2,)
    x_q = d["x"][d["held"]]
    for rows in (d["rows"], None):
        got = predict_ordinal(fit, x_q, d["shapes_q"], d["shapes_tr"], x_tr,
                              spec, d["backend"], query_rows=rows)
        dist, logdens = rows or measured_rows(d)
        assert len(got) == n_held
        for q, pred in enumerate(got):
            probs, category, repaired = ref_predict_ordinal(
                fit, x_q[q], dist[q], logdens[q], x_tr, spec)
            assert np.array_equal(pred.probs, probs)
            assert (pred.category, pred.monotone_repaired) == (category, repaired)


# --- held-out rows of fold stacks ----------------------------------------------------

def subjects_bundle(model):
    """Sphere data whose subjects hold 1, 2 or 3 rows, with p = 2 covariates
    and a 0/1 response for the logistic model."""
    b = unequal_subjects_bundle()
    rng = np.random.default_rng(13)
    y = np.asarray(b.y)
    return DatasetBundle(
        ids=b.ids, subjects=b.subjects, y=(y > 1.5).astype(float) if model == "logistic" else y,
        x=np.column_stack([b.x[:, 0], rng.normal(size=len(b.ids))]),
        covariate_names=("x1", "x2"), response_type=b.response_type,
        samples=b.samples, backend=b.backend, cache=b.cache,
        content_hash=b.content_hash)


# a bandwidth and a divergence bound at which some folds diverge and others not
CV_CASES = [("logistic", np.pi / 10, 1.0), ("ordinal", np.pi / 20, 0.08)]


@pytest.mark.parametrize("model, h, bound", CV_CASES)
def test_stacked_held_out_rows_are_per_fold_predictions(model, h, bound):
    """One ``predict_stack`` call over the held-out rows of every fitted fold
    of a stack, each weighted by its row of the bandwidth's log-weight matrix,
    gives every row the bits of its fold's own ``predict_*`` call with rows
    sliced from the cache."""
    b = subjects_bundle(model)
    spec = KernelSpec(bandwidth=h)
    cfg = FitConfig(max_iter=100, divergence_norm=bound)
    predict = predict_logistic if model == "logistic" else predict_ordinal
    subjects = np.asarray(b.subjects)
    folds = [(np.flatnonzero(subjects == s), np.flatnonzero(subjects != s))
             for s in dict.fromkeys(b.subjects)]
    assert {len(held) for held, _ in folds} == {1, 2, 3}
    log_w = _log_weights(b.cache.dist, b.cache.logdens, spec)
    statuses = []
    for size in (57, 58, 59):
        stack = [fold for fold in folds if len(fold[1]) == size]
        trains = np.array([train for _, train in stack])
        weights = _normalised(log_w[trains[:, :, None], trains[:, None, :]], None)
        fits = fit_stack(model, b.y[trains], b.x[trains], weights, spec, cfg)
        statuses += [fit.status for fit in fits]
        live = [(fit, held, train) for fit, (held, train) in zip(fits, stack)
                if fit.status != "diverged"]
        if not live:
            continue
        owner = [k for k, (_, held, _) in enumerate(live) for _ in held]
        rows = np.concatenate([held for _, held, _ in live])
        train_q = np.array([live[k][2] for k in owner])
        got = predict_stack(model, [live[k][0] for k in owner], b.x[rows],
                            b.x[train_q], log_w[rows[:, None], train_q])
        want = []
        for fit, held, train in live:
            block = np.ix_(held, train)
            want += list(predict(fit, b.x[held], [b.shapes[i] for i in held],
                                 [b.shapes[i] for i in train], b.x[train], spec,
                                 b.backend, query_rows=(b.cache.dist[block],
                                                        b.cache.logdens[block])))
        assert len(got) == len(want) == len(rows)
        if model == "logistic":
            assert np.array_equal(got, np.array(want))
        else:
            for g, w in zip(got, want):
                assert np.array_equal(g.probs, w.probs)
                assert (g.category, g.monotone_repaired) == (w.category, w.monotone_repaired)
    assert "diverged" in statuses and len(set(statuses)) == 3


def test_cached_cv_predicts_once_per_stack(macaque_bundle, monkeypatch):
    """The cached sweep makes one ``predict_stack`` call per fold stack and
    no per-fold call; ``use_cache=False`` still predicts fold by fold, each
    fold from its own measured rows."""
    monkeypatch.setenv("SHAPEGPLM_THREADS", "1")  # the spies record here
    # 18 folds of 17 training rows: four stacks a bandwidth
    monkeypatch.setattr(selection, "STACK_WEIGHTS", 5 * 17 ** 2)
    calls = []
    for name in ("predict_stack", "predict_logistic"):
        original = getattr(selection, name)
        monkeypatch.setattr(selection, name, lambda *args, _f=original, _n=name, **kw: (
            calls.append(_n) or _f(*args, **kw)))
    specs = [KernelSpec(bandwidth=h) for h in (np.pi / 50, np.pi / 25)]
    cached = loocv(macaque_bundle, "logistic", specs)
    assert calls == ["predict_stack"] * 8
    calls.clear()
    uncached = loocv(macaque_bundle, "logistic", specs, use_cache=False)
    assert calls == ["predict_logistic"] * 36
    for h in cached.bandwidths:
        assert cached.accuracy[h] == uncached.accuracy[h]


def test_one_stack_holds_every_bandwidth_under_one_cap(macaque_bundle, monkeypatch):
    """When the folds of every bandwidth have one size and fit under one cap,
    as the macaque sweep's 4 x 18 folds do, they are one stack, bandwidth by
    bandwidth: each fold's fit keeps the bits, status and bandwidth it gets
    in its own bandwidth's stack, each bandwidth's log-weight matrix is
    computed once, and the report is the per-bandwidth reports."""
    monkeypatch.setenv("SHAPEGPLM_THREADS", "1")  # the spies record here
    grid = [np.pi / 100, np.pi / 50, np.pi / 25, np.pi / 10]
    fit_stack_, log_weights = selection.fit_stack, selection._log_weights
    stacks, matrices = [], []

    def stack_spy(model, y, x, w_smooth, spec, *args):
        fits = fit_stack_(model, y, x, w_smooth, spec, *args)
        stacks.append(fits)
        return fits

    monkeypatch.setattr(selection, "fit_stack", stack_spy)
    monkeypatch.setattr(selection, "_log_weights", lambda d, l, spec: (
        matrices.append(spec.bandwidth) or log_weights(d, l, spec)))
    alone = [loocv(macaque_bundle, "logistic", KernelSpec(bandwidth=h)) for h in grid]
    assert matrices == grid and len(stacks) == 4
    singles = [fit for fits in stacks for fit in fits]
    stacks.clear(), matrices.clear()
    swept = loocv(macaque_bundle, "logistic", [KernelSpec(bandwidth=h) for h in grid])
    assert matrices == grid and len(stacks) == 1
    assert [fit.bandwidth for fit in stacks[0]] == [h for h in grid for _ in range(18)]
    for fit, ref in zip(stacks[0], singles, strict=True):
        assert_same_fit(fit, ref)
        assert fit.bandwidth == ref.bandwidth
    for h, report in zip(grid, alone):
        assert swept.accuracy[h] == report.accuracy[h]
    assert swept.predictions == [p for report in alone for p in report.predictions]


def test_fit_stack_takes_one_spec_per_problem():
    """A list of specs gives each problem its own bandwidth, and must hold
    one spec per problem."""
    b = subjects_bundle("logistic")
    trains = np.array([np.arange(1, 58), np.arange(57)])
    log_w = [_log_weights(b.cache.dist, b.cache.logdens, KernelSpec(bandwidth=h))
             for h in (np.pi / 10, np.pi / 5)]
    w = np.array([_normalised(lw[t[:, None], t], None) for lw, t in zip(log_w, trains)])
    specs = [KernelSpec(bandwidth=np.pi / 10), KernelSpec(bandwidth=np.pi / 5)]
    fits = fit_stack("logistic", b.y[trains], b.x[trains], w, specs)
    assert [fit.bandwidth for fit in fits] == [np.pi / 10, np.pi / 5]
    with pytest.raises(InvalidArgumentError, match="1 kernel specs for 2 problems"):
        fit_stack("logistic", b.y[trains], b.x[trains], w, specs[:1])
