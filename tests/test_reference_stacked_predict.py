"""Stacked prediction is per-query prediction, bit for bit.

``smooth_at``, ``predict_logistic`` and ``predict_ordinal`` take a stack of Q
queries in one call. The per-query forms they replaced are kept here as the
reference: one 1-D weight row per query through ``_weighted_average``, and a
1-D dot product for ``x_new @ beta``. With Q >= 2 queries and p = 2
covariates, a plain ``(Q, n) @ (n, L)`` smooth or a plain ``(Q, p) @ (p,)``
product sums in another order than these and fails here; the macaque and
benchmark data have p = 1 and cannot show it.
"""

import numpy as np
import pytest

from shapegplm import FitConfig, KernelSpec
from shapegplm.models import (
    _expit,
    fit_logistic_plm,
    fit_ordinal_plm,
    predict_logistic,
    predict_ordinal,
)
from shapegplm.smoothing import (
    SmootherCache,
    _log_weights,
    _normalised,
    _weighted_average,
    smooth_at,
)

from test_acceptance import synthetic_sphere_ordinal

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
