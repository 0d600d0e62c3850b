"""The benchmark's tracer (``bench/tracing.py``) wraps entry points at the
module globals and class attributes their callers look up. A refactor that
drops one of those names, or stops calling through it, breaks only the
traced benchmark run; these tests make it fail here instead."""

import pytest

from shapegplm import baselines, cli, models, selection
from shapegplm.geometry import KendallShapeBackend

from conftest import REPO_ROOT, random_preshape


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "bench"))
    import tracing

    return tracing


def test_tracer_installs_and_restores(tracing):
    originals = (selection.loocv, selection.fit_ordinal_plm,
                 models.apply_weights, cli.baseline_loocv)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert selection.loocv is not originals[0]
    finally:
        tracer.restore()
    assert (selection.loocv, selection.fit_ordinal_plm,
            models.apply_weights, cli.baseline_loocv) == originals


def test_geometry_calls_record_their_spans(tracing, rng):
    shapes = [random_preshape(rng, 7) for _ in range(6)]
    backend = KendallShapeBackend(k=7)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        backend.pairwise_matrices(shapes)
        backend.distances_to(shapes[0], shapes[1:])
        baselines.tangent_pca(shapes)
    finally:
        tracer.restore()
    counts = {}
    for span in tracer.spans:
        counts[span.name] = counts.get(span.name, 0) + 1
    assert counts["geometry.pairwise"] == 1
    assert counts["geometry.distances_to"] == 1
    assert counts["geometry.procrustes_mean"] == 1
    assert counts["geometry.tangent_coordinates"] == len(shapes)
    assert counts["baselines.tangent_pca"] == 1
