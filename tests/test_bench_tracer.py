"""The benchmark's tracer (``bench/tracing.py``) wraps entry points at the
module globals and class attributes their callers look up. A refactor that
drops one of those names breaks only the traced benchmark run; this test
makes it fail here instead."""

from shapegplm import cli, models, selection

from conftest import REPO_ROOT


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "bench"))
    import tracing

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
