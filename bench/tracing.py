"""Spans around the calls into each layer of shapegplm, recorded from outside.

Only the traced run installs the tracer. It replaces each layer's public
entry points at the names their callers look up (a module global such as
``shapegplm.selection.fit_ordinal_plm``, or a class attribute such as
``KendallShapeBackend.pairwise_matrices``) with a wrapper that records one
span per call: name, start, end, parent and a few attributes read from the
arguments or the result. ``restore`` puts the originals back. Spans stay in
memory until :meth:`Tracer.dump` writes them out at the end of the run.

The program runs on one thread, so a span's time is all busy time: no layer
waits on another, and no wait metric is reported.
"""

from __future__ import annotations

import gzip
import json
import statistics
from time import perf_counter


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "attrs")

    def __init__(self, sid, name, parent):
        self.id, self.name, self.parent = sid, name, parent
        self.start = self.end = 0.0
        self.attrs = None

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def open(self, name: str) -> Span:
        rec = Span(len(self.spans), name, self._stack[-1] if self._stack else None)
        self.spans.append(rec)
        self._stack.append(rec.id)
        rec.start = perf_counter()
        return rec

    def close(self, rec: Span) -> None:
        rec.end = perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span per call."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                rec.attrs = {"error": type(exc).__name__}
                raise
            finally:
                tracer.close(rec)
            if describe is not None:
                rec.attrs = describe(args, result)
            return result

        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, traced)

    def install(self) -> None:
        from shapegplm import baselines, cli, io, models, selection
        from shapegplm.geometry import KendallShapeBackend
        from shapegplm.smoothing import SmootherCache

        def fit_attrs(args, fit):
            return {"iterations": fit.iterations, "status": fit.status}

        def skipped(args, report):
            return {"skipped": sum(len(v) for v in report.skipped_folds.values()),
                    "folds": len(set(args[0].subjects))}

        def pairs(args, result):
            n = len(args[1])
            return {"pairs": n * (n - 1) // 2}

        # io
        for attr in ("write_fit_report", "write_model_state", "write_cv_csv"):
            self.wrap(io, attr, "io.report_write")
        self.wrap(io, "ingest", "io.ingest")
        self.wrap(io, "read_landmarks", "io.read_landmarks")
        # geometry
        self.wrap(io, "preshape", "geometry.preshape")
        self.wrap(KendallShapeBackend, "pairwise_matrices", "geometry.pairwise", pairs)
        self.wrap(KendallShapeBackend, "distances_to", "geometry.distances_to",
                  lambda args, r: {"pairs": len(args[2])})
        self.wrap(baselines, "procrustes_mean", "geometry.procrustes_mean")
        self.wrap(baselines, "tangent_coordinates", "geometry.tangent_coordinates")
        # smoothing
        self.wrap(models, "normalised_weight_matrix", "smoothing.weights")
        self.wrap(models, "apply_weights", "smoothing.apply")
        self.wrap(models, "smooth_at", "smoothing.smooth_at")
        self.wrap(SmootherCache, "__init__", "smoothing.cache_check")
        # models
        for owner in (cli, selection):
            self.wrap(owner, "fit_logistic_plm", "models.fit", fit_attrs)
            self.wrap(owner, "fit_ordinal_plm", "models.fit", fit_attrs)
            self.wrap(owner, "predict_logistic", "models.predict")
            self.wrap(owner, "predict_ordinal", "models.predict")
        self.wrap(cli, "fit_plm", "models.fit", fit_attrs)
        # selection and baselines
        self.wrap(selection, "loocv", "selection.loocv", skipped)
        self.wrap(cli, "baseline_loocv", "baselines.loocv", skipped)
        self.wrap(baselines, "tangent_pca", "baselines.tangent_pca")
        self.wrap(baselines, "fit_cumulative_logit", "baselines.newton")

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def dump(self, path) -> None:
        """Write every span as one JSON object per line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     **(s.attrs or {})}) + "\n")


# --- per-layer metrics from the spans ---------------------------------------

COMMANDS = ("distances", "fit", "predict", "cv", "baseline")


def _pct(values, q) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _per_session(spans: list[Span]) -> dict:
    """Layer metrics of one session from the spans it contains."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + s.dur
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def tot(name):
        return sum(s.dur for s in by.get(name, ()))

    def n(name):
        return len(by.get(name, ()))

    def self_time(name):
        return sum(s.dur - child.get(s.id, 0.0) for s in by.get(name, ()))

    def per_call_us(name):
        return _ratio(1e6 * tot(name), n(name))

    def attr_sum(name, key):
        return sum((s.attrs or {}).get(key, 0) for s in by.get(name, ()))

    missed = {s.parent for s in by.get("geometry.pairwise", ())}
    ingests = by.get("io.ingest", ())
    pairs = attr_sum("geometry.pairwise", "pairs")
    qpairs = attr_sum("geometry.distances_to", "pairs")
    fits = by.get("models.fit", ())
    done = [s.attrs for s in fits if s.attrs and "status" in s.attrs]
    sweeps = sum(a["iterations"] for a in done)
    fit_ids = {f.id for f in fits}
    weights_in_fits = sum(s.dur for s in by.get("smoothing.weights", ())
                          if s.parent in fit_ids)
    statuses = [a["status"] for a in done]
    cli_spans = [s for s in spans if s.name.startswith("cli.")]
    m = {
        "io.ingest_s": tot("io.ingest"),
        "io.ingest_self_s": self_time("io.ingest"),
        "io.cache_hits": sum(1 for s in ingests if s.id not in missed),
        "io.cache_misses": sum(1 for s in ingests if s.id in missed),
        "io.read_landmarks_us": per_call_us("io.read_landmarks"),
        "io.report_write_s": tot("io.report_write"),
        "geometry.preshape_us": per_call_us("geometry.preshape"),
        "geometry.pairwise_s": tot("geometry.pairwise"),
        "geometry.pairs": pairs,
        "geometry.pair_us": _ratio(1e6 * tot("geometry.pairwise"), pairs),
        "geometry.distances_to_s": tot("geometry.distances_to"),
        "geometry.query_pairs": qpairs,
        "geometry.query_pair_us": _ratio(1e6 * tot("geometry.distances_to"), qpairs),
        "geometry.procrustes_mean_s": tot("geometry.procrustes_mean"),
        "geometry.procrustes_mean_calls": n("geometry.procrustes_mean"),
        "geometry.tangent_coordinates_us": per_call_us("geometry.tangent_coordinates"),
        "smoothing.weight_builds": n("smoothing.weights"),
        "smoothing.weights_s": tot("smoothing.weights"),
        "smoothing.apply_calls": n("smoothing.apply"),
        "smoothing.apply_s": tot("smoothing.apply"),
        "smoothing.cache_check_s": tot("smoothing.cache_check"),
        "smoothing.smooth_at_calls": n("smoothing.smooth_at"),
        "smoothing.smooth_at_s": tot("smoothing.smooth_at"),
        "models.fits": len(fits),
        "models.irls_sweeps": sweeps,
        "models.sweep_us": _ratio(1e6 * (tot("models.fit") - weights_in_fits), sweeps),
        "models.converged_ratio": _ratio(statuses.count("converged"), len(statuses)),
        "models.separation_fits": statuses.count("separation"),
        "models.max_iter_fits": statuses.count("max_iter"),
        "models.predict_calls": n("models.predict"),
        "selection.loocv_calls": n("selection.loocv"),
        "selection.loocv_s": tot("selection.loocv"),
        "selection.loocv_self_s": self_time("selection.loocv"),
        "selection.folds": attr_sum("selection.loocv", "folds"),
        "selection.skipped_folds": attr_sum("selection.loocv", "skipped"),
        "baselines.loocv_s": tot("baselines.loocv"),
        "baselines.tangent_pca_s": tot("baselines.tangent_pca"),
        "baselines.newton_s": tot("baselines.newton"),
        "baselines.self_s": self_time("baselines.loocv"),
        "baselines.skipped_folds": attr_sum("baselines.loocv", "skipped"),
        "cli.command_s": sum(s.dur for s in cli_spans),
        "cli.self_s": sum(s.dur - child.get(s.id, 0.0) for s in cli_spans),
    }
    for cmd in COMMANDS:
        m[f"cli.{cmd}_s"] = tot(f"cli.{cmd}")
    return m


def layer_metrics(tracer: Tracer, sessions: list[tuple[int, int]]) -> dict:
    """Median over traced sessions of each layer metric; percentiles of fit
    and prediction times and of sweep counts are pooled over all of them.

    ``sessions`` holds the ``[first, last)`` span index range of each traced
    session.
    """
    per = [_per_session(tracer.spans[a:b]) for a, b in sessions]
    out = {k: statistics.median(p[k] for p in per) for k in per[0]}
    pooled = [s for a, b in sessions for s in tracer.spans[a:b]]
    fit_ms = [1e3 * s.dur for s in pooled if s.name == "models.fit"]
    pred_ms = [1e3 * s.dur for s in pooled if s.name == "models.predict"]
    sweeps = [s.attrs["iterations"] for s in pooled
              if s.name == "models.fit" and s.attrs and "iterations" in s.attrs]
    out.update({
        "models.fit_ms_p50": _pct(fit_ms, 50),
        "models.fit_ms_p90": _pct(fit_ms, 90),
        "models.sweeps_per_fit_p50": _pct(sweeps, 50),
        "models.sweeps_per_fit_max": float(max(sweeps, default=0)),
        "models.predict_ms_p50": _pct(pred_ms, 50),
        "models.predict_ms_p90": _pct(pred_ms, 90),
    })
    return out


def unit_of(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ms_p50") or name.endswith("_ms_p90"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"
