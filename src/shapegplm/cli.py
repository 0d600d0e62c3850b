"""Command-line driver.

Subcommands: ``fit``, ``cv``, ``predict``, ``distances``, ``baseline``.
Exit codes: 0 success, 1 usage error, 2 numerical failure (the diagnostic
names the failing operation and, where known, the subject).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import io as dio
from .baselines import baseline_loocv
from .errors import InputFileError, ShapeGplmError, UsageError
from .models import (
    FIT_STATUSES,
    FitConfig,
    fit_logistic_plm,
    fit_ordinal_plm,
    fit_plm,
    predict_logistic,
    predict_ordinal,
)
from .selection import bandwidth_sweep
from .smoothing import KernelSpec

USAGE_EXIT = 1
NUMERIC_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def parse_bandwidth(text: str) -> float:
    """Accept positive plain decimals and the literal form
    ``pi/<denominator>``."""
    t = text.strip().lower()
    try:
        if t.startswith("pi/"):
            h = float(np.pi) / float(t[3:])
        else:
            h = float(np.pi) if t == "pi" else float(t)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"invalid bandwidth {text!r}; use a decimal or pi/<denominator>")
    if not 0 < h < np.inf:
        raise argparse.ArgumentTypeError(f"bandwidth must be positive, got {text!r}")
    return h


def _checked(kind, ok, what: str):
    """An argparse type: ``kind(text)``, rejected unless ``ok`` holds for it."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse names it for a malformed value
    return parse


positive_float = _checked(float, lambda v: 0 < v < np.inf, "positive")
nonnegative_float = _checked(float, lambda v: 0 <= v < np.inf, "nonnegative")
positive_int = _checked(int, lambda v: v >= 1, "at least 1")
unit_fraction = _checked(float, lambda v: 0 <= v <= 1, "in [0, 1]")


def parse_grid(text: str) -> tuple[float, ...]:
    values = tuple(parse_bandwidth(tok) for tok in text.split(",") if tok.strip())
    if not values:
        raise argparse.ArgumentTypeError("empty bandwidth grid")
    return values


def _build_parser() -> _Parser:
    parser = _Parser(prog="shapegplm",
                     description="Partially linear models on Kendall's shape space")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--manifest", required=True, help="dataset manifest CSV")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the on-disk distance cache")

    def solver(p):
        p.add_argument("--threshold", type=positive_float, default=2e-4)
        p.add_argument("--max-iter", type=positive_int, default=1000)
        p.add_argument("--ridge", type=nonnegative_float, default=1e-8)
        p.add_argument("--irls-variant", choices=["paper", "standard"],
                       default="paper")

    p_fit = sub.add_parser("fit", help="fit one model at one bandwidth")
    common(p_fit)
    p_fit.add_argument("--model", required=True,
                       choices=["plm", "logistic", "ordinal"])
    p_fit.add_argument("--h", required=True, type=parse_bandwidth,
                       metavar="RADIANS", help="bandwidth, e.g. 0.0314 or pi/100")
    solver(p_fit)

    p_cv = sub.add_parser("cv", help="leave-one-subject-out CV over a grid")
    common(p_cv)
    p_cv.add_argument("--model", required=True, choices=["logistic", "ordinal"])
    p_cv.add_argument("--grid", required=True, type=parse_grid,
                      metavar="H1,H2,...", help="comma-separated bandwidths")
    solver(p_cv)

    p_pred = sub.add_parser("predict", help="predict new rows from a saved fit")
    p_pred.add_argument("--fit", required=True, help="model state JSON from `fit`")
    p_pred.add_argument("--input", required=True, help="manifest of query rows")
    p_pred.add_argument("--out", default=".", help="output directory")
    p_pred.add_argument("--no-cache", action="store_true",
                        help="parse the training landmark files and read no "
                             "distance cache")

    p_dist = sub.add_parser("distances", help="dump the cached distance matrix")
    common(p_dist)

    p_base = sub.add_parser("baseline", help="tangent-PCA cumulative-logit LOOCV")
    common(p_base)
    p_base.add_argument("--var-threshold", type=unit_fraction, default=0.98)

    return parser


def _fit_config(args) -> FitConfig:
    return FitConfig(threshold=args.threshold, max_iter=args.max_iter,
                     ridge=args.ridge, irls_variant=args.irls_variant)


def _run_config(args, model: str, bandwidth=None, grid=()) -> dio.RunConfig:
    cfg = _fit_config(args) if hasattr(args, "threshold") else FitConfig()
    return dio.RunConfig(
        command=args.command, model=model, bandwidth=bandwidth,
        grid=tuple(grid), threshold=cfg.threshold, max_iter=cfg.max_iter,
        ridge=cfg.ridge, prob_floor=cfg.prob_floor,
        separation_deviance=cfg.separation_deviance,
        irls_variant=cfg.irls_variant,
        var_threshold=getattr(args, "var_threshold", 0.98),
        use_disk_cache=not args.no_cache, manifest=args.manifest,
        output_dir=args.out)


def _cmd_fit(args) -> int:
    bundle = dio.ingest(args.manifest, use_disk_cache=not args.no_cache)
    spec = KernelSpec(bandwidth=args.h)
    cfg = _fit_config(args)
    if args.model == "logistic":
        fit = fit_logistic_plm(bundle.y, bundle.x, bundle.shapes, spec,
                               bundle.backend, cfg=cfg, cache=bundle.cache)
    elif args.model == "ordinal":
        fit = fit_ordinal_plm(bundle.y.astype(int), bundle.x, bundle.shapes,
                              spec, bundle.backend, cfg=cfg, cache=bundle.cache)
    else:
        fit = fit_plm(bundle.y, bundle.x, bundle.shapes, spec, bundle.backend,
                      cache=bundle.cache, cfg=cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    run = _run_config(args, args.model, bandwidth=args.h)
    dio.write_fit_report(out / "fit_report.txt", fit, bundle, run)
    dio.write_model_state(out / "fit_state.json", fit, bundle, run)
    print(f"wrote {out / 'fit_report.txt'} and {out / 'fit_state.json'} "
          f"(status={fit.status}, iterations={fit.iterations})")
    return 0


def _cmd_cv(args) -> int:
    bundle = dio.ingest(args.manifest, use_disk_cache=not args.no_cache)
    cfg = _fit_config(args)
    report = bandwidth_sweep(bundle, args.model, args.grid, cfg=cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    run = _run_config(args, args.model, grid=args.grid)
    dio.write_cv_csv(out / "cv_report.csv", out / "cv_detail.csv", report, run,
                     dataset_hash=bundle.content_hash)
    for h in report.bandwidths:
        print(f"h={h:.10g} accuracy={report.accuracy[h]:.2f}% "
              f"({report.n_correct[h]}/{report.n_evaluated[h]})")
        print(f"h={h:.10g} fold fits: " + " ".join(
            f"{status}={report.fit_status[h][status]}" for status in FIT_STATUSES))
    print(f"best bandwidth: {report.best_bandwidth:.10g}")
    return 0


def _cmd_predict(args) -> int:
    fit, state = dio.load_model_state(args.fit)
    if fit.model not in ("logistic", "ordinal"):
        print(f"shapegplm predict: {args.fit} holds a {fit.model} fit; "
              "prediction is defined for logistic and ordinal fits",
              file=sys.stderr)
        return USAGE_EXIT
    # the training preshapes, design and hash suffice: no pairwise matrix
    train = dio.read_dataset(state["manifest"], use_disk_cache=not args.no_cache)
    if dio.provenance_hash(train) != state["provenance_hash"]:
        raise InputFileError(
            f"training data of {state['manifest']} changed since {args.fit} "
            "was written; run `fit` again")
    # the file could hold arrays that no fit to these training data has
    logits = 1 if fit.model == "logistic" else 2
    for name, got, need in (("beta", fit.beta.shape, train.x.shape[1:]),
                            ("z_final", fit.z_final.shape, (len(train.ids), logits))):
        if got != need:
            raise InputFileError(f"fit state {args.fit} holds {name} of shape {got}; "
                                 f"a {fit.model} fit to its training data has {need}")
    query = dio.read_dataset(args.input)
    # by name: reordered covariate columns would pass a check by position
    for what, got, need in (
            ("covariates", query.covariate_names, train.covariate_names),
            ("landmarks", query.backend.description, train.backend.description)):
        if got != need:
            raise InputFileError(f"query manifest {args.input} has {what} "
                                 f"{got}; the fit needs {need}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    predict = predict_logistic if fit.model == "logistic" else predict_ordinal
    preds = predict(fit, query.x, query.shapes, train.shapes, train.x,
                    backend=train.backend)
    lines = ["id,prediction,probs"]
    if fit.model == "logistic":
        lines += [f"{rid},{1 if p > 0.5 else 0},{p:.8f}"
                  for rid, p in zip(query.ids, preds.tolist())]
    else:
        for rid, pred in zip(query.ids, preds):
            probs = " ".join(format(v, ".8f") for v in pred.probs)
            lines.append(f"{rid},{pred.category},{probs}")
    path = out / "predictions.csv"
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")
    return 0


def _cmd_distances(args) -> int:
    bundle = dio.ingest(args.manifest, use_disk_cache=not args.no_cache)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "distances.csv"
    with open(path, "w") as fh:
        fh.write("," + ",".join(bundle.ids) + "\n")
        # one %-format per row; '%.12g' % v is format(v, ".12g")
        row_format = "%s" + ",%.12g" * len(bundle.ids) + "\n"
        for rid, row in zip(bundle.ids, bundle.cache.dist):
            fh.write(row_format % (rid, *row))
    print(f"wrote {path}")
    return 0


def _cmd_baseline(args) -> int:
    bundle = dio.ingest(args.manifest, use_disk_cache=not args.no_cache)
    report = baseline_loocv(bundle, var_threshold=args.var_threshold)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    run = _run_config(args, "baseline")
    dio.write_cv_csv(out / "baseline_report.csv", out / "baseline_detail.csv",
                     report, run, dataset_hash=bundle.content_hash)
    key = report.bandwidths[0]
    print(f"baseline accuracy={report.accuracy[key]:.2f}% "
          f"({report.n_correct[key]}/{report.n_evaluated[key]})")
    return 0


_COMMANDS = {"fit": _cmd_fit, "cv": _cmd_cv, "predict": _cmd_predict,
             "distances": _cmd_distances, "baseline": _cmd_baseline}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, OSError) as exc:
        print(f"shapegplm {args.command}: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ShapeGplmError as exc:
        print(f"shapegplm {args.command}: numerical failure: {exc}",
              file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
