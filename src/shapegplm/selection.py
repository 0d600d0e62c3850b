"""Leave-one-out cross-validation and bandwidth sweeps.

Folds group rows by subject: leaving a subject out removes every row it
contributes, and each held-out row yields one prediction. Training smooths
never see the held-out subject's shape, covariates, or label. Fits across
folds and bandwidths share one read-only distance cache; only index
subsetting differs per fold.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import DegenerateDatasetError, InvalidArgumentError
from .models import (
    FitConfig,
    fit_logistic_plm,
    fit_ordinal_plm,
    predict_logistic,
    predict_ordinal,
)
from .smoothing import KernelSpec, SmootherCache

__all__ = ["CvReport", "SubjectPrediction", "run_folds", "loocv",
           "bandwidth_sweep"]


@dataclass(frozen=True)
class SubjectPrediction:
    """One held-out prediction: identifiers, truth, call, and probabilities."""

    bandwidth: float
    row_id: str
    subject: str
    true_label: int
    predicted: int
    probs: tuple[float, ...]


@dataclass
class CvReport:
    """Accuracy per bandwidth with per-row detail and confusion matrices."""

    model: str
    bandwidths: list[float]
    accuracy: dict[float, float]                      # percent
    n_evaluated: dict[float, int]
    n_correct: dict[float, int]
    predictions: list[SubjectPrediction]
    confusion: dict[float, NDArray]                   # rows true, cols predicted
    skipped_folds: dict[float, list[str]] = field(default_factory=dict)

    @property
    def best_bandwidth(self) -> float:
        """Highest accuracy; ties resolved toward the smaller bandwidth."""
        return min(sorted(self.bandwidths),
                   key=lambda h: (-self.accuracy[h], h))


def run_folds(bundle, model: str, key: float, labels, classes,
              fit_fold) -> CvReport:
    """Leave-one-subject-out folds, shared by every cross-validated model.

    Subjects are visited in order of first appearance. A fold whose training
    part lost one of ``classes`` (values of ``labels``) is skipped and
    recorded; ``fit_fold(held, train)`` fits the rest, given row indices, and
    returns one ``(row, predicted, probs)`` per held-out row, or ``None`` to
    skip the fold. With ``SHAPEGPLM_THREADS`` above 1 the folds run on a
    thread pool; the report is the same. ``key`` indexes the report (the
    bandwidth, or 0.0 for a model without one).
    """
    if len(bundle.samples) < 3:
        raise InvalidArgumentError("cross-validation needs at least 3 rows")
    subjects = np.asarray(bundle.subjects)
    order = list(dict.fromkeys(subjects))

    def run_fold(subject):
        train = np.flatnonzero(subjects != subject)
        if any(not np.any(labels[train] == c) for c in classes):
            return None
        return fit_fold(np.flatnonzero(subjects == subject), train)

    workers = int(os.environ.get("SHAPEGPLM_THREADS", "1"))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_fold, order))
    else:
        results = [run_fold(s) for s in order]

    predictions: list[SubjectPrediction] = []
    skipped: list[str] = []
    for subject, res in zip(order, results):
        if res is None:
            skipped.append(str(subject))
            continue
        predictions.extend(SubjectPrediction(
            bandwidth=key, row_id=str(bundle.ids[i]), subject=str(subject),
            true_label=int(labels[i]), predicted=int(pred),
            probs=tuple(float(p) for p in probs)) for i, pred, probs in res)
    if not predictions:
        raise DegenerateDatasetError(
            "every cross-validation fold was skipped (a class vanished from "
            "each training set, or every fit failed)")

    n_eval = len(predictions)
    n_corr = sum(p.predicted == p.true_label for p in predictions)
    conf = np.zeros((len(classes), len(classes)), dtype=int)
    index = {c: i for i, c in enumerate(classes)}
    for p in predictions:
        conf[index[p.true_label], index[p.predicted]] += 1
    return CvReport(model=model, bandwidths=[key],
                    accuracy={key: 100.0 * n_corr / n_eval},
                    n_evaluated={key: n_eval}, n_correct={key: n_corr},
                    predictions=predictions, confusion={key: conf},
                    skipped_folds={key: skipped})


def loocv(bundle, model: str, spec: KernelSpec, cfg: FitConfig | None = None,
          use_cache: bool = True) -> CvReport:
    """Leave-one-subject-out cross-validation at a single bandwidth.

    Folds whose training part lost an entire response class are skipped and
    recorded; if every fold is skipped the dataset cannot be cross-validated.
    With ``use_cache=False`` each fold rebuilds its own pairwise matrices from
    scratch (the reference point for the cache benchmark).
    """
    if model not in ("logistic", "ordinal"):
        raise InvalidArgumentError(
            f"cross-validation supports logistic/ordinal, got {model!r}")
    cfg = cfg or FitConfig()
    y = np.asarray(bundle.y)
    x = bundle.x
    shapes = bundle.shapes
    full_cache = bundle.cache

    def fit_fold(held, train):
        shapes_tr = [shapes[i] for i in train]
        x_tr = x[train]
        if use_cache:
            cache_tr = SmootherCache(dist=full_cache.dist[np.ix_(train, train)],
                                     logdens=full_cache.logdens[np.ix_(train, train)])
        else:
            cache_tr = SmootherCache.from_points(shapes_tr, bundle.backend)
        logistic = model == "logistic"
        fitter, predict = ((fit_logistic_plm, predict_logistic) if logistic
                           else (fit_ordinal_plm, predict_ordinal))
        fit = fitter(y[train], x_tr, shapes_tr, spec, bundle.backend, cfg=cfg,
                     cache=cache_tr)
        out = []
        for i in held:
            rows = None
            if use_cache:
                rows = (full_cache.dist[i, train], full_cache.logdens[i, train])
            pred = predict(fit, x[i], shapes[i], shapes_tr, x_tr, spec,
                           bundle.backend, query_rows=rows)
            if logistic:
                out.append((i, 1 if pred > 0.5 else 0, (1.0 - pred, pred)))
            else:
                out.append((i, pred.category, pred.probs))
        return out

    classes = [0, 1] if model == "logistic" else [1, 2, 3]
    return run_folds(bundle, model, spec.bandwidth, y, classes, fit_fold)


def bandwidth_sweep(bundle, model: str, grid, cfg: FitConfig | None = None,
                    use_cache: bool = True) -> CvReport:
    """One :func:`loocv` per bandwidth, sharing the dataset cache.

    Results are keyed and ordered by bandwidth, independent of grid order.
    """
    grid = sorted(float(h) for h in grid)
    if not grid or any(h <= 0 for h in grid):
        raise InvalidArgumentError("bandwidth grid must be nonempty and positive")
    merged: CvReport | None = None
    for h in grid:
        rep = loocv(bundle, model, KernelSpec(bandwidth=h), cfg, use_cache)
        if merged is None:
            merged = rep
        else:
            merged.bandwidths.append(h)
            merged.accuracy.update(rep.accuracy)
            merged.n_evaluated.update(rep.n_evaluated)
            merged.n_correct.update(rep.n_correct)
            merged.predictions.extend(rep.predictions)
            merged.confusion.update(rep.confusion)
            merged.skipped_folds.update(rep.skipped_folds)
    return merged
