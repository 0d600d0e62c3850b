"""Leave-one-out cross-validation and bandwidth sweeps.

Folds group rows by subject: leaving a subject out removes every row it
contributes, and each held-out row yields one prediction. Training smooths
never see the held-out subject's shape, covariates, or label. Fits across
folds and bandwidths share one read-only distance cache; only index
subsetting differs per fold.

The fold fits of :func:`loocv` run as stacks through
:func:`shapegplm.models.fit_stack`: folds whose training sets have the same
size are fitted together, at most :data:`STACK_WEIGHTS` smoother weights
(1 MiB) at a time, and each stack's held-out rows are predicted as soon as it
is fitted. A sweep's cost is mostly a fixed number of numpy calls, so wider
stacks are faster; the cap bounds the memory they take. Every fold's fit is
the one it would get alone, so the report does not depend on how the folds
are stacked.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import DegenerateDatasetError, InvalidArgumentError, UsageError
# loocv fits through fit_stack; the per-fold fitters stay importable here
# because bench/tracing.py wraps them under these names.
from .models import (  # noqa: F401
    FitConfig,
    fit_logistic_plm,
    fit_ordinal_plm,
    fit_stack,
    predict_logistic,
    predict_ordinal,
)
from .smoothing import (
    KernelSpec,
    SmootherCache,
    _log_weights,
    _normalised,
    normalised_weight_matrix,
)

__all__ = ["CvReport", "SubjectPrediction", "run_folds", "loocv",
           "bandwidth_sweep", "STACK_WEIGHTS"]

# Most smoother weights (float64) in one stack of fold fits: 1 MiB, e.g. 16
# folds of 88 training rows.
STACK_WEIGHTS = 2 ** 17


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
    """Accuracy per bandwidth with per-row detail and confusion matrices.

    ``fit_status`` counts, per bandwidth, the folds whose fit ended in each
    status (for :func:`loocv`, the keys of
    :data:`shapegplm.models.FIT_STATUSES`); folds skipped for a lost class
    were never fitted and are not counted.
    """

    model: str
    bandwidths: list[float]
    accuracy: dict[float, float]                      # percent
    n_evaluated: dict[float, int]
    n_correct: dict[float, int]
    predictions: list[SubjectPrediction]
    confusion: dict[float, NDArray]                   # rows true, cols predicted
    skipped_folds: dict[float, list[str]] = field(default_factory=dict)
    fit_status: dict[float, Counter] = field(default_factory=dict)

    @property
    def best_bandwidth(self) -> float:
        """Highest accuracy; ties resolved toward the smaller bandwidth."""
        return min(sorted(self.bandwidths),
                   key=lambda h: (-self.accuracy[h], h))


def run_folds(bundle, model: str, key: float, labels, classes,
              fit_folds) -> CvReport:
    """Leave-one-subject-out folds, shared by every cross-validated model.

    Subjects are visited in order of first appearance. A fold whose training
    part lost one of ``classes`` (values of ``labels``) is skipped and
    recorded. ``fit_folds`` fits the rest: given a list of ``(held, train)``
    row-index pairs, it returns for each fold a pair ``(status, rows)``, the
    status its fit ended with and one ``(row, predicted, probs)`` per
    held-out row, or ``None`` for ``rows`` to skip the fold. With
    ``SHAPEGPLM_THREADS=k`` above 1 the list is split into ``k`` contiguous
    parts that run on a thread pool; the report is the same. Unset, empty or
    at most 1 is serial; a non-integer raises :class:`UsageError`. ``key``
    indexes the report (the bandwidth, or 0.0 for a model without one).
    """
    if len(bundle.samples) < 3:
        raise InvalidArgumentError("cross-validation needs at least 3 rows")
    subjects = np.asarray(bundle.subjects)
    order = list(dict.fromkeys(subjects))
    folds, fitted = [], []
    for subject in order:
        train = np.flatnonzero(subjects != subject)
        if all(np.any(labels[train] == c) for c in classes):
            folds.append((np.flatnonzero(subjects == subject), train))
            fitted.append(subject)

    threads = os.environ.get("SHAPEGPLM_THREADS", "").strip() or "1"
    try:
        workers = int(threads)
    except ValueError:
        raise UsageError("SHAPEGPLM_THREADS must be a whole number of threads, "
                         f"got {threads!r}") from None
    if workers > 1 and len(folds) > 1:
        size = -(-len(folds) // workers)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(fit_folds, [folds[i:i + size]
                                         for i in range(0, len(folds), size)])
            results = [res for part in parts for res in part]
    else:
        results = fit_folds(folds)
    outcome = dict(zip(fitted, results))

    predictions: list[SubjectPrediction] = []
    skipped: list[str] = []
    for subject in order:
        status, res = outcome.get(subject, (None, None))
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
                    skipped_folds={key: skipped},
                    fit_status={key: Counter(status for status, _ in results)})


def _by_training_size(folds) -> dict[int, list[int]]:
    """Positions of ``(held, train)`` folds grouped by training-set size,
    in order within each group: the folds that can share one stack."""
    groups: dict[int, list[int]] = {}
    for f, (_, train) in enumerate(folds):
        groups.setdefault(len(train), []).append(f)
    return groups


def loocv(bundle, model: str, spec: KernelSpec, cfg: FitConfig | None = None,
          use_cache: bool = True) -> CvReport:
    """Leave-one-subject-out cross-validation at a single bandwidth.

    Folds whose training part lost an entire response class are skipped and
    recorded, and so are folds whose fit diverged; if every fold is skipped
    the dataset cannot be cross-validated. Folds with training sets of one
    size are fitted as stacks (see the module docstring). With
    ``use_cache=False`` each fold rebuilds its own pairwise matrices from
    scratch (the reference point for the cache benchmark).
    """
    if model not in ("logistic", "ordinal"):
        raise InvalidArgumentError(
            f"cross-validation supports logistic/ordinal, got {model!r}")
    cfg = cfg or FitConfig()
    y = np.asarray(bundle.y, dtype=float)
    x = bundle.x
    shapes = bundle.shapes
    backend = bundle.backend
    full_cache = bundle.cache
    logistic = model == "logistic"
    predict = predict_logistic if logistic else predict_ordinal
    spec.check_against(backend)
    if use_cache:
        # The log weights are elementwise in the cached matrices, so a fold's
        # block of this one matrix, row-normalised, is exactly the fold's own
        # smoother weight matrix.
        log_w = _log_weights(full_cache.dist, full_cache.logdens, spec)

    def weights(trains):
        if use_cache:
            return _normalised(log_w[trains[:, :, None], trains[:, None, :]],
                               query="<all sample points>")
        return np.stack([normalised_weight_matrix(
            SmootherCache.from_points([shapes[i] for i in t], backend), spec)
            for t in trains])

    def predict_held(fit, held, train):
        rows = None
        if use_cache:
            block = np.ix_(held, train)
            rows = full_cache.dist[block], full_cache.logdens[block]
        preds = predict(fit, x[held], [shapes[i] for i in held],
                        [shapes[i] for i in train], x[train], spec, backend,
                        query_rows=rows)
        if logistic:
            return [(i, 1 if p > 0.5 else 0, (1.0 - p, p))
                    for i, p in zip(held.tolist(), preds.tolist())]
        return [(i, p.category, p.probs) for i, p in zip(held.tolist(), preds)]

    def fit_folds(folds):
        results = [None] * len(folds)
        for n, members in _by_training_size(folds).items():
            per_stack = max(1, STACK_WEIGHTS // (n * n))
            for first in range(0, len(members), per_stack):
                part = members[first:first + per_stack]
                trains = np.array([folds[f][1] for f in part])
                fits = fit_stack(model, y[trains], x[trains], weights(trains),
                                 spec, cfg)
                for f, fit in zip(part, fits):
                    results[f] = (fit.status, None if fit.status == "diverged"
                                  else predict_held(fit, *folds[f]))
        return results

    classes = [0, 1] if logistic else [1, 2, 3]
    return run_folds(bundle, model, spec.bandwidth, y, classes, fit_folds)


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
            merged.fit_status.update(rep.fit_status)
    return merged
