"""Leave-one-out cross-validation and bandwidth sweeps.

Folds group rows by subject: leaving a subject out removes every row it
contributes, and each held-out row yields one prediction. Training smooths
never see the held-out subject's shape, covariates, or label. Fits across
folds and bandwidths share one read-only distance cache; only index
subsetting differs per fold.

The fold fits of :func:`loocv` run as stacks through
:func:`shapegplm.models.fit_stack`: folds of one bandwidth whose training
sets have the same size are fitted together, at most :data:`STACK_WEIGHTS`
smoother weights (4 MiB) at a time, and each stack's held-out rows are
predicted as soon as it is fitted. A sweep's cost is mostly a fixed number of
numpy calls, so wider stacks are faster; the cap bounds the memory they take.
:func:`run_folds` makes the stacks of every bandwidth at once, for
:func:`loocv` over a whole grid and the tangent-PCA baseline alike, and runs
them on one pool of forked worker processes. Every fold's fit is the one it
would get alone, so the report does not depend on how the folds are stacked
or where they run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np
from numpy.typing import NDArray

from . import _workers
from .errors import DegenerateDatasetError, InvalidArgumentError
# loocv fits through fit_stack; the per-fold fitters stay importable here
# because bench/tracing.py wraps them under these names.
from .models import (  # noqa: F401
    _FAMILIES,
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

# Most smoother weights (float64) in one stack of fold fits: 4 MiB, e.g. 67
# folds of 88 training rows. A sweep costs a fixed number of numpy calls plus
# a little per fold, so wide stacks are cheap; the cap bounds the memory a
# stack takes, in the worker or the serial process that fits it.
STACK_WEIGHTS = 2 ** 19


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


def run_folds(bundle, model: str, keys, labels, classes, fit_folds,
              per_stack) -> CvReport:
    """Leave-one-subject-out folds, shared by every cross-validated model.

    Subjects are visited in order of first appearance. A fold whose training
    part lost one of ``classes`` (values of ``labels``) is skipped and
    recorded. The rest are fitted once per key in ``keys`` (the bandwidths,
    or ``[0.0]`` for a model without one), which also index the report. They
    are fitted as stacks: folds of one key whose training sets have one size
    ``n``, at most ``per_stack(n)`` of them. ``fit_folds(key, folds)`` fits
    one: given a list of ``(held, train)`` row-index pairs, it returns for
    each fold a pair ``(status, rows)``, the status its fit ended with and
    one ``(row, predicted, probs)`` per held-out row, or ``None`` for
    ``rows`` to skip the fold. When the folds of all keys need more than one
    capped stack, every stack runs on one pool of forked worker processes
    (:mod:`shapegplm._workers`, sized by ``SHAPEGPLM_THREADS``): each size's
    folds are cut into the same number of stacks per key, about a multiple
    of the worker count in all. The report is the same.
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

    groups: dict[int, list[int]] = {}
    for f, (_, train) in enumerate(folds):
        groups.setdefault(len(train), []).append(f)
    capped = {n: -(-len(keys) * len(members) // max(1, per_stack(n)))
              for n, members in groups.items()}
    workers = _workers.count(sum(capped.values()))
    stacks = []
    for key in keys:
        for n, members in groups.items():
            count = min(len(members),
                        -(-(-(-capped[n] // workers) * workers) // len(keys)))
            size = -(-len(members) // count)
            stacks += [(key, members[i:i + size])
                       for i in range(0, len(members), size)]
    parts = _workers.run([partial(fit_folds, key, [folds[f] for f in stack])
                          for key, stack in stacks], workers)
    outcome = {key: dict.fromkeys(fitted) for key in keys}   # in fold order
    for (key, stack), part in zip(stacks, parts):
        for f, res in zip(stack, part):
            outcome[key][fitted[f]] = res

    report = CvReport(model=model, bandwidths=list(keys), accuracy={},
                      n_evaluated={}, n_correct={}, predictions=[], confusion={})
    index = {c: i for i, c in enumerate(classes)}
    for key in keys:
        predictions: list[SubjectPrediction] = []
        skipped: list[str] = []
        for subject in order:
            status, res = outcome[key].get(subject, (None, None))
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
        conf = np.zeros((len(classes), len(classes)), dtype=int)
        for p in predictions:
            conf[index[p.true_label], index[p.predicted]] += 1
        n_eval = report.n_evaluated[key] = len(predictions)
        n_corr = report.n_correct[key] = sum(p.predicted == p.true_label
                                             for p in predictions)
        report.accuracy[key] = 100.0 * n_corr / n_eval
        report.confusion[key] = conf
        report.predictions += predictions
        report.skipped_folds[key] = skipped
        report.fit_status[key] = Counter(status for status, _ in outcome[key].values())
    return report


def loocv(bundle, model: str, spec: KernelSpec | list[KernelSpec],
          cfg: FitConfig | None = None, use_cache: bool = True) -> CvReport:
    """Leave-one-subject-out cross-validation at one bandwidth, or at each of
    a list of them in that order (a bandwidth listed twice, once).

    A response the model's fits would reject is rejected before any fold is
    cut. Folds whose training part lost an entire response class are skipped
    and recorded, and so are folds whose fit diverged; if every fold of a
    bandwidth is skipped the dataset cannot be cross-validated. Folds of one
    bandwidth with training sets of one size are fitted as stacks, and every
    bandwidth's stacks share one worker pool (see the module docstring). With
    ``use_cache=False`` each fold rebuilds its own pairwise matrices from
    scratch (the reference point for the cache benchmark).
    """
    if model not in _FAMILIES:
        raise InvalidArgumentError(
            f"cross-validation supports logistic/ordinal, got {model!r}")
    cfg = cfg or FitConfig()
    y = np.asarray(bundle.y, dtype=float)
    x = bundle.x
    shapes = bundle.shapes
    backend = bundle.backend
    full_cache = bundle.cache
    _FAMILIES[model](y[None], cfg)   # rejects a response the fits would reject
    logistic = model == "logistic"
    predict = predict_logistic if logistic else predict_ordinal
    specs = {s.bandwidth: s for s in
             ([spec] if isinstance(spec, KernelSpec) else spec)}
    for s in specs.values():
        s.check_against(backend)

    # Stacks come bandwidth by bandwidth, so each process that fits them, a
    # worker or the serial command, computes one bandwidth's matrix once.
    @lru_cache(maxsize=1)
    def log_weights(h):
        return _log_weights(full_cache.dist, full_cache.logdens, specs[h])

    def weights(spec, trains):
        if use_cache:
            # The log weights are elementwise in the cached matrices, so a
            # fold's block of this one matrix, row-normalised, is exactly the
            # fold's own smoother weight matrix.
            log_w = log_weights(spec.bandwidth)
            return _normalised(log_w[trains[:, :, None], trains[:, None, :]],
                               query="<all sample points>")
        return np.stack([normalised_weight_matrix(
            SmootherCache.from_points([shapes[i] for i in t], backend), spec)
            for t in trains])

    def predict_held(fit, spec, held, train):
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

    def fit_folds(h, folds):
        spec = specs[h]
        trains = np.array([train for _, train in folds])
        fits = fit_stack(model, y[trains], x[trains], weights(spec, trains), spec, cfg)
        return [(fit.status, None if fit.status == "diverged"
                 else predict_held(fit, spec, *fold)) for fit, fold in zip(fits, folds)]

    classes = [0, 1] if logistic else [1, 2, 3]
    return run_folds(bundle, model, list(specs), y, classes, fit_folds,
                     lambda n: STACK_WEIGHTS // (n * n))


def bandwidth_sweep(bundle, model: str, grid, cfg: FitConfig | None = None,
                    use_cache: bool = True) -> CvReport:
    """One :func:`loocv` over the whole grid, sharing the dataset cache.

    Results are keyed and ordered by bandwidth, independent of grid order;
    a bandwidth listed twice is evaluated once.
    """
    grid = sorted({float(h) for h in grid})
    if not grid or any(h <= 0 for h in grid):
        raise InvalidArgumentError("bandwidth grid must be nonempty and positive")
    return loocv(bundle, model, [KernelSpec(bandwidth=h) for h in grid], cfg,
                 use_cache)
