"""Dataset ingestion, distance-cache persistence, and report emission.

Inputs are UTF-8 text, with or without a byte-order mark. A landmark file
holds a header line ``k m`` followed by exactly ``k`` rows of ``m``
whitespace-separated decimals. A manifest is a CSV with columns
``id,file,response`` plus any number of named covariate columns and an
optional ``subject`` column grouping rows that belong to one individual
(cross-validation folds leave out whole subjects). Lines starting with ``#``
are directives or comments; ``# response_type: binary|ordinal3|continuous``
overrides the inferred response kind.

The pairwise distance and log-density matrices are cached on disk as a
``.npz`` file keyed by a content hash of the preshapes, so unchanged data is
never re-measured, and invalidation follows content, never timestamps. The
file is written through a temporary file and renamed into place; one that is
missing or cannot be read back counts as a miss and is rebuilt. :func:`ingest`
counts each build it makes (:data:`shapegplm.geometry.MATRIX_BUILD_COUNTS`).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import uuid
import zipfile
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .errors import InputFileError, InvalidArgumentError
from .geometry import MATRIX_BUILD_COUNTS, KendallShapeBackend, ShapeSample, preshape
from .models import GplmFit
from .smoothing import SmootherCache

__all__ = ["read_landmarks", "write_landmarks", "DatasetBundle", "read_dataset",
           "ingest", "provenance_hash", "RunConfig",
           "write_fit_report", "write_model_state", "load_model_state",
           "write_cv_csv"]


def _read_text(path: Path, what: str) -> str:
    """The text of an input file, decoded as UTF-8 with or without a
    byte-order mark; an unreadable one raises ``OSError`` and one that is not
    text raises :class:`InputFileError`, both naming the file."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise OSError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputFileError(f"{what} {path} is not text: {exc}") from exc


def read_landmarks(path) -> NDArray[np.floating]:
    """Read one ``k x m`` configuration from a landmark text file.

    The tokens are converted in one numpy call, which parses each the way
    ``float()`` does (underscores, non-ASCII digits, ``nan`` and ``inf``).
    """
    path = Path(path)
    lines = [ln for ln in _read_text(path, "landmark file").splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    try:
        k, m = (int(tok) for tok in lines[0].split())
    except (ValueError, IndexError) as exc:
        raise InputFileError(f"malformed landmark file {path}: {exc}") from exc
    if k < 2 or m < 1:   # a shape needs 2 landmarks of 1 coordinate or more
        raise InputFileError(f"malformed landmark file {path}: header {k} x {m} holds no shape")
    rows = [ln.split() for ln in lines[1:]]
    if len(rows) != k or any(len(r) != m for r in rows):
        raise InputFileError(
            f"landmark file {path} promises {k} x {m} but delivers otherwise")
    try:
        return np.array(rows, dtype=float)
    except ValueError as exc:
        raise InputFileError(f"malformed landmark file {path}: {exc}") from exc


def write_landmarks(path, coords) -> None:
    coords = np.asarray(coords, dtype=float)
    k, m = coords.shape
    lines = [f"{k} {m}"]
    lines += [" ".join(format(v, ".17g") for v in row) for row in coords]
    Path(path).write_text("\n".join(lines) + "\n")


def _infer_response_type(values: NDArray) -> str:
    uniq = set(np.unique(values).tolist())
    if uniq <= {0.0, 1.0}:
        return "binary"
    if uniq <= {1.0, 2.0, 3.0} and all(float(v).is_integer() for v in uniq):
        return "ordinal3"
    return "continuous"


def read_manifest(path) -> tuple[dict, list[Path]]:
    """The columns of a manifest, as the keyword arguments of a
    :class:`DatasetBundle` (``ids``, ``subjects``, ``y``, ``x``,
    ``covariate_names`` and ``response_type``), and each row's landmark file,
    resolved against the manifest's directory. A column named twice is
    rejected."""
    path = Path(path)
    declared = None
    rows = []
    for ln in _read_text(path, "manifest").splitlines():
        stripped = ln.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            if body.lower().startswith("response_type:"):
                declared = body.split(":", 1)[1].strip().lower()
            continue
        rows.append(ln)
    if not rows:
        raise InputFileError(f"manifest {path} has no records")
    reader = csv.reader(rows)
    field_names = [f.strip() for f in next(reader)]
    required = {"id", "file", "response"}
    if not required <= set(field_names):
        raise InputFileError(
            f"manifest {path} must have columns id,file,response; got {field_names}")
    repeated = [f for f in field_names if field_names.count(f) > 1]
    if repeated:
        raise InputFileError(f"manifest {path} repeats column {repeated[0]!r}")
    cov_names = tuple(f for f in field_names
                      if f not in required and f != "subject")
    subjects, files, y, x = {}, [], [], []   # subjects by id, in row order
    for values in reader:
        row = dict(zip(field_names, (v.strip() for v in values)))
        rid = row.get("id", values[0].strip())
        if len(values) != len(field_names):
            raise InputFileError(
                f"manifest {path} row {rid!r} has {len(values)} fields; its "
                f"header has {len(field_names)}")
        if rid in subjects:
            raise InputFileError(f"duplicate record id {rid!r} in manifest {path}")
        try:
            y.append(float(row["response"]))
            x.append([float(row[c]) for c in cov_names])
        except (TypeError, ValueError) as exc:
            raise InputFileError(
                f"non-numeric value in manifest {path} row {rid!r}: {exc}") from exc
        subjects[rid] = row.get("subject") or rid
        files.append(path.parent / row["file"])
    if not subjects:
        raise InputFileError(f"manifest {path} has no records")
    y = np.array(y)
    rtype = declared or _infer_response_type(y)
    if rtype not in ("binary", "ordinal3", "continuous"):
        raise InputFileError(f"unknown response type {rtype!r} in manifest {path}")
    return dict(ids=list(subjects), subjects=list(subjects.values()), y=y,
                x=np.array(x, dtype=float), covariate_names=cov_names,
                response_type=rtype), files


@dataclass
class DatasetBundle:
    """Aligned arrays for one dataset plus the shared smoothing cache
    (``None`` when read by :func:`read_dataset` alone)."""

    ids: list[str]
    subjects: list[str]
    y: NDArray[np.floating]
    x: NDArray[np.floating]
    covariate_names: tuple[str, ...]
    response_type: str
    samples: list[ShapeSample]
    backend: KendallShapeBackend
    cache: SmootherCache | None
    content_hash: str

    @property
    def shapes(self) -> list:
        """Manifold points; unwraps :class:`ShapeSample` where present so
        synthetic bundles may hold backend points directly."""
        return [s.preshape if isinstance(s, ShapeSample) else s
                for s in self.samples]

    @property
    def sizes(self) -> NDArray[np.floating]:
        return np.array([s.size for s in self.samples
                         if isinstance(s, ShapeSample)])


def _content_hash(samples: list[ShapeSample], ids: list[str],
                  backend_desc: str) -> str:
    digest = hashlib.sha256()
    digest.update(backend_desc.encode())
    for rid, s in zip(ids, samples):
        digest.update(rid.encode())
        digest.update(np.ascontiguousarray(s.preshape.z).tobytes())
    return digest.hexdigest()


def provenance_hash(bundle: DatasetBundle) -> str:
    """Hash of every training input a saved fit depends on.

    Covers the content hash (ids, preshapes, backend) together with the
    response, the covariates, their names and the response type, which
    ``predict`` reuses from the training manifest. The distance cache stays
    keyed by the content hash alone.
    """
    digest = hashlib.sha256(bundle.content_hash.encode())
    digest.update(json.dumps([list(bundle.covariate_names), bundle.response_type,
                              list(bundle.x.shape)]).encode())
    digest.update(np.ascontiguousarray(bundle.y, dtype=float).tobytes())
    digest.update(np.ascontiguousarray(bundle.x, dtype=float).tobytes())
    return digest.hexdigest()


def _write_atomically(path: Path, data: bytes | None = None, **arrays) -> None:
    """Write ``data``, or else ``np.savez`` of ``arrays``, to ``path`` through
    a temporary file in the same directory, so a reader never sees a partly
    written file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            if data is None:
                np.savez(fh, **arrays)
            else:
                fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_dataset(manifest_path) -> DatasetBundle:
    """Read a manifest and its landmark files into a :class:`DatasetBundle`
    without pairwise matrices (``cache`` is ``None``).

    All configurations must share one ``(k, m)``; a mismatch is rejected
    naming the offending record, and a configuration whose landmarks coincide
    or hold a non-finite coordinate naming its file.
    """
    columns, paths = read_manifest(manifest_path)
    configs = [read_landmarks(fpath) for fpath in paths]
    k, m = configs[0].shape
    samples = []
    for rid, fpath, cfg in zip(columns["ids"], paths, configs):
        if cfg.shape != (k, m):
            raise InputFileError(
                f"record {rid!r} of manifest {manifest_path} has landmark "
                f"dimensions {cfg.shape}, expected {(k, m)}")
        try:
            samples.append(preshape(cfg))
        except InvalidArgumentError as exc:   # coincident or non-finite landmarks
            raise InputFileError(f"landmark file {fpath}: {exc}") from exc
    backend = KendallShapeBackend(k=k, m=m)
    return DatasetBundle(**columns, samples=samples, backend=backend, cache=None,
                         content_hash=_content_hash(samples, columns["ids"],
                                                    backend.description))


def ingest(manifest_path, use_disk_cache: bool = True,
           cache_dir=None) -> DatasetBundle:
    """Load a manifest into a :class:`DatasetBundle` with its pairwise cache.

    The manifest and landmarks are read by :func:`read_dataset`. The pairwise
    matrices are loaded from the content-keyed disk cache when present,
    otherwise computed once, counted in
    :data:`shapegplm.geometry.MATRIX_BUILD_COUNTS` under the content hash,
    and saved.
    """
    bundle = read_dataset(manifest_path)
    content = bundle.content_hash
    cache = None
    if use_disk_cache:
        cdir = Path(cache_dir) if cache_dir else Path(manifest_path).parent / ".shapegplm-cache"
        cache_file = cdir / f"distances-{content[:16]}.npz"
        try:
            with np.load(cache_file) as stored:
                if ("content_hash" in stored
                        and str(stored["content_hash"]) == content):
                    cache = SmootherCache(dist=stored["dist"],
                                          logdens=stored["logdens"])
        except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
            cache = None  # missing, truncated or corrupt: rebuild and overwrite
    if cache is None:
        MATRIX_BUILD_COUNTS[content] = MATRIX_BUILD_COUNTS.get(content, 0) + 1
        cache = SmootherCache.from_points(bundle.shapes, bundle.backend)
        if use_disk_cache:
            _write_atomically(cache_file, dist=cache.dist, logdens=cache.logdens,
                              content_hash=np.asarray(content))
    bundle.cache = cache
    return bundle


@dataclass(frozen=True)
class RunConfig:
    """Everything a report must echo to make a run reproducible."""

    command: str
    model: str
    bandwidth: float | None
    grid: tuple[float, ...]
    threshold: float
    max_iter: int
    ridge: float
    prob_floor: float
    separation_deviance: float
    irls_variant: str
    var_threshold: float
    use_disk_cache: bool
    manifest: str
    output_dir: str

    def as_lines(self) -> list[str]:
        return [f"{key} = {value}" for key, value in vars(self).items()]


def write_fit_report(path, fit, bundle, run_config: RunConfig) -> None:
    """Human-readable fit report: config echo, slope, per-row table, trace."""
    lines = ["# shapegplm fit report", "", "[run]"]
    lines += run_config.as_lines()
    lines += [f"dataset_hash = {bundle.content_hash}", "", "[fit]",
              f"model = {fit.model}",
              f"status = {fit.status}",
              f"converged = {fit.converged}",
              f"iterations = {fit.iterations}",
              f"bandwidth = {fit.bandwidth!r}",
              "beta = " + " ".join(format(b, ".10g") for b in fit.beta),
              "", "[per-row]  id  g...  phi0..."]
    for i, rid in enumerate(bundle.ids):
        gs = " ".join(format(v, ".6f") for v in np.atleast_1d(fit.g[i]))
        p0 = " ".join(format(v, ".6f") for v in np.atleast_1d(fit.phi0[i]))
        lines.append(f"{rid}  {gs}  {p0}")
    lines += ["", "[e-trace]"]
    lines += [f"{j + 1} {e:.10e}" for j, e in enumerate(fit.e_trace)]
    Path(path).write_text("\n".join(lines) + "\n")


_FIT_ARRAYS = ("beta", "phi0", "phi", "g", "z_final")
_STATE_FIELDS = tuple(f.name for f in fields(GplmFit)) + (
    "dataset_hash", "provenance_hash", "manifest")


def write_model_state(path, fit, bundle, run_config: RunConfig) -> None:
    """Machine-readable companion of the fit report: every field of the fit,
    which :func:`load_model_state` turns back into the same fit, plus the
    dataset and provenance hashes and the manifest, as an absolute path, that
    ``predict`` reads and checks against. Written like the distance cache,
    through a temporary file, so a crashed or concurrent ``fit`` leaves a
    whole state behind."""
    state = {f.name: getattr(fit, f.name) for f in fields(fit)}
    state.update({name: state[name].tolist() for name in _FIT_ARRAYS})
    state.update(dataset_hash=bundle.content_hash,
                 provenance_hash=provenance_hash(bundle),
                 manifest=str(Path(run_config.manifest).absolute()),
                 irls_variant=run_config.irls_variant)
    _write_atomically(Path(path), (json.dumps(state, indent=2) + "\n").encode())


def load_model_state(path) -> tuple[GplmFit, dict]:
    """The fit stored by :func:`write_model_state`, and the whole record.

    A file that is not a JSON object, lacks an entry, holds a value of the
    wrong kind, a non-finite array entry or a bandwidth that is not finite and
    positive raises :class:`InputFileError` naming the file.
    """
    try:
        state = json.loads(_read_text(Path(path), "fit state"))
    except json.JSONDecodeError as exc:
        raise InputFileError(f"fit state {path} is not JSON: {exc}") from exc
    if not isinstance(state, dict):
        raise InputFileError(f"fit state {path} is not a JSON object")
    missing = [name for name in _STATE_FIELDS if name not in state]
    if missing:
        raise InputFileError(f"fit state {path} has no {missing[0]!r} entry; "
                             "write it again with `fit`")
    for name in ("manifest", "provenance_hash"):
        if not isinstance(state[name], str):
            raise InputFileError(f"fit state {path} holds a malformed value: "
                                 f"{name} {state[name]!r} is not a string")
    values = {f.name: state[f.name] for f in fields(GplmFit)}
    try:
        values.update({name: np.asarray(values[name], dtype=float) for name in _FIT_ARRAYS})
        values.update(bandwidth=float(values["bandwidth"]),
                      iterations=int(values["iterations"]))
    except (TypeError, ValueError) as exc:
        raise InputFileError(f"fit state {path} holds a malformed value: {exc}") from exc
    for name in _FIT_ARRAYS:
        if not np.isfinite(values[name]).all():
            raise InputFileError(f"fit state {path} holds a non-finite {name}")
    if not 0.0 < values["bandwidth"] < np.inf:
        raise InputFileError(f"fit state {path} holds bandwidth {values['bandwidth']!r}, "
                             "not a finite positive number")
    return GplmFit(**values), state


def write_cv_csv(path, detail_path, report, run_config: RunConfig,
                 dataset_hash: str = "") -> None:
    """Summary CSV (one row per bandwidth) plus a per-row detail CSV.

    Both files open with ``#``-prefixed lines echoing the run configuration
    and the dataset content hash, so any result can be traced to its inputs.
    """
    preamble = [f"# {line}" for line in run_config.as_lines()]
    preamble.append(f"# dataset_hash = {dataset_hash}")
    for target, write_body in (
        (path, lambda w: _write_cv_summary(w, report)),
        (detail_path, lambda w: _write_cv_detail(w, report)),
    ):
        with open(target, "w", newline="") as fh:
            fh.write("\n".join(preamble) + "\n")
            write_body(csv.writer(fh))


def _write_cv_summary(writer, report) -> None:
    writer.writerow(["h", "accuracy_percent", "n_evaluated", "n_correct"])
    for h in report.bandwidths:
        writer.writerow([format(h, ".17g"),
                         format(report.accuracy[h], ".6f"),
                         report.n_evaluated[h], report.n_correct[h]])


def _write_cv_detail(writer, report) -> None:
    writer.writerow(["h", "row_id", "subject", "true", "predicted", "probs"])
    for p in report.predictions:
        writer.writerow([format(p.bandwidth, ".17g"), p.row_id, p.subject,
                         p.true_label, p.predicted,
                         " ".join(format(v, ".8f") for v in p.probs)])


def read_csv_body(path) -> list[dict]:
    """Rows of a report CSV, skipping the ``#`` preamble."""
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln and not ln.startswith("#")]
    return list(csv.DictReader(lines))
