"""Dataset ingestion, distance-cache persistence, and report emission.

Landmark files are plain text: a header line ``k m`` followed by ``k`` rows
of ``m`` whitespace-separated decimals. A manifest is a CSV with columns
``id,file,response`` plus any number of named covariate columns and an
optional ``subject`` column grouping rows that belong to one individual
(cross-validation folds leave out whole subjects). Lines starting with ``#``
are directives or comments; ``# response_type: binary|ordinal3|continuous``
overrides the inferred response kind.

The pairwise distance and log-density matrices are cached on disk as a
``.npz`` file keyed by a content hash of the preshapes, so unchanged data is
never re-measured, and invalidation follows content, never timestamps. The
file is written through a temporary file and renamed into place; one that
cannot be read back counts as a miss and is rebuilt.
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

from .errors import InvalidArgumentError
from .geometry import KendallShapeBackend, ShapeSample, preshape
from .models import GplmFit
from .smoothing import SmootherCache

__all__ = ["read_landmarks", "write_landmarks", "DatasetManifest",
           "ManifestRecord", "DatasetBundle", "read_dataset", "ingest", "RunConfig",
           "write_fit_report", "write_model_state", "load_model_state",
           "write_cv_csv"]


def read_landmarks(path) -> NDArray[np.floating]:
    """Read one ``k x m`` configuration from a landmark text file."""
    path = Path(path)
    try:
        lines = [ln for ln in path.read_text().splitlines()
                 if ln.strip() and not ln.lstrip().startswith("#")]
    except OSError as exc:
        raise OSError(f"cannot read landmark file {path}: {exc}") from exc
    try:
        k, m = (int(tok) for tok in lines[0].split())
        rows = [[float(tok) for tok in ln.split()] for ln in lines[1:k + 1]]
    except (ValueError, IndexError) as exc:
        raise InvalidArgumentError(f"malformed landmark file {path}: {exc}") from exc
    if len(rows) != k or any(len(r) != m for r in rows):
        raise InvalidArgumentError(
            f"landmark file {path} promises {k} x {m} but delivers otherwise")
    return np.asarray(rows, dtype=float)


def write_landmarks(path, coords) -> None:
    coords = np.asarray(coords, dtype=float)
    k, m = coords.shape
    lines = [f"{k} {m}"]
    lines += [" ".join(format(v, ".17g") for v in row) for row in coords]
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class ManifestRecord:
    id: str
    file: str
    response: float
    covariates: tuple[float, ...]
    subject: str


@dataclass(frozen=True)
class DatasetManifest:
    records: tuple[ManifestRecord, ...]
    covariate_names: tuple[str, ...]
    response_type: str
    base_dir: Path


def _infer_response_type(values: NDArray) -> str:
    uniq = set(np.unique(values).tolist())
    if uniq <= {0.0, 1.0}:
        return "binary"
    if uniq <= {1.0, 2.0, 3.0} and all(float(v).is_integer() for v in uniq):
        return "ordinal3"
    return "continuous"


def read_manifest(path) -> DatasetManifest:
    path = Path(path)
    declared = None
    rows = []
    try:
        raw = path.read_text().splitlines()
    except OSError as exc:
        raise OSError(f"cannot read manifest {path}: {exc}") from exc
    for ln in raw:
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
        raise InvalidArgumentError(f"manifest {path} has no records")
    reader = csv.DictReader(rows)
    field_names = [f.strip() for f in (reader.fieldnames or [])]
    required = {"id", "file", "response"}
    if not required <= set(field_names):
        raise InvalidArgumentError(
            f"manifest {path} must have columns id,file,response; got {field_names}")
    cov_names = tuple(f for f in field_names
                      if f not in required and f != "subject")
    records = []
    ids_seen = set()
    for row in reader:
        row = {k.strip(): (v.strip() if isinstance(v, str) else v)
               for k, v in row.items()}
        rid = row["id"]
        if rid in ids_seen:
            raise InvalidArgumentError(f"duplicate record id {rid!r} in manifest")
        ids_seen.add(rid)
        try:
            resp = float(row["response"])
            covs = tuple(float(row[c]) for c in cov_names)
        except (TypeError, ValueError) as exc:
            raise InvalidArgumentError(
                f"non-numeric value in manifest row {rid!r}: {exc}") from exc
        records.append(ManifestRecord(
            id=rid, file=row["file"], response=resp, covariates=covs,
            subject=row.get("subject") or rid))
    if not records:
        raise InvalidArgumentError(f"manifest {path} has no records")
    responses = np.array([r.response for r in records])
    rtype = declared or _infer_response_type(responses)
    if rtype not in ("binary", "ordinal3", "continuous"):
        raise InvalidArgumentError(f"unknown response type {rtype!r}")
    return DatasetManifest(records=tuple(records), covariate_names=cov_names,
                           response_type=rtype, base_dir=path.parent)


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


def _write_atomically(path: Path, **arrays) -> None:
    """``np.savez`` to ``path`` through a temporary file in the same
    directory, so a reader never sees a partly written cache."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_dataset(manifest_path) -> DatasetBundle:
    """Read a manifest and its landmark files into a :class:`DatasetBundle`
    without pairwise matrices (``cache`` is ``None``).

    All configurations must share one ``(k, m)``; a mismatch is rejected
    naming the offending record.
    """
    manifest = read_manifest(manifest_path)
    configs = []
    for rec in manifest.records:
        fpath = Path(rec.file)
        if not fpath.is_absolute():
            fpath = manifest.base_dir / fpath
        configs.append(read_landmarks(fpath))
    k, m = configs[0].shape
    for rec, cfg in zip(manifest.records, configs):
        if cfg.shape != (k, m):
            raise InvalidArgumentError(
                f"record {rec.id!r} has landmark dimensions {cfg.shape}, "
                f"expected {(k, m)}")
    samples = [preshape(c) for c in configs]
    ids = [r.id for r in manifest.records]
    backend = KendallShapeBackend(k=k, m=m)
    x = np.array([r.covariates for r in manifest.records], dtype=float)
    if x.size == 0:
        x = np.zeros((len(ids), 0))
    return DatasetBundle(
        ids=ids, subjects=[r.subject for r in manifest.records],
        y=np.array([r.response for r in manifest.records]),
        x=x, covariate_names=manifest.covariate_names,
        response_type=manifest.response_type, samples=samples,
        backend=backend, cache=None,
        content_hash=_content_hash(samples, ids, backend.description))


def ingest(manifest_path, use_disk_cache: bool = True,
           cache_dir=None) -> DatasetBundle:
    """Load a manifest into a :class:`DatasetBundle` with its pairwise cache.

    The manifest and landmarks are read by :func:`read_dataset`. The pairwise
    matrices are loaded from the content-keyed disk cache when present,
    otherwise computed once and saved.
    """
    bundle = read_dataset(manifest_path)
    content = bundle.content_hash
    cache = None
    cache_file = None
    if use_disk_cache:
        cdir = Path(cache_dir) if cache_dir else Path(manifest_path).parent / ".shapegplm-cache"
        cache_file = cdir / f"distances-{content[:16]}.npz"
        if cache_file.exists():
            try:
                with np.load(cache_file) as stored:
                    if ("content_hash" in stored
                            and str(stored["content_hash"]) == content):
                        cache = SmootherCache(dist=stored["dist"],
                                              logdens=stored["logdens"])
            except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
                cache = None  # truncated or corrupt: rebuild and overwrite
    if cache is None:
        cache = SmootherCache.from_points(bundle.shapes, bundle.backend,
                                          count_label=content)
        if use_disk_cache and cache_file is not None:
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


def write_model_state(path, fit, bundle, run_config: RunConfig) -> None:
    """Machine-readable companion of the fit report: every field of the fit,
    which :func:`load_model_state` turns back into the same fit, plus the
    dataset hash and manifest that ``predict`` checks and reads."""
    state = {f.name: getattr(fit, f.name) for f in fields(fit)}
    state.update({name: state[name].tolist() for name in _FIT_ARRAYS})
    state.update(dataset_hash=bundle.content_hash,
                 manifest=str(run_config.manifest),
                 irls_variant=run_config.irls_variant)
    Path(path).write_text(json.dumps(state, indent=2) + "\n")


def load_model_state(path) -> tuple[GplmFit, dict]:
    """The fit stored by :func:`write_model_state`, and the whole record."""
    state = json.loads(Path(path).read_text())
    try:
        values = {f.name: state[f.name] for f in fields(GplmFit)}
    except KeyError as exc:
        raise InvalidArgumentError(
            f"fit state {path} has no {exc} entry; write it again with `fit`") from exc
    values.update({name: np.asarray(values[name], dtype=float) for name in _FIT_ARRAYS})
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
