"""Seeded synthetic Kendall datasets, the CLI sessions run on them, and the
checks that their outputs are correct.

Every dataset is drawn from one model: a base configuration of ``k``
landmarks in 3D is deformed along one shape direction by a per-subject
latent score ``t``, perturbed by isotropic landmark noise, and then moved by
a random similarity (scale, rotation, translation) that the shape space must
ignore. The response is a noisy function of ``t`` and one Euclidean
covariate ``x1``: a median split for binary data, tertiles for the
three-class ordinal data. The program only ever sees the landmark files and
manifests written here.

The work a session does (IRLS sweeps, Procrustes-mean sweeps) depends on the
shapes and labels, so the generator keeps them fixed for a workload: the
base shape and direction depend on ``k`` alone, and the scores, covariates,
labels and landmark noise on the workload's sizes alone. The seed draws what
the program must handle but what sets no amount of work: the pose (scale,
rotation, translation) of every configuration and the order of the rows in
each manifest. Runs with different seeds therefore time the same work on
different input files.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import statistics
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One closed-loop client: a dataset shape and a fixed command sequence."""

    name: str               # "cold_build" or "ordinal_compare"
    n: int                  # training rows
    k: int                  # landmarks per configuration
    rows_per_subject: int = 1
    n_query: int = 0        # unseen rows for `predict`
    accuracy_floor: float = 0.0   # percent, for every CV and baseline report
    spread: float = 0.15    # deformation size relative to the base shape
    noise: float = 0.015    # landmark noise relative to the base shape
    x_effect: float = 0.6   # weight of the covariate in the latent response
    label_noise: float = 1.0   # scale of the logistic noise in the response


_FULL = {
    "cold_build": Workload("cold_build", n=300, k=20, n_query=100),
    # sparse enough that every ordinal fit runs to max_iter, yet compact
    # enough that the Procrustes mean of the baseline converges in a steady
    # number of sweeps
    "ordinal_compare": Workload("ordinal_compare", n=90, k=7, rows_per_subject=2,
                                accuracy_floor=40.0, spread=0.3, noise=0.15,
                                x_effect=1.0, label_noise=0.5),
}
WORKLOADS = {
    "full": _FULL,
    # tiny sizes for the self-test: every code path in a few seconds; the
    # ordinal baseline needs 24 subjects to keep some folds unseparated
    "tiny": {name: replace(w, n=24 * w.rows_per_subject,
                           n_query=min(w.n_query, 8), accuracy_floor=0.0)
             for name, w in _FULL.items()},
}


class Ops:
    """Operations attempted and failed: CLI commands and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok


# --- data generation ---------------------------------------------------------

def _rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _shape_direction(base: np.ndarray, rng) -> np.ndarray:
    """A random deformation of ``base`` with its translation, scale and
    infinitesimal rotations removed, scaled to the base's centroid size, so
    that moving along it changes the shape by the same distance whatever
    the base."""
    c = base - base.mean(axis=0)
    d = rng.normal(size=base.shape)
    d -= d.mean(axis=0)
    skew = [np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]]),
            np.array([[0, 0, 1], [0, 0, 0], [-1, 0, 0]]),
            np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]])]
    span = np.stack([c.ravel()] + [(c @ a).ravel() for a in skew], axis=1)
    coef, *_ = np.linalg.lstsq(span, d.ravel(), rcond=None)
    d -= (span @ coef).reshape(d.shape)
    return d * (np.linalg.norm(c) / np.linalg.norm(d))


def _write_config(path: Path, coords: np.ndarray) -> None:
    k, m = coords.shape
    rows = [f"{k} {m}"] + [" ".join(format(v, ".17g") for v in row)
                           for row in coords]
    path.write_text("\n".join(rows) + "\n")


def _write_manifest(path: Path, response_type: str, rows: list[tuple]) -> None:
    lines = [f"# response_type: {response_type}", "id,file,response,subject,x1"]
    lines += [f"{rid},{rid}.txt,{y},{subj},{x:.6f}" for rid, y, subj, x in rows]
    path.write_text("\n".join(lines) + "\n")


def generate(w: Workload, seed: int, dest: Path) -> dict:
    """Write the workload's landmark files and manifests under ``dest``.

    Returns the manifest paths and the row ids in manifest order. The query
    set of ``cold_build`` is drawn from the same model as the training set
    but from subjects the training set does not contain.
    """
    # like one anatomical structure studied again and again
    anatomy = np.random.default_rng([w.k, 3])
    base = anatomy.normal(size=(w.k, 3))
    direction = w.spread * _shape_direction(base, anatomy)
    cohort = np.random.default_rng([w.n, w.k, w.rows_per_subject, w.n_query])
    pose = np.random.default_rng([seed, w.n, w.k, w.rows_per_subject])
    noise = w.noise * np.linalg.norm(base - base.mean(axis=0)) / math.sqrt(3 * w.k)

    # stratified latent scores and covariates
    n_sub = (w.n + w.n_query) // w.rows_per_subject
    grid = statistics.NormalDist().inv_cdf
    t = cohort.permutation([grid((i + 0.5) / n_sub) for i in range(n_sub)])
    x1 = cohort.permutation(t)
    latent = 2.0 * t + w.x_effect * x1 + w.label_noise * cohort.logistic(size=n_sub)
    if w.name == "ordinal_compare":
        cuts = np.quantile(latent, [1 / 3, 2 / 3])
        y = 1 + (latent > cuts[0]).astype(int) + (latent > cuts[1]).astype(int)
        response_type = "ordinal3"
    else:
        y = (latent > np.median(latent)).astype(int)
        response_type = "binary"

    out = {}
    n_train_sub = w.n // w.rows_per_subject
    for part, subjects in (("train", range(n_train_sub)),
                           ("query", range(n_train_sub, n_sub))):
        if not subjects:
            continue
        folder = dest / part
        folder.mkdir(parents=True)
        rows = []
        for s in subjects:
            for r in range(w.rows_per_subject):
                rid = f"{part[0]}{s:04d}_{r}"
                cfg = base + t[s] * direction + noise * cohort.normal(size=(w.k, 3))
                cfg = pose.uniform(0.5, 2.0) * cfg @ _rotation(pose) + pose.normal(size=3)
                _write_config(folder / f"{rid}.txt", cfg)
                rows.append((rid, int(y[s]), f"s{s:04d}", float(x1[s])))
        rows = [rows[i] for i in pose.permutation(len(rows))]
        _write_manifest(folder / "manifest.csv", response_type, rows)
        out[part] = {"manifest": folder / "manifest.csv",
                     "ids": [r[0] for r in rows],
                     "subjects": [r[2] for r in rows]}
    return out


# --- the sessions ------------------------------------------------------------

def session_commands(w: Workload, data: dict, out: Path) -> list[list[str]]:
    """The fixed command sequence of one session, as CLI argument lists."""
    train = str(data["train"]["manifest"])
    o = str(out)
    if w.name == "cold_build":
        return [["distances", "--manifest", train, "--out", o],
                ["fit", "--manifest", train, "--model", "logistic",
                 "--h", "pi/40", "--out", o],
                ["predict", "--fit", str(out / "fit_state.json"),
                 "--input", str(data["query"]["manifest"]), "--out", o]]
    return [["cv", "--manifest", train, "--model", "ordinal",
             "--grid", "pi/80,pi/40", "--max-iter", "300", "--out", o],
            ["baseline", "--manifest", train, "--out", o]]


def empty_caches(data: dict) -> None:
    """Delete the program's distance caches next to every manifest."""
    for part in data.values():
        shutil.rmtree(part["manifest"].parent / ".shapegplm-cache", ignore_errors=True)


# --- output checks -----------------------------------------------------------

def _read_config(path: Path) -> np.ndarray:
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    k, m = (int(v) for v in lines[0].split())
    return np.array([[float(v) for v in ln.split()] for ln in lines[1:k + 1]])


def oracle_distances(manifest: Path, ids: list[str], n_pairs: int,
                     seed: int) -> list[tuple[int, int, float]]:
    """Shape distances of ``n_pairs`` sampled row pairs, from the raw files.

    Centre, scale to unit Frobenius norm, align by Kabsch with the
    determinant correction, and take ``arccos`` of the signed singular-value
    sum. Independent of the program's own geometry code.
    """
    rng = np.random.default_rng([seed, 7])
    n = len(ids)
    pairs = set()
    while len(pairs) < min(n_pairs, n * (n - 1) // 2):
        i, j = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
        pairs.add((i, j))
    folder = manifest.parent
    unit = {}
    for i in {p for pair in pairs for p in pair}:
        c = _read_config(folder / f"{ids[i]}.txt")
        c = c - c.mean(axis=0)
        unit[i] = c / np.linalg.norm(c)
    out = []
    for i, j in sorted(pairs):
        u, s, vt = np.linalg.svd(unit[i].T @ unit[j])
        if np.linalg.det(u) * np.linalg.det(vt) < 0:
            s[-1] = -s[-1]
        out.append((i, j, math.acos(min(1.0, float(s.sum())))))
    return out


def _csv_rows(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    return list(csv.DictReader(lines))


def check_distances(ops: Ops, out: Path, ids: list[str], oracle) -> None:
    path = out / "distances.csv"
    if not ops.check(path.exists(), f"{path} missing"):
        return
    lines = path.read_text().splitlines()
    header = lines[0].split(",")[1:]
    body = [ln.split(",") for ln in lines[1:]]
    ops.check(header == ids and [r[0] for r in body] == ids,
              "distances.csv ids differ from the manifest")
    d = np.array([[float(v) for v in r[1:]] for r in body])
    ops.check(d.shape == (len(ids), len(ids)), f"distances.csv shape {d.shape}")
    if d.shape != (len(ids), len(ids)):
        return
    ops.check(np.max(np.abs(d - d.T)) <= 1e-12, "distances.csv not symmetric")
    ops.check(bool(np.all(np.diagonal(d) == 0.0)), "distances.csv diagonal not 0")
    ops.check(bool(d.min() >= 0.0 and d.max() <= math.pi / 2 + 1e-12),
              f"distances.csv outside [0, pi/2]: [{d.min()}, {d.max()}]")
    worst = max(abs(d[i, j] - ref) for i, j, ref in oracle)
    ops.check(len(oracle) >= 50 and worst <= 1e-9,
              f"distances.csv differs from the oracle by {worst:.3e} "
              f"over {len(oracle)} entries")


def check_fit(ops: Ops, out: Path, bandwidth: float) -> None:
    path = out / "fit_state.json"
    if not ops.check(path.exists(), f"{path} missing"):
        return
    state = json.loads(path.read_text())
    ops.check(bool(np.all(np.isfinite(state["beta"])))
              and abs(state["bandwidth"] - bandwidth) < 1e-15,
              f"fit_state.json malformed: beta={state['beta']} "
              f"h={state['bandwidth']}")


def check_predictions(ops: Ops, out: Path, ids: list[str]) -> None:
    path = out / "predictions.csv"
    if not ops.check(path.exists(), f"{path} missing"):
        return
    rows = list(csv.DictReader(path.read_text().splitlines()))
    ops.check([r["id"] for r in rows] == ids,
              f"predictions.csv has {len(rows)} rows for {len(ids)} queries")
    bad = [r["id"] for r in rows
           if not (0.0 <= float(r["probs"]) <= 1.0
                   and int(r["prediction"]) == int(float(r["probs"]) > 0.5))]
    ops.check(not bad, f"predictions.csv rows out of range: {bad[:5]}")


def check_cv(ops: Ops, out: Path, prefix: str, data_part: dict,
             n_classes: int, grid: list[float], floor: float) -> dict:
    """Check a summary/detail CSV pair; returns accuracy per bandwidth."""
    summary, detail = out / f"{prefix}_report.csv", out / f"{prefix}_detail.csv"
    if not ops.check(summary.exists() and detail.exists(),
                     f"{prefix} report files missing"):
        return {}
    rows = _csv_rows(summary)
    details = _csv_rows(detail)
    ops.check(len(rows) == len(grid)
              and all(abs(float(r["h"]) - h) < 1e-15 for r, h in zip(rows, grid)),
              f"{prefix}_report.csv bandwidths {[r['h'] for r in rows]}")
    rows_of = {}
    for rid, subj in zip(data_part["ids"], data_part["subjects"]):
        rows_of.setdefault(subj, set()).add(rid)
    accuracy = {}
    for r in rows:
        h = float(r["h"])
        acc, n_eval, n_corr = (float(r["accuracy_percent"]),
                               int(r["n_evaluated"]), int(r["n_correct"]))
        accuracy[h] = acc
        here = [d for d in details if float(d["h"]) == h]
        scored = {d["row_id"] for d in here}
        held_subjects = {d["subject"] for d in here}
        whole = all(rows_of.get(s, set()) <= scored for s in held_subjects)
        skipped_rows = sum(len(v) for s, v in rows_of.items()
                           if s not in held_subjects)
        ops.check(len(here) == n_eval == len(scored) and whole
                  and n_eval + skipped_rows == len(data_part["ids"]),
                  f"{prefix} h={h:.6g}: n_evaluated={n_eval} inconsistent "
                  f"with {len(here)} detail rows and the skipped folds")
        ops.check(n_corr == sum(d["true"] == d["predicted"] for d in here)
                  and abs(acc - 100.0 * n_corr / max(n_eval, 1)) < 1e-5,
                  f"{prefix} h={h:.6g}: n_correct/accuracy inconsistent")
        probs_ok = True
        for d in here:
            p = [float(v) for v in d["probs"].split()]
            probs_ok &= (len(p) == n_classes and min(p) >= 0.0
                         and max(p) <= 1.0 and abs(sum(p) - 1.0) <= 1e-6)
        ops.check(probs_ok, f"{prefix} h={h:.6g}: probabilities out of range")
        ops.check(acc >= floor,
                  f"{prefix} h={h:.6g}: accuracy {acc:.2f}% below {floor}%")
    return accuracy


def check_session(ops: Ops, w: Workload, data: dict, out: Path, oracle) -> dict:
    """Check one session's outputs; returns the CV accuracies it reported."""
    train = data["train"]
    if w.name == "cold_build":
        check_distances(ops, out, train["ids"], oracle)
        check_fit(ops, out, math.pi / 40)
        check_predictions(ops, out, data["query"]["ids"])
        return {}
    acc = check_cv(ops, out, "cv", train, 3, [math.pi / 80, math.pi / 40],
                   w.accuracy_floor)
    base = check_cv(ops, out, "baseline", train, 3, [0.0], w.accuracy_floor)
    return {**{f"cv@{h:.6g}": a for h, a in acc.items()},
            **{"baseline": a for a in base.values()}}


# --- the paper anchor --------------------------------------------------------

MACAQUE_GRID = {"pi/100": 18, "pi/50": 16, "pi/25": 16, "pi/10": 16}


def macaque_command(manifest: Path, out: Path) -> list[str]:
    return ["cv", "--manifest", str(manifest), "--model", "logistic",
            "--grid", ",".join(MACAQUE_GRID), "--no-cache", "--out", str(out)]


def check_macaque(ops: Ops, out: Path) -> None:
    """The published crania table: 18/18 at pi/100, 16/18 elsewhere."""
    path = out / "cv_report.csv"
    if not ops.check(path.exists(), "macaque cv_report.csv missing"):
        return
    got = {float(r["h"]): (int(r["n_correct"]), int(r["n_evaluated"]))
           for r in _csv_rows(path)}
    for text, correct in MACAQUE_GRID.items():
        h = math.pi / float(text[3:])
        found = next((v for g, v in got.items() if abs(g - h) < 1e-12), None)
        ops.check(found == (correct, 18),
                  f"macaque anchor at {text}: got {found}, expected {correct}/18")
