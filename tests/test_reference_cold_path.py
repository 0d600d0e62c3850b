"""The per-query prediction loop, the per-value distance dump and the
per-token landmark parse that the batched ``predict``, ``distances`` and
ingest paths replace, kept as their references; and the LU-determinant
reflection test that the kernel's closed-form sign must reproduce.

Each batched path must give the same bits as its reference, not values
within a tolerance: the CLI outputs are compared byte for byte.
"""

import re

import numpy as np
import pytest

from shapegplm import (
    KendallShapeBackend,
    KernelSpec,
    helmert_submatrix,
    predict_logistic,
    predict_ordinal,
    preshape,
    read_landmarks,
    write_landmarks,
)
from shapegplm import io as dio
from shapegplm.cli import main
from shapegplm.errors import InputFileError
from shapegplm.geometry import (
    MATRIX_BUILD_COUNTS,
    _distances,
    _reflected,
    _shared_helmert,
)

from conftest import MACAQUE_MANIFEST, random_rotation
from test_reference_geometry import K_SYNTH, synthetic_k20


# --- the references ------------------------------------------------------------

def ref_distances_to(backend, query, points):
    """One query's row, stacking and checking the points with the query."""
    z = backend._stack([query, *points])
    return _distances(np.broadcast_to(z[0], z[1:].shape), z[1:])


def ref_predictions_csv(fit_state, query_manifest) -> str:
    """``predictions.csv`` as one ``distances_to`` call per query wrote it."""
    fit, state = dio.load_model_state(fit_state)
    train = dio.ingest(state["manifest"], use_disk_cache=False)
    query = dio.read_dataset(query_manifest)
    spec = KernelSpec(bandwidth=fit.bandwidth)
    lines = ["id,prediction,probs"]
    for i, rid in enumerate(query.ids):
        if fit.model == "logistic":
            p = predict_logistic(fit, query.x[i], query.shapes[i],
                                 train.shapes, train.x, spec, train.backend)
            lines.append(f"{rid},{1 if p > 0.5 else 0},{p:.8f}")
        else:
            pred = predict_ordinal(fit, query.x[i], query.shapes[i],
                                   train.shapes, train.x, spec, train.backend)
            probs = " ".join(format(v, ".8f") for v in pred.probs)
            lines.append(f"{rid},{pred.category},{probs}")
    return "\n".join(lines) + "\n"


def ref_distances_csv(manifest) -> str:
    """``distances.csv`` with one ``format`` call per value."""
    bundle = dio.ingest(manifest, use_disk_cache=False)
    text = "," + ",".join(bundle.ids) + "\n"
    for rid, row in zip(bundle.ids, bundle.cache.dist):
        text += rid + "," + ",".join(format(v, ".12g") for v in row) + "\n"
    return text


def ref_read_landmarks(path):
    """The landmark parse with one ``float()`` call per token."""
    lines = [ln for ln in path.read_text().splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    k, m = (int(tok) for tok in lines[0].split())
    rows = [[float(tok) for tok in ln.split()] for ln in lines[1:k + 1]]
    assert len(rows) == k and all(len(r) == m for r in rows)
    return np.asarray(rows, dtype=float)


# --- data ------------------------------------------------------------------------

def write_k20_dataset(root, n, seed, ordinal):
    """Seeded k=20 configurations along one deformation, with a label that
    follows its amount and a covariate, in random poses."""
    rng = np.random.default_rng(seed)
    anatomy = np.random.default_rng(7)
    base, direction = anatomy.normal(size=(2, K_SYNTH, 3))
    root.mkdir(parents=True)
    t = rng.normal(size=n)
    x1 = rng.normal(size=n)
    latent = 2.0 * t + 0.6 * x1 + rng.logistic(size=n)
    if ordinal:
        y = 1 + (latent > -0.5).astype(int) + (latent > 0.5).astype(int)
        rows = ["# response_type: ordinal3", "id,file,response,x1"]
    else:
        y = (latent > 0).astype(int)
        rows = ["# response_type: binary", "id,file,response,x1"]
    for i in range(n):
        cfg = base + 0.15 * t[i] * direction + 0.02 * rng.normal(size=base.shape)
        write_landmarks(root / f"r{i}.txt",
                        rng.uniform(0.5, 2.0) * cfg @ random_rotation(rng)
                        + rng.normal(size=3))
        rows.append(f"r{i},r{i}.txt,{y[i]},{x1[i]:.6f}")
    (root / "manifest.csv").write_text("\n".join(rows) + "\n")
    return root / "manifest.csv"


# --- query rows ----------------------------------------------------------------

@pytest.mark.parametrize("data", ["macaque", "synthetic"])
def test_cross_distances_match_per_query_rows(data, macaque_bundle):
    if data == "macaque":
        points, backend = macaque_bundle.shapes, macaque_bundle.backend
        queries = points[::3]
    else:
        shapes, backend = synthetic_k20(), KendallShapeBackend(k=K_SYNTH)
        points, queries = shapes[::2], shapes[1::2] + shapes[:3]
    rows = backend.cross_distances(queries, points)
    assert rows.shape == (len(queries), len(points))
    for q, row in zip(queries, rows):
        want = ref_distances_to(backend, q, points)
        assert np.array_equal(row, want)
        assert np.array_equal(backend.distances_to(q, points), want)


@pytest.mark.parametrize("data", ["macaque", "synthetic"])
def test_predictions_match_per_query_loop(data, tmp_path):
    if data == "macaque":
        train = query = MACAQUE_MANIFEST
        fit_args = ["--model", "logistic", "--h", "pi/100"]
    else:
        train = write_k20_dataset(tmp_path / "train", 40, seed=3, ordinal=True)
        query = write_k20_dataset(tmp_path / "query", 12, seed=4, ordinal=True)
        fit_args = ["--model", "ordinal", "--h", "pi/20", "--max-iter", "60"]
    out = tmp_path / "out"
    assert main(["fit", "--manifest", str(train), *fit_args, "--out", str(out),
                 "--no-cache"]) == 0
    assert main(["predict", "--fit", str(out / "fit_state.json"),
                 "--input", str(query), "--out", str(out)]) == 0
    got = (out / "predictions.csv").read_bytes()
    assert got == ref_predictions_csv(out / "fit_state.json", query).encode()


@pytest.mark.parametrize("no_cache", [False, True])
def test_predict_never_builds_the_training_matrix(no_cache, tmp_path, monkeypatch):
    train = write_k20_dataset(tmp_path / "train", 30, seed=5, ordinal=False)
    query = write_k20_dataset(tmp_path / "query", 6, seed=6, ordinal=False)
    out = tmp_path / "out"
    assert main(["fit", "--manifest", str(train), "--model", "logistic",
                 "--h", "pi/20", "--out", str(out)]) == 0
    label = dio.read_dataset(train).content_hash
    builds = MATRIX_BUILD_COUNTS.get(label, 0)

    def no_ingest(*args, **kwargs):
        raise AssertionError("predict loaded the training distance matrix")

    monkeypatch.setattr(dio, "ingest", no_ingest)
    argv = ["predict", "--fit", str(out / "fit_state.json"), "--input", str(query),
            "--out", str(out)]
    assert main(argv + ["--no-cache"] * no_cache) == 0
    assert MATRIX_BUILD_COUNTS.get(label, 0) == builds


# --- distances.csv ---------------------------------------------------------------

def test_distances_csv_matches_per_value_format(tmp_path):
    manifest = write_k20_dataset(tmp_path / "ds", 25, seed=8, ordinal=False)
    for path in (MACAQUE_MANIFEST, manifest):
        out = tmp_path / "out"
        assert main(["distances", "--manifest", str(path), "--out", str(out),
                     "--no-cache"]) == 0
        assert (out / "distances.csv").read_bytes() == ref_distances_csv(path).encode()


# --- the closed-form sign ----------------------------------------------------------

def sign_test_pairs(m, rng):
    """Preshape pairs of ``m``-dimensional configurations: random, planar
    (rank m - 1), duplicated, mirrored and rotated copies."""
    k = 8
    configs = [rng.normal(size=(k, m)) for _ in range(12)]
    for _ in range(4):
        planar = rng.normal(size=(k, m))
        planar[:, -1] = 0.0
        configs += [planar, planar @ random_rotation(rng, m)]
    mirror = np.diag([1.0] * (m - 1) + [-1.0])
    configs += [x @ mirror for x in configs[:12]]
    configs += [x @ random_rotation(rng, m) for x in configs[:6]]
    configs += configs[:3]
    z = np.array([preshape(x).preshape.z for x in configs])
    i, j = np.triu_indices(len(z))   # the diagonal pairs each preshape with itself
    return z[i], z[j]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_closed_form_sign_matches_lu_determinants(m, rng):
    za, zb = sign_test_pairs(m, rng)
    u, _, vt = np.linalg.svd(np.matmul(zb.transpose(0, 2, 1), za))
    want = np.linalg.det(u) * np.linalg.det(vt) < 0
    assert 0 < want.sum() < len(want)   # both signs occur
    assert np.array_equal(_reflected(u, vt), want)
    # for m = 3 the closed form gives the LU sign in a stack and for a pair alone
    alone = [bool(_reflected(u[i:i + 1], vt[i:i + 1])[0]) for i in range(len(u))]
    assert alone == list(want)


# --- ingest ---------------------------------------------------------------------

@pytest.mark.parametrize("tokens", [
    ["0.12345678901234567", "-1.2345678901234567e-300", "9.8765432109876543E+307"],
    ["1_000.000_1", "+2.5e-3", "-0"],
    ["١٢٣.٥", "１２", "4.9e-324"],
    ["nan", "-inf", "Infinity"],
])
def test_landmark_parse_matches_float(tokens, tmp_path):
    path = tmp_path / "spec.txt"
    rows = [" ".join(tokens), " ".join(reversed(tokens))]
    path.write_text("# comment\n2 3\n" + "\n".join(rows) + "\n")
    got, want = read_landmarks(path), ref_read_landmarks(path)
    assert got.dtype == want.dtype and got.shape == want.shape == (2, 3)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("body", ["1 2 3\n4 x 6\n", "1 2 3\n4 5\n", "1 2 3\n4 5 6 7\n"])
def test_malformed_landmark_rows_exit_1(body, tmp_path, capsys):
    manifest = write_k20_dataset(tmp_path / "ds", 6, seed=9, ordinal=False)
    bad = manifest.parent / "r4.txt"
    bad.write_text("2 3\n" + body)
    with pytest.raises(InputFileError, match=re.escape(str(bad))):
        read_landmarks(bad)
    assert main(["distances", "--manifest", str(manifest),
                 "--out", str(tmp_path / "o"), "--no-cache"]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err and "numerical failure" not in err


def test_preshape_uses_a_shared_read_only_helmert(rng):
    for k in (3, 7, K_SYNTH):
        x = rng.normal(size=(k, 3))
        xh = helmert_submatrix(k) @ x
        want = xh / float(np.linalg.norm(xh))
        assert np.array_equal(preshape(x).preshape.z, want)
        assert not _shared_helmert(k).flags.writeable
        fresh = helmert_submatrix(k)
        fresh[:] = 0.0   # the public function still returns a private array
        assert np.array_equal(preshape(x).preshape.z, want)
