import csv
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from shapegplm import (
    FitConfig,
    GplmFit,
    InvalidArgumentError,
    KernelSpec,
    fit_logistic_plm,
    fit_ordinal_plm,
    ingest,
    predict_logistic,
    predict_ordinal,
    read_landmarks,
    write_landmarks,
)
from shapegplm import io as dio
from shapegplm.cli import main, parse_bandwidth
from shapegplm.geometry import DISTANCE_KERNEL, MATRIX_BUILD_COUNTS, KendallShapeBackend
from shapegplm.io import load_model_state

from conftest import MACAQUE_MANIFEST, REPO_ROOT, random_configuration


class TestLandmarkFiles:
    def test_round_trip(self, rng, tmp_path):
        coords = random_configuration(rng, k=9, m=3)
        path = tmp_path / "spec.txt"
        write_landmarks(path, coords)
        back = read_landmarks(path)
        np.testing.assert_array_equal(back, coords)

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("seven three\n1 2 3\n")
        with pytest.raises(InvalidArgumentError):
            read_landmarks(p)

    def test_row_count_mismatch(self, tmp_path):
        p = tmp_path / "short.txt"
        p.write_text("3 3\n1 2 3\n4 5 6\n")
        with pytest.raises(InvalidArgumentError):
            read_landmarks(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_landmarks(tmp_path / "absent.txt")


def write_tiny_dataset(rng, root, n=6, k=5, seed_configs=None, covariates=("cov",)):
    root.mkdir(parents=True, exist_ok=True)
    rows = ["# response_type: binary", "id,file,response," + ",".join(covariates)]
    for i in range(n):
        coords = random_configuration(rng, k=k, m=3)
        write_landmarks(root / f"t{i}.txt", coords)
        rows.append(f"t{i},t{i}.txt,{i % 2},"
                    + ",".join(f"{rng.normal():.6f}" for _ in covariates))
    (root / "manifest.csv").write_text("\n".join(rows) + "\n")
    return root / "manifest.csv"


def write_noisy_ordinal_dataset(rng, root, n=15):
    """Ordinal labels drawn independently of the shapes, so that no
    cross-validation fold separates."""
    root.mkdir(parents=True, exist_ok=True)
    rows = ["# response_type: ordinal3", "id,file,response,cov"]
    base = random_configuration(rng, k=5)
    for i in range(n):
        coords = base + rng.normal(0, 0.3, base.shape)
        write_landmarks(root / f"t{i}.txt", coords)
        rows.append(f"t{i},t{i}.txt,{rng.integers(1, 4)},{rng.normal():.5f}")
    (root / "manifest.csv").write_text("\n".join(rows) + "\n")
    return root / "manifest.csv"


class TestIngest:
    def test_macaque_bundle_shape(self, macaque_bundle):
        b = macaque_bundle
        assert len(b.ids) == 18
        assert (b.backend.k, b.backend.m) == (7, 3)
        assert b.cache.dist.shape == (18, 18)
        assert np.all(b.cache.dist == b.cache.dist.T)
        assert np.all(b.cache.dist.diagonal() == 0.0)
        assert b.response_type == "binary"
        assert b.covariate_names == ("size",)

    def test_disk_cache_hit_skips_recomputation(self, rng, tmp_path):
        manifest = write_tiny_dataset(rng, tmp_path / "ds")
        first = ingest(manifest)
        label = first.content_hash
        builds_after_first = MATRIX_BUILD_COUNTS.get(label, 0)
        assert builds_after_first == 1
        second = ingest(manifest)
        assert MATRIX_BUILD_COUNTS.get(label, 0) == builds_after_first
        np.testing.assert_array_equal(first.cache.dist, second.cache.dist)
        np.testing.assert_array_equal(first.cache.logdens, second.cache.logdens)
        assert first.content_hash == second.content_hash

    @pytest.mark.parametrize("corrupt", [
        lambda path: path.write_bytes(path.read_bytes()[:100]),
        lambda path: path.write_bytes(b"not a distance cache\n" * 20),
    ], ids=["truncated", "garbage"])
    def test_corrupt_disk_cache_is_a_miss(self, rng, tmp_path, corrupt):
        manifest = write_tiny_dataset(rng, tmp_path / "ds", n=7)
        label = ingest(manifest).content_hash
        (cache_file,) = (tmp_path / "ds" / ".shapegplm-cache").glob("*")
        corrupt(cache_file)
        builds = MATRIX_BUILD_COUNTS[label]
        bundle = ingest(manifest)
        assert MATRIX_BUILD_COUNTS[label] == builds + 1
        assert list(cache_file.parent.iterdir()) == [cache_file]
        with np.load(cache_file) as stored:
            assert str(stored["content_hash"]) == label
            np.testing.assert_array_equal(stored["dist"], bundle.cache.dist)

    @pytest.mark.parametrize("kernel", [None, "svd", "qcp-svd"],
                             ids=["no kernel entry", "another", "previous"])
    def test_cache_of_another_distance_kernel_is_rebuilt_once(self, rng, tmp_path, kernel):
        """A cache written by another distance evaluation, or before caches
        named theirs, is rebuilt and overwritten once, and then hit."""
        manifest = write_tiny_dataset(rng, tmp_path / "ds", n=7)
        bundle = ingest(manifest)
        label = bundle.content_hash
        (cache_file,) = (tmp_path / "ds" / ".shapegplm-cache").glob("*")
        # a valid cache whose distances differ from this kernel's
        stale = {"dist": 0.5 * bundle.cache.dist, "logdens": bundle.cache.logdens,
                 "content_hash": np.asarray(label)}
        if kernel is not None:
            stale["kernel"] = np.asarray(kernel)
        with open(cache_file, "wb") as fh:
            np.savez(fh, **stale)
        builds = MATRIX_BUILD_COUNTS[label]
        rebuilt = ingest(manifest)
        assert MATRIX_BUILD_COUNTS[label] == builds + 1
        np.testing.assert_array_equal(rebuilt.cache.dist, bundle.cache.dist)
        hit = ingest(manifest)
        assert MATRIX_BUILD_COUNTS[label] == builds + 1
        np.testing.assert_array_equal(hit.cache.dist, bundle.cache.dist)
        assert list(cache_file.parent.iterdir()) == [cache_file]
        with np.load(cache_file) as stored:
            assert str(stored["kernel"]) == DISTANCE_KERNEL

    def test_dimension_mismatch_names_offender(self, rng, tmp_path):
        root = tmp_path / "ds"
        manifest = write_tiny_dataset(rng, root)
        write_landmarks(root / "t3.txt", random_configuration(rng, k=9, m=3))
        with pytest.raises(InvalidArgumentError, match="t3"):
            ingest(manifest, use_disk_cache=False)

    def test_empty_manifest_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("id,file,response\n")
        with pytest.raises(InvalidArgumentError):
            ingest(p)

    def test_duplicate_ids_rejected(self, rng, tmp_path):
        root = tmp_path / "ds"
        manifest = write_tiny_dataset(rng, root)
        text = manifest.read_text().replace("t1,t1.txt", "t0,t1.txt")
        manifest.write_text(text)
        with pytest.raises(InvalidArgumentError, match="duplicate"):
            ingest(manifest)

    def test_unreadable_landmark_file(self, rng, tmp_path):
        root = tmp_path / "ds"
        manifest = write_tiny_dataset(rng, root)
        (root / "t2.txt").unlink()
        with pytest.raises(OSError, match="t2"):
            ingest(manifest, use_disk_cache=False)


class TestBandwidthParsing:
    def test_literal_forms(self):
        assert parse_bandwidth("pi/100") == pytest.approx(np.pi / 100)
        assert parse_bandwidth("0.05") == 0.05
        assert parse_bandwidth("PI/10") == pytest.approx(np.pi / 10)

    def test_malformed(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_bandwidth("tau/5")


class TestCli:
    def test_fit_writes_reports(self, tmp_path, capsys):
        out = tmp_path / "fitdir"
        code = main(["fit", "--manifest", str(MACAQUE_MANIFEST),
                     "--model", "logistic", "--h", "pi/100",
                     "--out", str(out), "--no-cache"])
        assert code == 0
        report = (out / "fit_report.txt").read_text()
        assert "beta = " in report and "dataset_hash" in report
        assert "status = separation" in report
        assert "[e-trace]" in report
        state = (out / "fit_state.json").read_text()
        assert "z_final" in state

    def test_cv_emits_one_row_per_bandwidth(self, tmp_path):
        out = tmp_path / "cvdir"
        code = main(["cv", "--manifest", str(MACAQUE_MANIFEST),
                     "--model", "logistic", "--grid", "pi/50,pi/100,pi/120",
                     "--out", str(out), "--no-cache"])
        assert code == 0
        text = (out / "cv_report.csv").read_text()
        assert "# command = cv" in text and "# dataset_hash = " in text
        from shapegplm.io import read_csv_body
        rows = read_csv_body(out / "cv_report.csv")
        assert len(rows) == 3
        assert {float(r["h"]) for r in rows} == {np.pi / 50, np.pi / 100, np.pi / 120}

    def test_predict_round_trip(self, tmp_path):
        out = tmp_path / "fit2"
        assert main(["fit", "--manifest", str(MACAQUE_MANIFEST),
                     "--model", "logistic", "--h", "pi/100",
                     "--out", str(out), "--no-cache"]) == 0
        pred_out = tmp_path / "preds"
        code = main(["predict", "--fit", str(out / "fit_state.json"),
                     "--input", str(MACAQUE_MANIFEST),
                     "--out", str(pred_out), "--no-cache"])
        assert code == 0
        lines = (pred_out / "predictions.csv").read_text().strip().splitlines()
        assert len(lines) == 19
        # in-sample predictions at pi/100 reproduce the perfect separation
        for ln in lines[1:]:
            rid, pred, prob = ln.split(",")
            assert pred == ("1" if rid.startswith("f") else "0")

    @pytest.mark.parametrize("layout", ["relative path", "symlinked manifest"])
    def test_predict_finds_the_training_data_from_another_directory(self, tmp_path,
                                                                    monkeypatch, layout):
        shutil.copytree(MACAQUE_MANIFEST.parent, tmp_path / "data")
        if layout == "symlinked manifest":
            # the landmark files sit beside the link, not beside its target
            target = tmp_path / "sheets" / "manifest.csv"
            target.parent.mkdir()
            (tmp_path / "data" / "manifest.csv").rename(target)
            (tmp_path / "data" / "manifest.csv").symlink_to(target)
        monkeypatch.chdir(tmp_path)
        manifest = "data/manifest.csv"
        out = tmp_path / "fit"
        assert main(["fit", "--manifest", manifest, "--model", "logistic",
                     "--h", "pi/25", "--out", str(out), "--no-cache"]) == 0
        # the report echoes the manifest as given; the state holds it absolute
        assert f"manifest = {manifest}\n" in (out / "fit_report.txt").read_text()
        predict = ["predict", "--fit", str(out / "fit_state.json"),
                   "--input", str(MACAQUE_MANIFEST), "--no-cache"]
        assert main([*predict, "--out", str(tmp_path / "here")]) == 0
        monkeypatch.chdir(out)
        assert main([*predict, "--out", str(tmp_path / "there")]) == 0
        assert ((tmp_path / "there" / "predictions.csv").read_bytes()
                == (tmp_path / "here" / "predictions.csv").read_bytes())

    @pytest.mark.parametrize("export", ["byte-order mark", "CRLF line ends"])
    def test_spreadsheet_export_reads_as_the_plain_copy(self, tmp_path, export):
        written = {}
        for copy in ("plain", export):
            root = tmp_path / copy
            shutil.copytree(MACAQUE_MANIFEST.parent, root)
            for path in (root / "manifest.csv", root / "f2.txt"):
                if copy == "byte-order mark":
                    path.write_text(path.read_text(), encoding="utf-8-sig")
                elif copy == "CRLF line ends":
                    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
            assert main(["distances", "--manifest", str(root / "manifest.csv"),
                         "--out", str(root / "out"), "--no-cache"]) == 0
            written[copy] = (root / "out" / "distances.csv").read_bytes()
        assert written[export] == written["plain"]

    def test_predict_measures_no_query_pairs(self, rng, tmp_path, monkeypatch):
        train = write_tiny_dataset(rng, tmp_path / "train", n=8)
        query = write_tiny_dataset(rng, tmp_path / "query", n=5)
        out = tmp_path / "fit"
        assert main(["fit", "--manifest", str(train), "--model", "logistic",
                     "--h", "0.3", "--out", str(out)]) == 0
        builds = []
        pairwise = KendallShapeBackend.pairwise_matrices
        monkeypatch.setattr(KendallShapeBackend, "pairwise_matrices",
                            lambda *a, **k: builds.append(1) or pairwise(*a, **k))
        assert main(["predict", "--fit", str(out / "fit_state.json"),
                     "--input", str(query), "--out", str(tmp_path / "p")]) == 0
        assert builds == []  # the training cache was hit; the query needs none
        assert not (query.parent / ".shapegplm-cache").exists()
        lines = (tmp_path / "p" / "predictions.csv").read_text().splitlines()
        assert [ln.split(",")[0] for ln in lines[1:]] == [f"t{i}" for i in range(5)]

    @pytest.mark.parametrize("query", ["reordered covariates", "extra covariate",
                                       "renamed covariate", "other k"])
    def test_predict_rejects_a_mismatched_query(self, rng, tmp_path, capsys, query):
        train = write_tiny_dataset(rng, tmp_path / "train", n=8, k=7,
                                   covariates=("cov", "dose"))
        out = tmp_path / "fit"
        assert main(["fit", "--manifest", str(train), "--model", "logistic",
                     "--h", "0.3", "--out", str(out)]) == 0
        covariates, k = {"reordered covariates": (("dose", "cov"), 7),
                         "extra covariate": (("cov", "dose", "age"), 7),
                         "renamed covariate": (("cov", "weight"), 7),
                         "other k": (("cov", "dose"), 4)}[query]
        manifest = write_tiny_dataset(rng, tmp_path / "query", n=3, k=k,
                                      covariates=covariates)
        capsys.readouterr()
        code = main(["predict", "--fit", str(out / "fit_state.json"),
                     "--input", str(manifest), "--out", str(tmp_path / "p")])
        err = capsys.readouterr().err
        assert code == 1
        assert str(manifest) in err and "numerical failure" not in err
        assert ("kendall(k=4" if k == 4 else "'dose'") in err
        assert not (tmp_path / "p" / "predictions.csv").exists()

    @pytest.mark.parametrize("threads", ["two", "1.5", "4 threads"])
    def test_malformed_thread_count_exits_1(self, tmp_path, capsys, monkeypatch,
                                            threads):
        monkeypatch.setenv("SHAPEGPLM_THREADS", threads)
        code = main(["cv", "--manifest", str(MACAQUE_MANIFEST), "--model", "logistic",
                     "--grid", "pi/25", "--out", str(tmp_path), "--no-cache"])
        err = capsys.readouterr().err
        assert code == 1
        assert "SHAPEGPLM_THREADS" in err and repr(threads) in err
        assert not (tmp_path / "cv_report.csv").exists()

    def test_predict_rejects_gaussian_fit_before_ingest(self, tmp_path, capsys,
                                                        monkeypatch):
        out = tmp_path / "plm"
        assert main(["fit", "--manifest", str(MACAQUE_MANIFEST), "--model", "plm",
                     "--h", "pi/25", "--out", str(out), "--no-cache"]) == 0

        def no_ingest(*args, **kwargs):
            raise AssertionError("predict read data for a Gaussian fit")

        monkeypatch.setattr("shapegplm.io.ingest", no_ingest)
        code = main(["predict", "--fit", str(out / "fit_state.json"),
                     "--input", str(MACAQUE_MANIFEST),
                     "--out", str(tmp_path / "preds"), "--no-cache"])
        assert code == 1
        assert "gaussian fit" in capsys.readouterr().err

    def test_distances_dump(self, tmp_path):
        out = tmp_path / "dists"
        assert main(["distances", "--manifest", str(MACAQUE_MANIFEST),
                     "--out", str(out), "--no-cache"]) == 0
        lines = (out / "distances.csv").read_text().strip().splitlines()
        assert len(lines) == 19

    def test_baseline_command(self, rng, tmp_path):
        manifest = write_noisy_ordinal_dataset(rng, tmp_path / "ds")
        out = tmp_path / "base"
        code = main(["baseline", "--manifest", str(manifest),
                     "--var-threshold", "0.6", "--out", str(out), "--no-cache"])
        assert code == 0
        assert (out / "baseline_report.csv").exists()

    def test_baseline_macaque_separates_cleanly(self, capsys):
        # size plus shape scores classify the training crania perfectly, so
        # the maximum-likelihood baseline reports separation in every fold
        code = main(["baseline", "--manifest", str(MACAQUE_MANIFEST),
                     "--var-threshold", "0.9", "--out", "/tmp/unused-base",
                     "--no-cache"])
        assert code == 2
        assert "skipped" in capsys.readouterr().err

    def test_readme_commands_exit_0(self, tmp_path, monkeypatch, capsys):
        # the README's CLI examples, in order, on a copy of the data
        text = (REPO_ROOT / "README.md").read_text()
        block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [line.split()[1:] for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("shapegplm ")]
        assert [argv[0] for argv in commands] == [
            "fit", "cv", "predict", "distances", "baseline"]
        shutil.copytree(REPO_ROOT / "data" / "macaque", tmp_path / "data" / "macaque")
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert main(argv) == 0, (argv, capsys.readouterr().err)

    def test_malformed_bandwidth_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--manifest", "x.csv", "--model", "logistic",
                  "--h", "tau/5"])
        assert exc.value.code == 1
        assert "--h" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["fit", "--model", "logistic", "--h", "-0.1"],
        ["fit", "--model", "logistic", "--h", "0.1", "--max-iter", "0"],
        ["fit", "--model", "logistic", "--h", "0.1", "--threshold", "0"],
        ["fit", "--model", "logistic", "--h", "0.1", "--ridge", "-1"],
        ["cv", "--model", "logistic", "--grid", "pi/40,-1"],
        ["baseline", "--var-threshold", "1.5"],
    ])
    def test_out_of_range_option_exits_1(self, tmp_path, capsys, argv):
        option = argv[-2]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--manifest", str(MACAQUE_MANIFEST), "--no-cache",
                         "--out", str(tmp_path)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"argument {option}:" in err
        assert "numerical failure" not in err
        assert not any(tmp_path.iterdir())

    def test_numerical_failure_exits_2(self, rng, tmp_path, capsys):
        root = tmp_path / "ds"
        root.mkdir()
        rows = ["id,file,response,c1,c2,c3,c4,c5"]
        for i in range(4):
            write_landmarks(root / f"t{i}.txt", random_configuration(rng, k=5))
            covs = ",".join(f"{rng.normal():.4f}" for _ in range(5))
            rows.append(f"t{i},t{i}.txt,{i % 2},{covs}")
        (root / "manifest.csv").write_text("\n".join(rows) + "\n")
        code = main(["fit", "--manifest", str(root / "manifest.csv"),
                     "--model", "logistic", "--h", "0.1",
                     "--out", str(tmp_path / "o"), "--no-cache"])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["covariate", "landmarks"])
    def test_malformed_dataset_file_exits_1(self, rng, tmp_path, capsys, damage):
        root = tmp_path / "ds"
        manifest = write_tiny_dataset(rng, root)
        if damage == "covariate":
            bad = manifest
            lines = manifest.read_text().splitlines()
            lines[3] = lines[3].rsplit(",", 1)[0] + ",heavy"
            manifest.write_text("\n".join(lines) + "\n")
        else:
            bad = root / "t2.txt"
            bad.write_text("5 three\n")
        code = main(["fit", "--manifest", str(manifest), "--model", "logistic",
                     "--h", "0.3", "--out", str(tmp_path / "o"), "--no-cache"])
        err = capsys.readouterr().err
        assert code == 1
        assert str(bad) in err and "numerical failure" not in err

    @pytest.mark.parametrize("header", ["0 3", "1 3"])
    def test_too_few_landmarks_exit_1(self, rng, tmp_path, capsys, header):
        manifest = write_tiny_dataset(rng, tmp_path / "ds")
        bad = manifest.parent / "t0.txt"   # the first record's, which sets k and m
        bad.write_text("\n".join([header, *bad.read_text().splitlines()[1:]]) + "\n")
        code = main(["distances", "--manifest", str(manifest),
                     "--out", str(tmp_path / "o"), "--no-cache"])
        err = capsys.readouterr().err
        assert code == 1
        assert str(bad) in err and "numerical failure" not in err

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_coincident_landmarks_exit_1(self, rng, tmp_path, capsys, offset):
        manifest = write_tiny_dataset(rng, tmp_path / "ds")
        bad = manifest.parent / "t3.txt"
        write_landmarks(bad, np.ones((5, 3)) + offset)
        code = main(["distances", "--manifest", str(manifest),
                     "--out", str(tmp_path / "o"), "--no-cache"])
        err = capsys.readouterr().err
        assert code == 1
        assert str(bad) in err and "coincide" in err

    @pytest.mark.parametrize("edit", ["covariate", "response", "covariate name"])
    def test_predict_rejects_edited_training_data(self, rng, tmp_path, capsys, edit):
        manifest = write_tiny_dataset(rng, tmp_path / "ds")
        out = tmp_path / "fit"
        assert main(["fit", "--manifest", str(manifest), "--model", "logistic",
                     "--h", "0.3", "--out", str(out)]) == 0
        lines = manifest.read_text().splitlines()
        rid, file, response, cov = lines[3].split(",")
        if edit == "covariate":
            lines[3] = ",".join([rid, file, response, f"{float(cov) + 0.5:.6f}"])
        elif edit == "response":
            lines[3] = ",".join([rid, file, str(1 - int(response)), cov])
        else:
            lines[1] = lines[1].replace(",cov", ",dose")
        manifest.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["predict", "--fit", str(out / "fit_state.json"),
                     "--input", str(manifest), "--out", str(tmp_path / "p")])
        err = capsys.readouterr().err
        assert code == 1
        assert str(manifest) in err and "changed" in err
        assert not (tmp_path / "p" / "predictions.csv").exists()

    @pytest.mark.parametrize("row, fields", [
        ("m1,m1.txt,0,113.9148173930591,extra", 5), ("m1,m1.txt,0", 3)])
    def test_manifest_row_with_another_field_count_exits_1(self, tmp_path, capsys,
                                                           row, fields):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(MACAQUE_MANIFEST.read_text().replace(
            "m1,m1.txt,0,113.9148173930591", row))
        code = main(["cv", "--manifest", str(manifest), "--model", "logistic",
                     "--grid", "pi/50", "--out", str(tmp_path / "cv")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"shapegplm cv: manifest {manifest} row 'm1' has {fields} fields; "
            "its header has 4\n")

    @pytest.mark.parametrize("case", ["no id,file,response header", "non-numeric response",
                                      "non-numeric covariate", "unknown response type",
                                      "only comments", "coincident landmarks",
                                      "non-finite landmark", "repeated column"])
    def test_malformed_dataset_names_the_file(self, rng, tmp_path, capsys, case):
        manifest = write_tiny_dataset(rng, tmp_path / "ds")
        lines = manifest.read_text().splitlines()   # directive, header, t0 ... t5
        rid, file, response, cov = lines[3].split(",")
        if case == "no id,file,response header":
            lines[1] = "id,path,response,cov"
            message = (f"manifest {manifest} must have columns id,file,response; "
                       "got ['id', 'path', 'response', 'cov']")
        elif case == "non-numeric response":
            lines[3] = ",".join([rid, file, "yes", cov])
            message = (f"non-numeric value in manifest {manifest} row 't1': "
                       "could not convert string to float: 'yes'")
        elif case == "non-numeric covariate":
            lines[3] = ",".join([rid, file, response, "heavy"])
            message = (f"non-numeric value in manifest {manifest} row 't1': "
                       "could not convert string to float: 'heavy'")
        elif case == "unknown response type":
            lines[0] = "# response_type: nominal"
            message = f"unknown response type 'nominal' in manifest {manifest}"
        elif case == "only comments":
            lines = [lines[0], "# id,file,response,cov"]
            message = f"manifest {manifest} has no records"
        elif case == "coincident landmarks":
            bad = manifest.parent / "t3.txt"
            write_landmarks(bad, np.full((5, 3), 2.5))
            message = f"landmark file {bad}: all landmarks coincide; configuration has no shape"
        elif case == "non-finite landmark":
            bad = manifest.parent / "t2.txt"
            text = bad.read_text().splitlines()
            text[2] = "nan " + text[2].split(None, 1)[1]
            bad.write_text("\n".join(text) + "\n")
            message = f"landmark file {bad}: configuration contains non-finite entries"
        else:
            lines[1] += ",cov"
            lines[2:] = [f"{line},7" for line in lines[2:]]
            message = f"manifest {manifest} repeats column 'cov'"
        manifest.write_text("\n".join(lines) + "\n")
        code = main(["distances", "--manifest", str(manifest),
                     "--out", str(tmp_path / "o"), "--no-cache"])
        assert code == 1
        assert capsys.readouterr().err == f"shapegplm distances: {message}\n"

    @pytest.mark.parametrize("damage", ["no model entry", "not JSON", "not an object",
                                        "non-numeric slope", "NaN slope", "zero bandwidth",
                                        "NaN working target", "null manifest",
                                        "numeric manifest"])
    def test_malformed_fit_state_exits_1(self, rng, tmp_path, capsys, damage):
        manifest = write_tiny_dataset(rng, tmp_path / "ds")
        out = tmp_path / "fit"
        assert main(["fit", "--manifest", str(manifest), "--model", "logistic",
                     "--h", "0.3", "--out", str(out), "--no-cache"]) == 0
        state_path = out / "fit_state.json"
        state = json.loads(state_path.read_text())
        if damage == "no model entry":
            del state["model"]
            state_path.write_text(json.dumps(state))
        elif damage == "not JSON":
            state_path.write_text(state_path.read_text()[:40])
        elif damage == "not an object":
            state_path.write_text(json.dumps([state]))
        else:
            if damage == "non-numeric slope":
                state["beta"] = ["steep"]
            elif damage == "NaN slope":
                state["beta"] = [float("nan")]
            elif damage == "zero bandwidth":
                state["bandwidth"] = 0
            elif damage == "null manifest":
                state["manifest"] = None
            elif damage == "numeric manifest":
                state["manifest"] = 123
            else:
                state["z_final"][2][0] = float("nan")
            state_path.write_text(json.dumps(state))
        capsys.readouterr()
        code = main(["predict", "--fit", str(state_path), "--input", str(manifest),
                     "--out", str(tmp_path / "p"), "--no-cache"])
        err = capsys.readouterr().err
        assert code == 1
        assert str(state_path) in err and "numerical failure" not in err
        if damage == "no model entry":
            assert "'model'" in err

    @pytest.mark.parametrize("argv", [["fit", "--model", "plm", "--h", "1e-300"],
                                      ["cv", "--model", "logistic", "--grid", "1e-300"]])
    def test_bandwidth_whose_square_underflows_prints_one_line(self, tmp_path, argv):
        # run as a command: a warning would print to stderr before the message
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "shapegplm.cli", argv[0], "--manifest",
             str(MACAQUE_MANIFEST), *argv[1:], "--out", str(tmp_path), "--no-cache"],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == (
            f"shapegplm {argv[0]}: numerical failure: kernel weights underflowed "
            "at query '<all sample points>'; increase the bandwidth\n")

    @pytest.mark.parametrize("entry, value, shape, need", [
        ("beta", [1.0, 2.0], (2,), (1,)),
        ("z_final", [[0.5]] * 5, (5, 1), (18, 1)),
        ("z_final", [[0.5, 0.5]] * 18, (18, 2), (18, 1))])
    def test_fit_state_with_wrong_shapes_exits_1(self, tmp_path, capsys, entry,
                                                 value, shape, need):
        out = tmp_path / "fit"
        assert main(["fit", "--manifest", str(MACAQUE_MANIFEST), "--model", "logistic",
                     "--h", "pi/25", "--out", str(out), "--no-cache"]) == 0
        state_path = out / "fit_state.json"
        state = json.loads(state_path.read_text())
        state[entry] = value
        state_path.write_text(json.dumps(state))
        capsys.readouterr()
        code = main(["predict", "--fit", str(state_path), "--input",
                     str(MACAQUE_MANIFEST), "--out", str(tmp_path / "p"), "--no-cache"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"shapegplm predict: fit state {state_path} holds {entry} of shape "
            f"{shape}; a logistic fit to its training data has {need}\n")
        assert not (tmp_path / "p" / "predictions.csv").exists()


class TestModelState:
    @pytest.mark.parametrize("model,max_iter", [
        ("logistic", 1000), ("logistic", 2), ("ordinal", 1000), ("ordinal", 2)])
    def test_round_trip_predicts_like_the_fit(self, rng, tmp_path, model, max_iter):
        if model == "logistic":
            manifest = MACAQUE_MANIFEST
        else:
            manifest = write_noisy_ordinal_dataset(rng, tmp_path / "ds")
        out = tmp_path / "fit"
        assert main(["fit", "--manifest", str(manifest), "--model", model,
                     "--h", "pi/25", "--max-iter", str(max_iter),
                     "--out", str(out), "--no-cache"]) == 0
        loaded, state = load_model_state(out / "fit_state.json")
        assert {"beta", "bandwidth"} <= state.keys()

        b = ingest(manifest, use_disk_cache=False)
        spec = KernelSpec(bandwidth=np.pi / 25)
        cfg = FitConfig(max_iter=max_iter)
        if model == "logistic":
            fit = fit_logistic_plm(b.y, b.x, b.shapes, spec, b.backend, cfg=cfg)
        else:
            fit = fit_ordinal_plm(b.y.astype(int), b.x, b.shapes, spec, b.backend,
                                  cfg=cfg)
        for f in fields(GplmFit):
            assert np.array_equal(getattr(loaded, f.name), getattr(fit, f.name)), f.name
        if max_iter == 2:
            assert loaded.status == "max_iter" and not loaded.converged
            assert loaded.iterations == 2

        predict = predict_logistic if model == "logistic" else predict_ordinal
        for i in range(len(b.ids)):
            args = (b.x[i], b.shapes[i], b.shapes, b.x, spec, b.backend)
            got, want = predict(loaded, *args), predict(fit, *args)
            if model == "ordinal":
                got, want = got.probs, want.probs
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("failure", ["write", "rename"])
    def test_failed_write_keeps_the_previous_state(self, tmp_path, monkeypatch,
                                                   failure):
        argv = ["fit", "--manifest", str(MACAQUE_MANIFEST), "--model", "logistic",
                "--out", str(tmp_path), "--no-cache"]
        assert main(argv + ["--h", "pi/25"]) == 0
        state = tmp_path / "fit_state.json"
        before = state.read_bytes()

        if failure == "write":
            class Torn:
                """A file that takes half of what it is given, then fails."""

                def __init__(self, fh):
                    self.fh = fh

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    self.fh.close()

                def write(self, data):
                    self.fh.write(data[:len(data) // 2])
                    raise OSError("no space left on device")

            def torn_open(file, mode="r", *args, **kwargs):
                fh = open(file, mode, *args, **kwargs)
                return Torn(fh) if "x" in mode else fh

            monkeypatch.setattr(dio, "open", torn_open, raising=False)
        else:
            def no_rename(src, dst):
                raise OSError("interrupted before the rename")

            monkeypatch.setattr(dio.os, "replace", no_rename)
        assert main(argv + ["--h", "pi/10"]) == 1
        monkeypatch.undo()
        assert state.read_bytes() == before
        assert load_model_state(state)[0].bandwidth == pytest.approx(np.pi / 25)
        assert not list(tmp_path.glob("*.tmp"))

    def test_state_without_fit_fields_is_rejected(self, tmp_path):
        path = tmp_path / "fit_state.json"
        path.write_text('{"model": "logistic", "beta": [1.0], "bandwidth": 0.1}')
        with pytest.raises(InvalidArgumentError, match="phi0"):
            load_model_state(path)


@pytest.mark.parametrize("module", ["baselines", "geometry", "io", "models",
                                    "selection", "smoothing"])
def test_every_public_name_exists(module):
    mod = __import__(f"shapegplm.{module}", fromlist=["__all__"])
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
