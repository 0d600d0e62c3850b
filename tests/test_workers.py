"""Fold stacks and distance rows on forked worker processes: the worker count
rule, the fork-and-pipe driver, errors that cross the process boundary, and
CLI outputs that are the same bytes serially and with two workers. No test starts more than two
worker processes at once."""

import os
import pickle
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from shapegplm import _workers, errors, geometry
from shapegplm.cli import main

from conftest import MACAQUE_MANIFEST, REPO_ROOT, assert_no_child_left

AFFINITY = len(os.sched_getaffinity(0))


# --- the worker count --------------------------------------------------------------

@pytest.mark.parametrize("setting, want", [
    (None, min(3, AFFINITY)), ("", min(3, AFFINITY)), (" ", min(3, AFFINITY)),
    ("0", 1), ("1", 1), ("-2", 1), ("2", 2), ("64", 3)])
def test_worker_count_rule(setting, want):
    assert _workers.worker_count(3, setting) == want


@pytest.mark.parametrize("setting", ["two", "1.5", "4 threads"])
def test_worker_count_rejects_a_non_integer(setting):
    with pytest.raises(errors.UsageError, match="SHAPEGPLM_THREADS") as err:
        _workers.worker_count(3, setting)
    assert repr(setting) in str(err.value)


def test_never_more_workers_than_tasks():
    assert _workers.worker_count(1, "64") == 1
    assert _workers.worker_count(0, None) == 1


def test_serial_inside_a_worker_and_beside_other_threads(monkeypatch):
    monkeypatch.setenv("SHAPEGPLM_THREADS", "2")
    assert _workers.count(8) == 2
    assert _workers.run([lambda: _workers.count(8)] * 2, 2) == [1, 1]
    assert_no_child_left()
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert _workers.count(8) == 1
    finally:
        stop.set()
        other.join()


# --- the driver -------------------------------------------------------------------

@pytest.mark.parametrize("tasks", [1, 2, 3, 5])
def test_results_come_back_in_task_order(tasks):
    done = _workers.run([lambda i=i: (i, os.getpid()) for i in range(tasks)], 2)
    assert_no_child_left()
    assert [i for i, _ in done] == list(range(tasks))
    pids = [pid for _, pid in done]
    if tasks == 1:
        assert pids == [os.getpid()]
    else:
        # task i on worker i mod 2, and none in this process
        assert pids == [pids[i % 2] for i in range(tasks)]
        assert len({*pids, os.getpid()}) == 3


@pytest.mark.parametrize("end, status", [
    (lambda: os._exit(3), "3"), (lambda: os.kill(os.getpid(), signal.SIGKILL), "-9")],
    ids=["exit 3", "SIGKILL"])
def test_a_worker_that_dies_raises_its_exit_status(end, status):
    with pytest.raises(RuntimeError, match=f"exited with status {status} without a result"):
        _workers.run([lambda: 0, end, lambda: 2], 2)
    assert_no_child_left()


def test_a_result_larger_than_a_pipe_buffer_comes_back_intact():
    big = np.random.default_rng(5).normal(size=2 ** 17)   # 1 MB
    done = _workers.run([lambda: big, lambda: big[::-1].copy(), lambda: big + 1.0], 2)
    assert_no_child_left()
    assert all(np.array_equal(a, b) for a, b in zip(done, [big, big[::-1], big + 1.0]))


def fail_at(index):
    raise errors.DivergenceError(f"task {index} failed")


@pytest.mark.parametrize("failing, first", [({1, 2, 3}, 1), ({0, 3}, 0), ({3, 4}, 3)])
def test_the_lowest_failing_task_is_raised(failing, first):
    # task i on worker i mod 2: each case has failures on both workers
    tasks = [lambda i=i: fail_at(i) if i in failing else i for i in range(5)]
    with pytest.raises(errors.DivergenceError) as serial:
        [task() for task in tasks]
    with pytest.raises(errors.DivergenceError) as forked:
        _workers.run(tasks, 2)
    assert_no_child_left()
    assert str(forked.value) == str(serial.value) == f"task {first} failed"


def test_no_multiprocessing_on_import():
    # what the CLI imports: the driver forks without multiprocessing's modules
    code = ("import sys, shapegplm.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")))
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


# a command that forks two workers: one sleeps, one returns more than a pipe holds
ORPHANED_RUN = """
import os, pathlib, sys, time
from shapegplm import _workers

def mark(name):
    (pathlib.Path(sys.argv[1]) / f"{name}.tmp").write_text(str(os.getpid()))
    os.replace(pathlib.Path(sys.argv[1]) / f"{name}.tmp", pathlib.Path(sys.argv[1]) / name)

def slow():
    mark("slow")
    time.sleep(2)

def big():
    mark("big")
    return b"x" * 2 ** 20

_workers.run([slow, big], 2)
"""


def running(pid: int) -> bool:
    """Whether process ``pid`` exists and has not exited (zombies have)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
def test_workers_exit_when_the_command_is_killed(tmp_path):
    """A worker blocked on a full pipe exits once the command that forked it
    is killed alone: it holds no read end of any pipe, so its write fails."""
    command = subprocess.Popen([sys.executable, "-c", ORPHANED_RUN, str(tmp_path)],
                               env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")))
    pids = []
    try:
        deadline = time.monotonic() + 30
        while len(pids) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
            pids = [int((tmp_path / name).read_text()) for name in ("slow", "big")
                    if (tmp_path / name).exists()]
        assert len(pids) == 2, "the workers never started"
        time.sleep(0.5)   # the big result fills its pipe
        assert running(pids[1])
        command.kill()
        command.wait(timeout=10)
        deadline = time.monotonic() + 6
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in pids if running(pid)]
    finally:
        command.kill()
        command.wait(timeout=10)
        for pid in pids:
            if running(pid):
                os.kill(pid, signal.SIGKILL)


# --- errors across the process boundary --------------------------------------------

def error_classes():
    return [c for c in vars(errors).values()
            if isinstance(c, type) and issubclass(c, errors.ShapeGplmError)]


def test_every_package_error_survives_a_round_trip():
    made = []
    for cls in error_classes():
        made.append(cls("something failed"))
    made += [errors.BandwidthTooSmallError("<all sample points>"),
             errors.BandwidthTooSmallError(3, "custom message"),
             errors.NonConvergenceError("no luck", trace=[3.0, 2.5]),
             errors.OutOfChartError("shape 4 of 9 lies outside", 4)]
    assert {type(e) for e in made} == set(error_classes())
    for err in made:
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is type(err)
        assert str(back) == str(err) and back.args == err.args
        for attr in ("query", "trace", "index"):
            assert getattr(back, attr, None) == getattr(err, attr, None)
    assert str(made[-4]) == ("kernel weights underflowed at query "
                             "'<all sample points>'; increase the bandwidth")


# --- the CLI, serially and with two workers ----------------------------------------

@pytest.fixture(scope="module")
def mixed_manifest(tmp_path_factory):
    """The benchmark's ``ordinal_compare`` data (90 rows, k = 7) with subjects
    of 1, 2 and 3 rows in turn: folds of three training sizes, several stacks
    each."""
    with pytest.MonkeyPatch.context() as m:
        m.syspath_prepend(str(REPO_ROOT / "bench"))
        import workloads as wl
    dest = tmp_path_factory.mktemp("mixed")
    data = wl.generate(wl.WORKLOADS["full"]["ordinal_compare"], 1, dest)
    manifest = data["train"]["manifest"]
    lines = manifest.read_text().splitlines()
    sizes = [1, 2, 3] * len(lines)
    subjects = [f"m{j}" for j, size in enumerate(sizes) for _ in range(size)]
    body = []
    for line, subject in zip(lines[2:], subjects):
        rid, file, y, _, x1 = line.split(",")
        body.append(",".join([rid, file, y, subject, x1]))
    manifest.write_text("\n".join(lines[:2] + body) + "\n")
    return manifest


def record_runs(monkeypatch):
    """``(tasks, workers)`` of every :func:`_workers.run` call."""
    calls, run = [], _workers.run
    monkeypatch.setattr(_workers, "run", lambda tasks, workers: (
        calls.append((len(tasks), min(workers, len(tasks)))) or run(tasks, workers)))
    return calls


def session(manifest, out):
    """The argument lists of every command, writing to ``out``."""
    m = str(manifest)
    return {
        "distances": ["distances", "--manifest", m, "--no-cache", "--out", str(out)],
        "fit": ["fit", "--manifest", m, "--model", "ordinal", "--h", "pi/40",
                "--max-iter", "20", "--no-cache", "--out", str(out)],
        "predict": ["predict", "--fit", str(out / "fit_state.json"), "--input", m,
                    "--out", str(out)],
        "cv": ["cv", "--manifest", m, "--model", "ordinal", "--grid", "pi/80,pi/40",
               "--max-iter", "20", "--no-cache", "--out", str(out)],
        "baseline": ["baseline", "--manifest", m, "--no-cache", "--out", str(out)],
    }


def test_two_workers_write_the_serial_bytes(mixed_manifest, tmp_path, monkeypatch,
                                            capsys):
    # small slabs so that the 90-row builds and query rows are shared out too
    monkeypatch.setattr(geometry, "SLAB_PAIRS", 256)
    calls = record_runs(monkeypatch)
    files, workers = {}, {}
    for setting in ("1", "2"):
        monkeypatch.setenv("SHAPEGPLM_THREADS", setting)
        out = tmp_path / setting
        for command, argv in session(mixed_manifest, out).items():
            calls.clear()
            assert main(argv) == 0, capsys.readouterr().err
            assert_no_child_left()
            workers[setting, command] = {w for _, w in calls}
            assert all(w <= tasks for tasks, w in calls)
        # reports name their output directory
        files[setting] = {p.name: p.read_bytes().replace(bytes(out), b"OUT")
                          for p in sorted(out.iterdir())}
    assert len(files["1"]) == 8
    assert files["2"] == files["1"]
    for command in session(mixed_manifest, tmp_path):
        # every step of a command forks anew once the last pool is joined
        assert workers["1", command] == {1}
        assert workers["2", command] == {2}, command


def test_error_in_a_worker_reads_as_the_serial_error(mixed_manifest, tmp_path,
                                                     monkeypatch, capsys):
    # at this bandwidth every held-out row's kernel weights underflow
    argv = ["cv", "--manifest", str(mixed_manifest), "--model", "ordinal",
            "--grid", "1e-160", "--max-iter", "5", "--out", str(tmp_path)]
    calls = record_runs(monkeypatch)
    seen = {}
    for setting in ("1", "2"):
        monkeypatch.setenv("SHAPEGPLM_THREADS", setting)
        code = main(argv)
        seen[setting] = code, capsys.readouterr().err
        assert_no_child_left()
    assert max(w for _, w in calls) == 2
    assert seen["2"] == seen["1"] == (2, "shapegplm cv: numerical failure: kernel "
                                         "weights underflowed at query '<one of 1 "
                                         "query points>'; increase the bandwidth\n")
    assert not (tmp_path / "cv_report.csv").exists()


def test_macaque_and_small_builds_stay_serial(mixed_manifest, tmp_path, monkeypatch):
    monkeypatch.delenv("SHAPEGPLM_THREADS", raising=False)
    calls = record_runs(monkeypatch)
    mac = str(MACAQUE_MANIFEST)
    for argv in (["cv", "--manifest", mac, "--model", "logistic", "--grid",
                  "pi/100,pi/50,pi/25,pi/10", "--no-cache"],
                 ["baseline", "--manifest", mac, "--var-threshold", "0.5", "--no-cache"],
                 ["distances", "--manifest", mac, "--no-cache"],
                 # the 4005 pairs of the benchmark's warm-up build
                 ["distances", "--manifest", str(mixed_manifest), "--no-cache"]):
        assert main([*argv, "--out", str(tmp_path)]) == 0
    assert calls and {w for _, w in calls} == {1}
    assert_no_child_left()


# --- distance blocks ---------------------------------------------------------------

def test_each_distance_block_is_one_task(monkeypatch):
    """A build hands :func:`_workers.run` one task per block of
    :data:`geometry.BLOCK_VALUES` preshape values, cut across rows, which
    decides alone where each block runs, and its blocks at two workers are
    the serial bits."""
    rng = np.random.default_rng(5)
    points = [geometry.preshape(rng.normal(size=(7, 3))).preshape for _ in range(12)]
    queries = [geometry.preshape(rng.normal(size=(7, 3))).preshape for _ in range(5)]
    backend = geometry.KendallShapeBackend(k=7)
    monkeypatch.setattr(geometry, "SLAB_PAIRS", 1)
    monkeypatch.setattr(geometry, "BLOCK_VALUES", 5 * 6 * 3)   # five pairs
    calls = record_runs(monkeypatch)
    built = {}
    for setting in ("1", "2"):
        monkeypatch.setenv("SHAPEGPLM_THREADS", setting)
        calls.clear()
        built[setting] = (*backend.pairwise_matrices(points),
                          backend.cross_distances(queries, points))
        # 66 pairs in 14 blocks, then 60 query pairs in 12
        assert calls == [(14, int(setting)), (12, int(setting))]
    assert all(np.array_equal(forked, serial)
               for forked, serial in zip(built["2"], built["1"]))
    assert_no_child_left()
