"""shapegplm benchmark: closed-loop CLI sessions on seeded synthetic Kendall data.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

One client runs a workload's fixed command sequence (a session) through
``shapegplm.cli.main``, in this process, each command waiting for the
previous one. Run from the root of a source checkout: the package is
imported from ``src/`` and the macaque anchor reads ``data/macaque/``.
Generated inputs, outputs and span dumps go to ``bench/_work/``.

A run sets up ``SETUP_REPS`` times (seeded data generation, the distance
cache warm-up where the workload starts warm, and the macaque anchor check),
runs one untimed warm-up session, then runs sessions back to back for
``--seconds``: it starts another session only while the mean session so far
still fits, and always runs at least ``MIN_SESSIONS``. After every session
the outputs are checked; each command and each check is one operation.

``--trace 0`` reports the end-to-end metrics: the session time over the
whole run (measured session time divided by the number of sessions, the
closed loop's throughput as seconds per session), the median set-up time and
the process's peak RSS. The median and slowest session and the sample count
are printed on the ``env:`` line. The whole-run figure is used rather than
the median session because the shared hosts this runs on switch between a
fast and a slow state that lasts seconds to minutes: the median of a few sessions then
jumps to whichever state held most of the run, while the whole-run time moves
only by the share of time spent in each. ``--trace 1`` alternates
untraced and traced sessions and reports per-layer metrics from the traced
ones (see ``tracing.py``), plus the tracing overhead. The last line of
standard output is the JSON result; the lines before it say what was run,
on which machine, and the per-command times.

``--smoke`` runs every workload once per mode at tiny sizes, each in its own
process, and checks that every metric named in ``BENCHMARK.json`` is printed
with its unit.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# BLAS pinned to one thread before numpy is first imported (by the modules
# below); folds run serially.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SHAPEGPLM_THREADS", None)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
MACAQUE = ROOT / "data" / "macaque" / "manifest.csv"
SETUP_REPS = 5
MIN_SESSIONS = 3          # per run; per mode in the traced run
ORACLE_PAIRS = 64

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _import_program():
    """Import ``shapegplm`` from this checkout's ``src/``, never elsewhere."""
    src = ROOT / "src"
    if not (src / "shapegplm" / "cli.py").is_file() or not MACAQUE.is_file():
        return None
    sys.path.insert(0, str(src))
    from shapegplm import cli
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        return None
    return cli


def run_cli(cli, ops, argv, tracer=None) -> float:
    """One CLI command; a nonzero exit or a crash is a failed operation."""
    captured = io.StringIO()
    rec = tracer.open("cli." + argv[0]) if tracer else None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash of the program is recorded, not fatal
        code = "crash:\n" + traceback.format_exc()
    dt = perf_counter() - t0
    if rec is not None:
        tracer.close(rec)
    ops.check(code == 0, f"`shapegplm {' '.join(argv)}` exited {code}: "
                         f"{captured.getvalue()[-400:]}")
    return dt


def set_up(cli, ops, w, seed, dest):
    """Generate the data, warm the cache if the workload starts warm, and
    check the macaque anchor. Returns the data layout and the oracle."""
    data = wl.generate(w, seed, dest)
    train = data["train"]
    oracle = wl.oracle_distances(train["manifest"], train["ids"], ORACLE_PAIRS, seed)
    if w.name != "cold_build":
        run_cli(cli, ops, ["distances", "--manifest", str(train["manifest"]),
                           "--out", str(dest / "warm")])
        wl.check_distances(ops, dest / "warm", train["ids"], oracle)
    run_cli(cli, ops, wl.macaque_command(MACAQUE, dest / "anchor"))
    wl.check_macaque(ops, dest / "anchor")
    return data, oracle


def session(cli, ops, w, data, oracle, out, tracer=None):
    """One timed session; returns its wall time and the time per command."""
    if w.name == "cold_build":
        wl.empty_caches(data)
    shutil.rmtree(out, ignore_errors=True)
    rec = tracer.open("session") if tracer else None
    t0 = perf_counter()
    per_cmd = {}
    for argv in wl.session_commands(w, data, out):
        per_cmd[argv[0]] = run_cli(cli, ops, argv, tracer)
    dt = perf_counter() - t0
    if rec is not None:
        tracer.close(rec)
    accuracy = wl.check_session(ops, w, data, out, oracle)
    return dt, per_cmd, accuracy


def environment(args, import_s) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "SHAPEGPLM_THREADS": os.environ.get("SHAPEGPLM_THREADS", "unset"),
            "import_s": round(import_s, 4)}


def _median_table(per_cmd_runs: list[dict]) -> dict:
    names = per_cmd_runs[0].keys() if per_cmd_runs else ()
    return {f"{c}_s": round(statistics.median(r[c] for r in per_cmd_runs), 4)
            for c in names}


def run(args) -> int:
    t0 = perf_counter()
    cli = _import_program()
    if cli is None:
        return _fail(f"no shapegplm source tree with data/macaque under {ROOT}")
    import_s = perf_counter() - t0
    w = wl.WORKLOADS[args.size][args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = wl.Ops()

    setup_s = []
    for rep in range(SETUP_REPS):
        if rep:
            shutil.rmtree(work / f"data{rep - 1}")
        t = perf_counter()
        data, oracle = set_up(cli, ops, w, args.seed, work / f"data{rep}")
        setup_s.append(perf_counter() - t)
    out = work / "out"
    warmup_s, _, accuracy = session(cli, ops, w, data, oracle, out)

    plain, plain_cmds, traced = [], [], []
    tracer = tracing.Tracer() if args.trace else None
    ranges = []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        done = len(plain)
        if done >= MIN_SESSIONS and elapsed * (done + 1) / done > args.seconds:
            break
        dt, per_cmd, _ = session(cli, ops, w, data, oracle, out)
        plain.append(dt)
        plain_cmds.append(per_cmd)
        if tracer:
            first = len(tracer.spans)
            tracer.install()
            try:
                dt, _, _ = session(cli, ops, w, data, oracle, out, tracer)
            finally:
                tracer.restore()
            traced.append(dt)
            ranges.append((first, len(tracer.spans)))

    info = environment(args, import_s)
    info.update({"sessions": len(plain), "traced_sessions": len(traced),
                 "session_s_median": round(statistics.median(plain), 4),
                 "session_s_max": round(max(plain), 4),
                 "session_s_all": [round(v, 4) for v in plain],
                 "setup_s_all": [round(v, 4) for v in setup_s],
                 "warmup_session_s": round(warmup_s, 4),
                 "accuracy_percent": accuracy,
                 "command_s_median": _median_table(plain_cmds)})
    print("env: " + json.dumps(info))
    for err in ops.errors[:20]:
        print("check failed: " + err)

    if tracer:
        tracer.dump(work / "spans.jsonl.gz")
        layers = tracing.layer_metrics(tracer, ranges)
        layers["trace.overhead_ratio"] = (statistics.median(traced)
                                          / statistics.median(plain) - 1.0)
        print("note: the program is single-threaded, so no layer waits on "
              "another; span times are busy times and no wait metric exists")
        metrics = {k: {"value": v, "unit": tracing.unit_of(k)}
                   for k, v in layers.items()}
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "session_s": {"value": statistics.fmean(plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


def smoke() -> int:
    """Every workload once per mode at tiny sizes, each in its own process."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    for workload in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload["name"], "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=180, cwd=ROOT)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
            except (IndexError, ValueError, KeyError, TypeError):
                print(f"{workload['name']} trace={trace}: no result "
                      f"(exit {proc.returncode})\n{proc.stderr[-2000:]}")
                ok = False
                continue
            wrong = sorted(k for k in want[trace] if got.get(k) != want[trace][k])
            extra = sorted(set(got) - set(want[trace]))
            fine = (proc.returncode == 0 and result["correct"]
                    and result["failed"] == 0 and not wrong and not extra)
            ok &= fine
            ratio = result["failed"] / result["attempted"]
            print(f"{'ok ' if fine else 'BAD'} {workload['name']} trace={trace} "
                  f"ops_failed_ratio={ratio:g} ({result['attempted']} ops)"
                  + (f" missing/wrong unit: {wrong}" if wrong else "")
                  + (f" unlisted: {extra}" if extra else ""))
            for name, m in result["metrics"].items():
                print(f"    {name} = {m['value']:.6g} {m['unit']}")
            if not result["correct"]:
                print(proc.stdout[-2000:])
    print("smoke: " + ("pass" if ok else "FAIL"))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS["full"]))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(wl.WORKLOADS), default="full",
                        help="input sizes; 'tiny' is for the self-test")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test every workload at tiny sizes")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
