"""twistlab benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload case-a --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each run starts fresh single-threaded
interpreters (``worker.py``) with ``TWISTLAB_THREADS`` unset: a few that
only set up, to time set-up, and one that sets up and then runs the
workload's rounds in a closed loop for ``--seconds``.  Every op's output is
checked (``checks.py``); an op whose check fails counts in ``failed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of ``tracer.py`` with
``--trace 1``.  The lines before it give each metric's sample count.
Outputs go to a temporary directory under ``.bench_build`` that is removed
at exit.  If the workers cannot run (for instance, ``src/`` is missing),
the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import fmean, median
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

from workloads import WORKLOADS  # noqa: E402

# The host this benchmark was built on runs the same code up to 1.6x slower
# in one minute than in the next, in every metric at once; raw times spread
# 20-35 % between runs.  Each run therefore times a fixed calibration kernel
# (worker.calibration_kernel) before every op and reports its times and
# rates scaled to a host on which the kernel takes KERNEL_REF_S, about its
# median on the baseline host.  The raw figures are printed too.
KERNEL_REF_S = 0.025
SETUP_SAMPLES = 5  # set-ups timed per run: SETUP_SAMPLES - 1 set-up-only workers, then the measuring one
DEADLINE_S = 170  # a run ends within this, or fails


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.pop("TWISTLAB_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, tmp: Path, deadline: float, setup_only: bool):
    """Start a worker and wait for its READY line; return the process, the
    set-up time (start to READY) and whether set-up failed its checks."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", str(tmp)]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - monotonic()))
        line = proc.stdout.readline() if ready else ""
        setup_s = perf_counter() - start
        if not line.startswith("READY "):
            raise BenchError("worker did not get ready (exit code %r)" % proc.poll())
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, setup_s, line.split()[1] != "0"


def finish_worker(proc, deadline: float) -> None:
    try:
        rc = proc.wait(timeout=max(0.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker ran past the deadline") from None
    finally:
        proc.stdout.close()
    if rc != 0:
        raise BenchError("worker exited with code %d" % rc)


# every end-to-end metric of a run with --trace 0, with its unit, in report order
E2E_UNITS = {
    "construct_s": "s",
    "verify_s": "s",
    "ribe_pairs_per_s": "1/s",
    "weighted_pairs_per_s": "1/s",
    "crosspolytope_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def e2e_metrics(result: dict, setups: list[float]) -> list[tuple[str, float, str, int, float]]:
    """(name, value, unit, samples, raw value) of every end-to-end metric:
    timings are medians over the run's ops; a pair rate is all pairs over
    all time of the oracle calls that reported their pair count.  Times and
    rates are scaled by the run's host speed (see KERNEL_REF_S)."""
    ops = result["ops"]
    slowdown = fmean(result["kernel_s"]) / KERNEL_REF_S

    def times(phase):
        return [r["seconds"] for r in ops if r["phase"] == phase]

    def pairs_and_times(phase):
        calls = [r for r in ops if r["phase"] == phase and "pairs" in r]
        return [r["pairs"] for r in calls], [r["seconds"] for r in calls]

    samples = {
        "construct_s": times("construct"),
        "verify_s": times("verify"),
        "ribe_pairs_per_s": pairs_and_times("ribe"),
        "weighted_pairs_per_s": pairs_and_times("weighted"),
        "crosspolytope_s": times("cross"),
        "peak_rss_mb": [result["maxrss_kb"] / 1024],
        "setup_s": setups,
    }
    rows = []
    for name, unit in E2E_UNITS.items():
        if unit == "1/s":
            pairs, seconds = samples[name]
            value, count = (sum(pairs) / sum(seconds) if seconds else None), len(seconds)
        else:
            value, count = (median(samples[name]) if samples[name] else None), len(samples[name])
        if value is None:
            raise BenchError("no successful %s samples" % name)
        scaled = value / slowdown if unit == "s" else value * slowdown if unit == "1/s" else value
        rows.append((name, scaled, unit, count, value))
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="twistlab benchmark (one workload, one run)")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    deadline = monotonic() + DEADLINE_S

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
    try:
        setups = []
        failed = attempted = 0
        for i in range(SETUP_SAMPLES):
            proc, setup_s, setup_failed = start_worker(args, tmp, deadline, setup_only=i < SETUP_SAMPLES - 1)
            if i < SETUP_SAMPLES - 1:
                finish_worker(proc, deadline)
                attempted += 1
                failed += setup_failed
            setups.append(setup_s)
        finish_worker(proc, deadline)
        result = json.loads((tmp / "result.json").read_text())
    except (BenchError, OSError, ValueError) as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for rec in result["ops"]:
        attempted += 1
        if rec["problems"]:
            failed += 1
            print("FAILED %s (%s): %s" % (rec["key"], rec["phase"], "; ".join(rec["problems"])))
    rounds = result["rounds"]
    print("workload %s seed %d: %d rounds, %d ops" % (args.workload, args.seed, len(rounds), attempted))
    try:
        if args.trace:
            from tracer import LAYER_METRICS

            units = dict(LAYER_METRICS)
            traced = sum(r["traced"] for r in rounds)
            rows = [(name, value, units[name], traced, value) for name, value in result["layers"].items()]
        else:
            rows = e2e_metrics(result, setups)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 2
    for name, value, unit, samples, raw in rows:
        print("%-48s %16.6g %-6s (%d samples, raw %.6g)" % (name, value, unit, samples, raw))
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _, _ in rows}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
