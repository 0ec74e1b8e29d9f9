"""One benchmark process: set a workload up, run it in a closed loop with one
client, and check every output.

``run.py`` starts this file in a fresh interpreter.  It imports ``twistlab``
from the checkout's ``src`` directory, builds the state the workload's
``verify`` needs, prints ``READY <failed set-up ops>`` on stdout, and then
(unless ``--setup-only``) runs rounds of the workload for about
``--seconds``, stopping at the round end nearest to it.  Each op starts when
the previous one ends.  With ``--trace 1`` the first round runs untraced
and the rest repeat it under the tracer, so the ratio of the two gives the
tracing overhead.  The result goes to
``<tmp>/result.json``; the spans of a traced run go to
``.bench_build/perfbench-spans/<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import fmean
from time import perf_counter
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from workloads import WEIGHTED_RIBE, WORKLOADS, Workload, cross_family, op_seed  # noqa: E402


def import_twistlab():
    """Import the package under test from this checkout and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import twistlab

    if Path(twistlab.__file__).resolve().parent != SRC / "twistlab":
        raise SystemExit("twistlab was imported from %s, not from %s" % (twistlab.__file__, SRC))
    from twistlab.cli import main

    return main


def calibration_kernel() -> int:
    """Fixed pure-Python Fraction work that does not touch twistlab.  Timed
    between ops, it tracks how fast the host runs this process."""
    total = 0
    for i in range(1, 6000):
        f = Fraction(i % 97 + 1, i % 7 + 1)
        total += (f * f - f).numerator
    return total


@dataclass
class Op:
    phase: str
    key: str
    argv: list[str]
    check: Callable  # rc -> (problems, observed)


class Runner:
    def __init__(self, workload: Workload, seed: int, tmp: Path, recorded: dict):
        self.cli_main = import_twistlab()
        from checks import Checker

        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.checker = Checker(recorded, seed)
        self.tracer = None
        self.records: list[dict] = []
        self.kernel_s: list[float] = []

    def _out(self, key: str) -> Path:
        return self.tmp / key.replace(" @", "-").replace(" ", "-")

    def _op(self, phase: str, key: str) -> Op:
        spec, index = key.split(" @")
        words = spec.split()
        tmp, ch = self.tmp, self.checker
        seed = op_seed(phase, self.seed, int(index))
        out = self._out(key)
        common = ["--seed", str(seed), "--out", str(out)]
        if phase in ("construct", "setup"):
            argv = ["construct", "--case", words[1], "--depth", words[2], *common]
            return Op(phase, key, argv, lambda rc: ch.construct(key, rc, out, seed))
        if phase == "verify":
            state = self._out(self.workload.setup_key()) / "state.json"
            argv = ["verify", "--state", str(state), "--trials", words[3], *common]
            return Op(phase, key, argv, lambda rc: ch.verify(key, rc, out, state))
        if phase in ("ribe", "weighted"):
            argv = ["oracle", "quasi-constant", "--trials", words[2], *common]
            functional = None
            if phase == "weighted":
                functional = WEIGHTED_RIBE
                path = tmp / "weighted-ribe.json"
                path.write_text(json.dumps(functional))
                argv += ["--functional", str(path)]
            return Op(phase, key, argv, lambda rc: ch.quasi(key, rc, out, functional))
        family = cross_family(self.seed, int(words[1]), int(index))
        path = tmp / ("family-%s-%s.json" % (words[1], index))
        path.write_text(json.dumps(family))
        argv = ["oracle", "crosspolytope", "--ys", str(path), *common]
        return Op(phase, key, argv, lambda rc: ch.cross(key, rc, out, family))

    def setup_op(self) -> Op:
        return self._op("setup", self.workload.setup_key())

    def round_ops(self, round_index: int) -> list[Op]:
        return [self._op(phase, key) for phase, key in self.workload.ops(round_index)]

    def run(self, op: Op, traced: bool) -> dict:
        """Run one op, then check its output with tracing paused."""
        sink = io.StringIO()
        error = None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = perf_counter()
            try:
                if traced:
                    rc = self.tracer._call(self.cli_main, "op." + op.phase, (op.argv,), {}, True)
                else:
                    rc = self.cli_main(op.argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crash fails this op; the loop goes on
                rc = None
                error = traceback.format_exc(limit=3)
            seconds = perf_counter() - start
        if self.tracer is not None:
            self.tracer.active = False
        try:
            problems, observed = op.check(rc)
        except Exception:
            problems, observed = ["check raised: %s" % traceback.format_exc(limit=3)], None
        if error:
            problems.insert(0, error)
        if self.tracer is not None:
            self.tracer.active = traced
        record = {"phase": op.phase, "key": op.key, "seconds": seconds, "traced": traced, "problems": problems, "observed": observed}
        if op.phase in ("ribe", "weighted") and observed:
            record["pairs"] = observed["pairs"]
        self.records.append(record)
        return record

    def loop(self, seconds: float, trace: bool) -> list[dict]:
        """Run rounds for about ``seconds``.  Untraced, round k runs
        the inputs of round k.  Traced, round 0 runs untraced and every later
        round runs round 0's inputs again under the tracer, so per-round
        counts are exact and the overhead compares equal work."""
        rounds = []
        start = perf_counter()
        while True:
            traced = trace and bool(rounds)
            if traced and self.tracer is None:
                from tracer import Tracer

                self.tracer = Tracer()
                self.tracer.install()
                self.tracer.active = True
            round_s = 0.0
            for op in self.round_ops(0 if trace else len(rounds)):
                gc.disable()  # the kernel makes no cycles; keep the program's garbage out of its time
                start_kernel = perf_counter()
                calibration_kernel()
                self.kernel_s.append(perf_counter() - start_kernel)
                gc.enable()
                round_s += self.run(op, traced)["seconds"]
            rounds.append({"traced": traced, "seconds": round_s})
            # stop where the run ends closest to ``seconds``: another round
            # would overshoot by more than the time still left
            left = seconds - (perf_counter() - start)
            if (not trace or len(rounds) > 1) and left <= rounds[-1]["seconds"] / 2:
                return rounds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tmp", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    recorded = json.loads((HERE / "recorded.json").read_text())
    runner = Runner(WORKLOADS[args.workload], args.seed, args.tmp, recorded)
    setup = runner.run(runner.setup_op(), traced=False)
    print("READY %d" % bool(setup["problems"]), flush=True)
    if args.setup_only:
        return 0
    rounds = runner.loop(args.seconds, bool(args.trace))
    result = {
        "ops": runner.records,
        "rounds": rounds,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "kernel_s": runner.kernel_s,
    }
    if args.trace:
        plain = [r["seconds"] for r in rounds if not r["traced"]]
        traced = [r["seconds"] for r in rounds if r["traced"]]
        result["layers"] = runner.tracer.metrics(len(traced), fmean(traced) / fmean(plain))
        spans_dir = ROOT / ".bench_build" / "perfbench-spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        with open(spans_dir / ("%s-seed%d.jsonl" % (args.workload, args.seed)), "w") as fh:
            for span in runner.tracer.spans:
                fh.write(json.dumps(span) + "\n")
    (args.tmp / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
