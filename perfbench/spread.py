"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload case-a --seeds 1-10 [--json out.json]

Runs ``run.py --trace 0`` once per seed, one after another, with the
``run_seconds`` of BENCHMARK.json, and prints per metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the quartile distance
as a share of the median, next to the metric's bound.  With ``--json`` the
figures are also written to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--json", type=Path)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
        if done.returncode != 0:
            print("seed %d: exit code %d\n%s" % (seed, done.returncode, done.stderr), file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print("seed %d: %d of %d ops failed their checks" % (seed, result["failed"], result["attempted"]), file=sys.stderr)
            return 1
        runs.append({name: m["value"] for name, m in result["metrics"].items()})
        print("seed %d: %s" % (seed, "  ".join("%s=%.4g" % kv for kv in runs[-1].items())), flush=True)

    summary = {}
    for name, bound in bounds.items():
        values = [r[name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
        flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        print("%-22s median %12.5g  q1 %12.5g  q3 %12.5g  spread %6.3f  bound %.2f  %s" % (name, med, q1, q3, spread, bound, flag))
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
