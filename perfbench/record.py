"""Record the reference outputs that ``checks.py`` compares against.

    python3 perfbench/record.py 0 1 2 ...

Runs every distinct op of the first ROUNDS rounds of every workload once
per given seed, untimed, and
merges what the checks observed into ``perfbench/recorded.json``: the
seed-independent sha256 of each state (``meta.seed`` zeroed), and per seed
the sha256 of each ``state.json``, the verify margins and lemma5 best
values, the oracle best values and the exact cross-polytope minima.  It
refuses to record an op whose output fails any check other than the
missing recording itself.  Run it only on a commit whose outputs are
trusted; a later change that alters an output must not re-record it.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from worker import HERE, ROOT, Runner, import_twistlab
from workloads import WORKLOADS

RECORDED = HERE / "recorded.json"
ROUNDS = 2  # rounds of inputs recorded per seed; later rounds are checked by invariants only


def main(argv: list[str]) -> int:
    import_twistlab()
    from checks import MISSING_STATE

    seeds = [int(s) for s in argv] or [0]
    recorded = json.loads(RECORDED.read_text()) if RECORDED.exists() else {"states": {}, "seeds": {}}
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    for seed in seeds:
        tmp = Path(tempfile.mkdtemp(prefix="perfbench-record-", dir=build))
        try:
            values: dict = {}
            for workload in WORKLOADS.values():
                runner = Runner(workload, seed, tmp, {"states": recorded["states"], "seeds": {}})
                for op in [runner.setup_op(), *(op for k in range(ROUNDS) for op in runner.round_ops(k))]:
                    if op.key in values:
                        continue
                    rec = runner.run(op, traced=False)
                    problems = [p for p in rec["problems"] if not p.startswith(MISSING_STATE)]
                    if problems:
                        print("seed %d: %s fails its checks: %s" % (seed, op.key, problems), file=sys.stderr)
                        return 1
                    observed = rec["observed"]
                    if op.phase in ("construct", "setup"):
                        _, case, depth = op.key.split(" @")[0].split()
                        tag = case + depth
                        if recorded["states"].setdefault(tag, observed["canonical"]) != observed["canonical"]:
                            print("seed %d: %s differs from other seeds beyond meta.seed" % (seed, tag), file=sys.stderr)
                            return 1
                        observed = observed["sha256"]
                    values[op.key] = observed
                    print("seed %d  %-22s %6.2fs" % (seed, op.key, rec["seconds"]), flush=True)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        recorded["seeds"][str(seed)] = dict(sorted(values.items()))
        RECORDED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
