"""The benchmark's own tests.

    python3 -m pytest perfbench/test_perfbench.py -q

They check that BENCHMARK.json lists exactly the workloads and metrics the
code produces, that a directory without the program makes the benchmark
fail without a result, and that the traced run's counts repeat exactly
between two runs of the same code.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import E2E_UNITS  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# a traced run of a small workload, in a fresh interpreter, printing its
# per-layer metrics; outputs of unrecorded keys are checked by invariants only
TRACED_SMALL = """
import json, sys, tempfile
sys.path.insert(0, %(here)r)
from worker import Runner, import_twistlab
from workloads import Workload
import_twistlab()
from checks import MISSING_STATE
with tempfile.TemporaryDirectory() as tmp:
    from pathlib import Path
    runner = Runner(Workload(("c", 3, 1), ("a", 4, 20, 2), (40, 1), (30, 1), (4, 1)), 5, Path(tmp), {"states": {}, "seeds": {}})
    runner.run(runner.setup_op(), traced=False)
    rounds = runner.loop(0, trace=True)
    problems = [p for r in runner.records for p in r["problems"] if not p.startswith(MISSING_STATE)]
    assert not problems, problems
    print(json.dumps(runner.tracer.metrics(sum(r["traced"] for r in rounds), 1.0)))
"""


def test_benchmark_json_matches_the_code():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == E2E_UNITS
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == LAYER_METRICS
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"]) <= 0.25


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "case-c", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "did not get ready" in done.stderr
    assert '"metrics"' not in done.stdout


def test_traced_counts_repeat_exactly():
    def traced_metrics():
        done = subprocess.run(
            [sys.executable, "-c", TRACED_SMALL % {"here": str(HERE)}], cwd=ROOT, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.strip().splitlines()[-1])

    first, second = traced_metrics(), traced_metrics()
    units = dict(LAYER_METRICS)
    assert set(first) == set(units)
    exact = {n for n, u in units.items() if u in ("count", "bytes")} | {"oracles.chain.accept_ratio", "oracles.decomp.accept_ratio"}
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}
    assert first["seqspace.entries_touched"] > 0 and first["exact_lp.pivots"] > 0
