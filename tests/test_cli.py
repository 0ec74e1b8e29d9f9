import hashlib
import json
import math
import subprocess
import sys

import pytest

import twistlab as tl
from twistlab.cli import main
from twistlab.construction import state_to_json

# sha256 of (state.json, levels.csv) from ``construct --depth 6 --seed 0``:
# a refactor that changes a single output byte fails here
GOLDEN = {
    "a": (
        "f4044983ec9d8138e10d4b3d0aedb8e848223003fb2f98f27240e4eec4536f4d",
        "8b12113c13f6f778f491dab84e91280234f75b796795cfe44f25e9b8c842af75",
    ),
    "c": (
        "7ac89aa3a61b18ae5298e95b571cd4ad7d990a1cbb0ac515944b4f3a619e493c",
        "a352f1357be39088e5c9b903574b6860a0e1a3d9c711ddbf16f1b58117eb7830",
    ),
}


def run_cli(args):
    """In-process invocation; SystemExit from usage errors is normalized."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


class TestConstruct:
    def test_builds_and_writes(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(["construct", "--case", "a", "--depth", "3", "--out", str(out)]) == 0
        state = json.loads((out / "state.json").read_text())
        assert state["depth"] == 3
        assert state["m"] == {"1": 145, "2": 481, "3": 1729}
        lines = (out / "levels.csv").read_text().strip().splitlines()
        assert lines[0].startswith("level,")
        assert len(lines) == 4

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(["construct", "--case", "a", "--depth", "3", "--seed", "7", "--out", str(a)]) == 0
        assert run_cli(["construct", "--case", "a", "--depth", "3", "--seed", "7", "--out", str(b)]) == 0
        assert (a / "state.json").read_bytes() == (b / "state.json").read_bytes()

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_golden_bytes(self, tmp_path, case):
        out = tmp_path / case
        assert run_cli(["construct", "--case", case, "--depth", "6", "--seed", "0", "--out", str(out)]) == 0
        digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("state.json", "levels.csv"))
        assert digests == GOLDEN[case]

    def test_depth_zero_usage_error(self, tmp_path):
        assert run_cli(["construct", "--depth", "0", "--out", str(tmp_path)]) == 64

    def test_case_b_refused(self, tmp_path):
        assert run_cli(["construct", "--case", "b", "--depth", "2", "--out", str(tmp_path)]) == 64

    def test_case_c(self, tmp_path):
        out = tmp_path / "c"
        assert run_cli(["construct", "--case", "c", "--depth", "2", "--out", str(out)]) == 0
        state = json.loads((out / "state.json").read_text())
        assert state["space"]["kind"] == "mixed"

    def test_custom_case_with_split_map(self, tmp_path):
        xs, ds = tl.make_case_a_inputs(2, 2)
        T = tl.split_map_from_ribe(xs)
        (tmp_path / "f.json").write_text(json.dumps({"kind": "ribe", "assumed_constant": 4.0}))
        (tmp_path / "xs.json").write_text(json.dumps([x.to_json() for x in xs]))
        (tmp_path / "ds.json").write_text(json.dumps([d.to_json() for d in ds]))
        (tmp_path / "sm.json").write_text(
            json.dumps(
                {
                    "basis": [b.to_json() for b in T.basis],
                    "values": ["%d/%d" % (v.numerator, v.denominator) for v in T.values],
                    "defect_bound": 0.0,
                }
            )
        )
        out = tmp_path / "run"
        code = run_cli(
            [
                "construct",
                "--case",
                "custom",
                "--depth",
                "2",
                "--out",
                str(out),
                "--functional",
                str(tmp_path / "f.json"),
                "--xs",
                str(tmp_path / "xs.json"),
                "--ds",
                str(tmp_path / "ds.json"),
                "--split-map",
                str(tmp_path / "sm.json"),
            ]
        )
        assert code == 0
        state = json.loads((out / "state.json").read_text())
        assert state["m"]["2"] == 481

    def test_custom_split_map_must_cover_supply(self, tmp_path):
        xs, ds = tl.make_case_a_inputs(2, 2)
        T = tl.split_map_from_ribe(xs[:4])  # too small: supply not in its span
        (tmp_path / "f.json").write_text(json.dumps({"kind": "ribe", "assumed_constant": 4.0}))
        (tmp_path / "xs.json").write_text(json.dumps([x.to_json() for x in xs]))
        (tmp_path / "ds.json").write_text(json.dumps([d.to_json() for d in ds]))
        (tmp_path / "sm.json").write_text(
            json.dumps(
                {
                    "basis": [b.to_json() for b in T.basis],
                    "values": ["0/1"] * len(T.basis),
                    "defect_bound": 0.0,
                }
            )
        )
        code = run_cli(
            [
                "construct",
                "--case",
                "custom",
                "--depth",
                "2",
                "--out",
                str(tmp_path / "run"),
                "--functional",
                str(tmp_path / "f.json"),
                "--xs",
                str(tmp_path / "xs.json"),
                "--ds",
                str(tmp_path / "ds.json"),
                "--split-map",
                str(tmp_path / "sm.json"),
            ]
        )
        assert code == 2

    def test_custom_needs_inputs(self, tmp_path):
        assert run_cli(["construct", "--case", "custom", "--depth", "2", "--out", str(tmp_path)]) == 64


class TestVerify:
    def test_healthy(self, tmp_path):
        out = tmp_path / "run"
        run_cli(["construct", "--case", "a", "--depth", "3", "--out", str(out)])
        code = run_cli(["verify", "--state", str(out / "state.json"), "--trials", "15", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "verify-report.json").read_text())
        assert report["violations"] == []
        assert report["min_chain_margin"] > 0
        transcript = json.loads((out / "transcript.json").read_text())
        assert transcript["passed"] is True

    def test_tolerance_flag_can_fail_thin_margins(self, tmp_path):
        out = tmp_path / "run"
        run_cli(["construct", "--case", "a", "--depth", "3", "--out", str(out)])
        code = run_cli(
            ["verify", "--state", str(out / "state.json"), "--trials", "15", "--out", str(out), "--tolerance", "0.5"]
        )
        assert code == 3  # healthy state, but margins are far thinner than 0.5

    def test_static_only(self, tmp_path):
        out = tmp_path / "run"
        run_cli(["construct", "--case", "a", "--depth", "2", "--out", str(out)])
        code = run_cli(["verify", "--state", str(out / "state.json"), "--trials", "0", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "verify-report.json").read_text())
        assert report["min_chain_margin"] is None

    def test_tampered_state_exits_three(self, tmp_path, ribe_normalized):
        xs, ds = tl.make_case_a_inputs(2, 2)
        bad = tl.run_construction(ribe_normalized, xs, ds, 2, m_override={2: 1}, verify_levels=False)
        p = tmp_path / "state.json"
        p.write_text(json.dumps(state_to_json(bad), sort_keys=True))
        code = run_cli(["verify", "--state", str(p), "--trials", "0", "--out", str(tmp_path)])
        assert code == 3
        report = json.loads((tmp_path / "verify-report.json").read_text())
        assert any("level_mass" in v for v in report["violations"])

    def test_truncated_generator_list_exits_three(self, tmp_path):
        out = tmp_path / "run"
        run_cli(["construct", "--case", "a", "--depth", "3", "--out", str(out)])
        state = json.loads((out / "state.json").read_text())
        state["G"]["2"] = state["G"]["2"][:-1]
        p = tmp_path / "state.json"
        p.write_text(json.dumps(state))
        assert run_cli(["verify", "--state", str(p), "--trials", "5", "--out", str(tmp_path)]) == 3
        report = json.loads((tmp_path / "verify-report.json").read_text())
        assert "static:g_size level 2" in report["violations"]

    @pytest.mark.parametrize("text", ["[1, 2]", '{"space": {"kind": "seq"}, "depth": 1, "functional": {}, "c": []}'])
    def test_malformed_state_is_usage(self, tmp_path, text):
        p = tmp_path / "state.json"
        p.write_text(text)
        assert run_cli(["verify", "--state", str(p), "--out", str(tmp_path)]) == 64


class TestEval:
    def test_ribe(self, capsys):
        assert run_cli(["eval", "ribe", "--x", '{"1": "1/2", "2": "1/2"}']) == 0
        assert capsys.readouterr().out.strip() == "-0.693147180559945"

    def test_quasi_norm(self, capsys):
        assert run_cli(["eval", "quasi-norm", "--r", "0", "--x", '{"1": "1/1"}']) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_james(self, capsys):
        assert run_cli(["eval", "james-norm", "--x", '{"1": "1/1", "2": "1/1"}']) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_nonsplit(self, capsys):
        assert run_cli(["eval", "nonsplit", "--n", "8", "--cn", "1"]) == 0
        assert capsys.readouterr().out.strip() == "-2.07944154167984"

    def test_weighted(self, capsys):
        code = run_cli(
            ["eval", "weighted-ribe", "--x", '{"2": ["1/2", "1/2"]}', "--weights", '{"2": "1/2"}', "--p", "2"]
        )
        assert code == 0
        assert float(capsys.readouterr().out) == pytest.approx(-math.log(2) / 2, abs=1e-12)

    def test_parse_error_is_usage(self):
        assert run_cli(["eval", "ribe", "--x", "not json"]) == 64

    def test_unknown_subcommand_is_usage(self):
        assert run_cli(["eval", "mystery", "--x", "{}"]) == 64


class TestOracle:
    def test_lemma5(self, tmp_path):
        out = tmp_path / "run"
        run_cli(["construct", "--case", "a", "--depth", "2", "--out", str(out)])
        code = run_cli(["oracle", "lemma5", "--state", str(out / "state.json"), "--level", "2", "--out", str(out)])
        assert code == 0
        rep = json.loads((out / "oracle-report.json").read_text())
        assert rep["best_violation"] < 0
        assert rep["method"] == "exact"

    def test_lemma5_tampered_exits_three(self, tmp_path, ribe_normalized):
        xs, ds = tl.make_case_a_inputs(2, 2)
        bad = tl.run_construction(ribe_normalized, xs, ds, 2, m_override={2: 1}, verify_levels=False)
        p = tmp_path / "state.json"
        p.write_text(json.dumps(state_to_json(bad), sort_keys=True))
        assert run_cli(["oracle", "lemma5", "--state", str(p), "--level", "2", "--out", str(tmp_path)]) == 3

    def test_quasi_constant(self, tmp_path):
        code = run_cli(["oracle", "quasi-constant", "--trials", "200", "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        rep = json.loads((tmp_path / "oracle-report.json").read_text())
        assert rep["best_value"] <= 4.0

    def test_quasi_constant_nan_trials_is_usage(self, tmp_path):
        assert run_cli(["oracle", "quasi-constant", "--trials", "nan", "--out", str(tmp_path)]) == 64

    def test_chain_zero_budget(self, tmp_path):
        out = tmp_path / "run"
        run_cli(["construct", "--case", "a", "--depth", "2", "--out", str(out)])
        code = run_cli(["oracle", "chain", "--state", str(out / "state.json"), "--budget", "0", "--out", str(out)])
        assert code == 0

    def test_crosspolytope(self, tmp_path, capsys):
        code = run_cli(["oracle", "crosspolytope", "--ys", '[{"1": "1/1"}, {"2": "1/2"}]', "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.startswith("min 0.5")

    def test_unknown_target_usage(self):
        assert run_cli(["oracle", "mystery"]) == 64


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "twistlab.cli", "eval", "ribe", "--x", '{"1": "1/1"}'],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0"
