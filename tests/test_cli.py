import contextlib
import copy
import hashlib
import io
import json
import math
import random
import subprocess
import sys
import traceback

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import twistlab as tl
from twistlab import cli
from twistlab.cli import MAX_YS_SUPPORT, main
from twistlab.construction import state_from_json, state_to_json
from twistlab.quasilinear import NONSPLIT_CAP, functional_from_json
from twistlab.seqspace import FinSeq, MixedSeq, block_position, disjoint_supports

from .test_oracles import left_inverse_norm

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

# sha256 of state.json from ``construct --seed 1`` at benchmark size: case a
# at the case-a workload's depth 9, case c at depth 8 (12.6 MB of dense rows)
GOLDEN_LARGE = {
    ("a", 9): "1c2a5da84bbcebb15c450e1cb6b2b60724c188179bfcb9e83cac1531145b6d02",
    ("c", 8): "d63dd601bfd5c586f1edb55e0d0f29c9c916b8d6d60ae38a005bc66f639527c0",
}

# sha256 of the sort_keys JSON list of the ``level_mass`` entries written by
# ``verify --trials 0`` on the ``construct --depth 6 --seed 0`` state: pins
# the mass adversary's reported masses, witnesses and methods
GOLDEN_LEVEL_MASS = {
    "a": "9e15c98c7aefb0a918c69b3793d1952b849533b2b8c70fdedc9b11c29da79d31",
    "c": "679c12e0f8c8446c50a7c3449fa2661425b665a6937e182e69db370c4043eb37",
}

# sha256 of (transcript.json, sort_keys JSON of the ``chain_fuzzer`` entry)
# written by ``verify --trials 20 --seed 0`` on the same states: pins the
# ladder replay, its margins and the fuzzer's choice of certificates
GOLDEN_CHAIN = {
    "a": (
        "c59d4580071af959c2de297ee86441fe2782348d53b5cdf6eaa047373ec0b81e",
        "58998969fd967730d1d1a3f0d7eb1f371aa0e5aa1ac9ade7c7de1135610decc0",
    ),
    "c": (
        "5aacd534a60a529dbfc552328d3ab3096817d5fe12ecfe4933debdbda870f3f1",
        "65291619de4f6da3fb5bf783e1602aa4c97d7dd6f57824dd48fb32c079fdbe14",
    ),
}

# the same pair from ``verify --trials 100 --seed 0`` on the ``construct --case
# a --depth 8 --seed 1`` state, the benchmark's case-a verify: unlike the
# depth-6 runs it takes the coordinate ascent through accepted moves
GOLDEN_CHAIN_A8 = (
    "a0da9da95b8872af27b11e5397d8625d5a5dfdabc3f7ef6be868441cbeff7c67",
    "d65192b2890dc78e8252d103e04bd7bfcb9cbb0ed3a27e1207a3f715e6d38036",
)

# sha256 of the whole verify-report.json written by ``verify --trials 20
# --seed 0`` on the same states, its "state" path replaced by "state.json"
GOLDEN_REPORT = {
    "a": "cb2e75cd14285bf1b00f71a1b922b0798cd7ff67961eb26183388220d60e1007",
    "c": "6415160e437bf95a1d9b975d3c3624147acb51dcb33fca597e807c611562deb4",
}

# sha256 of json.dumps(report, sort_keys=True) for the same reports, their
# "state" replaced by "state.json" and their base_axioms entries left out:
# every other entry as it was when the merge check still sampled random
# certificate pairs
GOLDEN_REPORT_OUTSIDE_BASE_AXIOMS = {
    "a": "d5a8fab85dbd06bd690eb4581791dd3ce4877365a9317e24edc26b1ac55dd2d8",
    "c": "079ba068eb05bc72a8924d31747e8f7aa7b2e8b93a1964f376888badd303ce01",
}

# sha256 of oracle-report.json for each stateless oracle run: (arguments, digest)
WEIGHTED = '{"kind": "weighted_ribe", "weights": {"1": "1/1", "2": "1/2", "3": "1/4"}, "p": "2/1"}'
YS = '[{"1": "1/1", "2": "-1/2"}, {"2": "1/2", "3": "1/3"}, {"1": "1/4", "3": "-1/1"}]'
GOLDEN_ORACLE = {
    "quasi_constant_ribe": (
        ["quasi-constant", "--trials", "300", "--seed", "1"],
        "f446f989b13d06cdf3f844d0fe940121bd7a9779c1a0103b5f289018a6eb2394",
    ),
    "quasi_constant_weighted": (
        ["quasi-constant", "--functional", WEIGHTED, "--trials", "300", "--seed", "2"],
        "01f9805333cbdf44f0f13ff803d6abdc162ecdf8119ac364caee0d800be7e635",
    ),
    "crosspolytope": (
        ["crosspolytope", "--ys", YS],
        "ef03bb0fa82ad5f1c11456b1b81610fcc17ef6a84a6803c5153803de6761fc78",
    ),
}

# the sampler paths the entries above miss: the benchmark's 64-weight
# functional (block pool 1..6), a scaled Ribe, and user_linear bases on both
# spaces (random combinations of the basis)
WEIGHTED_64 = json.dumps({"kind": "weighted_ribe", "weights": {str(n): "1/%d" % 2 ** (n - 1) for n in range(1, 65)}, "p": "2/1"})
SCALED_RIBE = '{"kind": "scaled", "inner": {"kind": "ribe"}, "factor": "1/4"}'
LINEAR = (
    '{"kind": "user_linear", "basis": [{"1": "1/1", "2": "-1/1"}, {"2": "1/2", "3": "1/3"}, {"3": "-1/4", "5": "2/1"}],'
    ' "values": ["1/1", "-1/3", "5/2"], "assumed_constant": 1.0}'
)
LINEAR_MIXED = (
    '{"kind": "user_linear", "basis": [{"2": ["1/1", "-1/2"]}, {"1": ["1/3"], "3": ["0/1", "1/1", "-1/4"]}],'
    ' "values": ["1/1", "-2/1"], "space": {"kind": "mixed", "p": "3/1"}, "assumed_constant": 1.0}'
)
GOLDEN_ORACLE.update(
    {
        "quasi_constant_weighted_64": (
            ["quasi-constant", "--functional", WEIGHTED_64, "--trials", "300", "--seed", "3"],
            "4722c72438bcbeef476c27e6a307248f1c1d53726d83498486f2c5324ce9dac9",
        ),
        "quasi_constant_scaled_ribe": (
            ["quasi-constant", "--functional", SCALED_RIBE, "--trials", "300", "--seed", "4"],
            "bad9319720e87615b5b6c61f6ee725f0ae9bc47f113c0feacb54115794354c96",
        ),
        "quasi_constant_user_linear": (
            ["quasi-constant", "--functional", LINEAR, "--trials", "300", "--seed", "5"],
            "681eabe2ddc500194075878062909611e0474d7681acd3c6fd0b0ca7707bb9a0",
        ),
        "quasi_constant_user_linear_mixed": (
            ["quasi-constant", "--functional", LINEAR_MIXED, "--trials", "300", "--seed", "6"],
            "65e94756a6f855f5d5d29841957428e670ac5bda856e06a02f1c5406192c66d2",
        ),
    }
)


# normalized, and defined on the span of e_1 only
USER_LINEAR_ON_E1 = {
    "kind": "scaled",
    "inner": {"kind": "user_linear", "basis": [{"1": "1/1"}], "values": ["1/1"], "assumed_constant": 1.0},
    "factor": "1/1",
}

# tampered copies of a depth-2 state: (tamper, text of the violation, or of
# each violation line in order[, case, "a" if absent])
TAMPERED = {
    "functional_swapped": (
        lambda s: s.update(functional={"kind": "ribe", "assumed_constant": 4.0}),
        "static:functional_normalized",
    ),
    "e_idx_out_of_range": (lambda s: s["e_idx"].__setitem__(1, 4), "e_idx[1] = 4"),
    "e_idx_truncated": (lambda s: s["e_idx"].pop(), "e_idx has 1 entries for depth 2"),
    "ell_past_xs": (lambda s: s["ell"]["2"].__setitem__(0, len(s["xs"]) + 1), "ell[2] points past"),
    **{
        "level_missing_from_" + key: (lambda s, key=key: s[key].pop("2"), "level 2 missing from " + key)
        for key in ("c", "m", "s", "ell", "G")
    },
    "M_table_wrong": (lambda s: s["M"].__setitem__("2", "1000/1"), "static:M_table level 2"),
    "depth_past_tables": (lambda s: s.update(depth=3, e_idx=s["e_idx"] + [1]), "level 3 missing from c, s, ell, m, G"),
    # no level to check: every per-level loop would pass vacuously
    "depth_zero": (lambda s: s.update(depth=0), "static:state_shape depth 0 is below 1"),
    "depth_negative": (lambda s: s.update(depth=-1), "static:state_shape depth -1 is below 1"),
    # two generators trade places: the uniform hull and the level mass stay
    # the same, so only the shape check can see it
    "generator_perturbed": (
        lambda s: s["G"]["2"].__setitem__(slice(0, 2), s["G"]["2"][1::-1]),
        "static:g_shape level 2",
    ),
    # a level-1 generator equal to the level's e-vector stretches to the zero
    # vector, so the level mass is unbounded: in case a d_1 = e_1, in case c
    # the first generator without its block-2 row
    "generator_equals_e": (
        lambda s: s["G"]["1"].__setitem__(1, {"1": "1/1"}),
        ["static:g_shape level 1", "static:e_hull level 1", "level_mass: level 1 mass inf"],
    ),
    # a table value or a parameter past the float range: a float step
    # overflows, and the state fails closed
    "c_past_the_float_range": (
        lambda s: s["c"].__setitem__("1", "1e400"),
        "numeric: integer division result too large for a float",
    ),
    # a space other than the functional's: refused before any norm is taken
    # (the p of 1e400 is not printed)
    "case_c_p_past_the_float_range": (
        lambda s: s["space"].__setitem__("p", "1e400"),
        "static:state_shape the space is not the functional's",
        "c",
    ),
    "case_c_space_p_other": (
        lambda s: s["space"].__setitem__("p", "3/1"),
        "static:state_shape the space is not the functional's",
        "c",
    ),
    # the functional has no weight for a block that a generator touches
    "case_c_weight_missing": (
        lambda s: s["functional"]["inner"]["weights"].pop("2"),
        "static:state_shape the functional has no weight for block 2 of a generator",
        "c",
    ),
    # a user_linear functional that the generators fall outside of: its
    # evaluation has no value there
    "user_linear_outside_span": (
        lambda s: s.update(functional=USER_LINEAR_ON_E1),
        "static:state_shape the functional is not defined on a generator outside the span of its basis",
    ),
    "case_c_block_row_deleted": (
        lambda s: s["G"]["1"][0].pop("2"),
        ["static:g_shape level 1", "static:e_hull level 1", "level_mass: level 1 mass inf"],
        "c",
    ),
}


# malformed inline JSON, each of which must exit 64 with one error line
MALFORMED = {
    **{
        "crosspolytope_ys_" + name: ["oracle", "crosspolytope", "--ys", ys]
        for name, ys in (
            ("empty", "[]"),
            ("zero_vector", "[{}]"),
            ("block_vector", '[{"1": ["1/1"]}]'),
            ("number", "[1]"),
            ("object", '{"a": 1}'),
            ("wide_support", json.dumps([{str(c): "1/1" for c in range(1, MAX_YS_SUPPORT + 2)}, {"1": "1/1"}])),
            ("too_many", json.dumps([{str(c % MAX_YS_SUPPORT + 1): "1/1"} for c in range(MAX_YS_SUPPORT + 1)])),
        )
    },
    "quasi_constant_list": ["oracle", "quasi-constant", "--functional", "[1]"],
    "quasi_constant_text_constant": [
        "oracle",
        "quasi-constant",
        "--functional",
        '{"kind": "ribe", "assumed_constant": "x"}',
    ],
    # malformed weights: none at all, a block index below 1, and one past
    # NONSPLIT_CAP, whose block would be drawn in full before a single pair
    **{
        "quasi_constant_weighted_" + name: [
            "oracle",
            "quasi-constant",
            "--functional",
            '{"kind": "weighted_ribe", "weights": %s, "p": "2/1"}' % weights,
            "--trials",
            "1",
        ]
        for name, weights in (
            ("no_weights", "{}"),
            ("block_zero", '{"0": "1/1"}'),
            ("negative_block", '{"-3": "1/1", "2": "1/2"}'),
            ("block_past_cap", '{"1": "1/1", "%d": "1/2"}' % (NONSPLIT_CAP + 1)),
        )
    },
    "construct_custom_xs_number": [
        "construct",
        "--case",
        "custom",
        "--depth",
        "1",
        "--functional",
        '{"kind": "ribe"}',
        "--xs",
        "[1]",
        "--ds",
        '[{"1": "1/1"}]',
    ],
    "lemma5_no_state": ["oracle", "lemma5"],
    # a level outside 1..depth of the depth-2 state, which is left as it is
    **{"lemma5_level_%d" % n: ["oracle", "lemma5", "--state", lambda s: None, "--level", str(n)] for n in (0, 3)},
    "chain_no_state": ["oracle", "chain"],
    "crosspolytope_no_ys": ["oracle", "crosspolytope"],
    "eval_list": ["eval", "ribe", "--x", "[1]"],
    "eval_zero_denominator": ["eval", "ribe", "--x", '{"1": "1/0"}'],
    # a vector is a JSON object: none of these is the zero vector, nor pairs
    **{
        "eval_%s_x_%s" % (what, name): ["eval", what, "--x", x, *(["--weights", '{"1": "1/1"}'] if what == "weighted-ribe" else [])]
        for what in ("ribe", "james-norm", "quasi-norm", "weighted-ribe")
        for name, x in (("null", "null"), ("empty_list", "[]"), ("zero", "0"), ("false", "false"), ("empty_string", '""'), ("pairs", '[[1, "1/1"]]'))
    },
    **{"eval_quasi_norm_r_" + r: ["eval", "quasi-norm", "--r", r, "--x", '{"1": "1/1"}'] for r in ("nan", "inf", "1e400")},
    # a margin compares false with nan, and inf makes every margin a violation
    **{"verify_tolerance_" + t: ["verify", "--state", lambda s: None, "--tolerance", t] for t in ("nan", "inf")},
    # a negative count is refused, not run as zero trials or as one
    "verify_trials_negative": ["verify", "--state", lambda s: None, "--trials", "-5"],
    "chain_budget_negative": ["oracle", "chain", "--state", lambda s: None, "--budget", "-5"],
    "quasi_constant_trials_negative": ["oracle", "quasi-constant", "--trials", "-5"],
    **{
        "crosspolytope_ys_" + name: ["oracle", "crosspolytope", "--ys", ys]
        for name, ys in (
            ("null_vector", '[null, {"1": "1/1"}]'),
            ("pairs_vector", '[{"1": "1/1"}, [[2, "1/1"]]]'),
        )
    },
    **{
        "construct_custom_%s_%s" % (flag, name): [
            "construct",
            "--case",
            "custom",
            "--depth",
            "1",
            "--functional",
            '{"kind": "ribe"}',
            *(["--xs", vs, "--ds", '[{"1": "1/1"}]'] if flag == "xs" else ["--xs", '[{"3": "1/1", "4": "-1/1"}, {"5": "1/1", "6": "-1/1"}]', "--ds", vs]),
        ]
        for flag in ("xs", "ds")
        for name, vs in (
            ("null", "[null]"),
            ("pairs", '[[[7, "1/1"]]]'),
            ("object", '{"7": "1/1"}'),
            ("mixed_shapes", '[{"7": "1/1", "8": "-1/1"}, {"4": ["1/1", "-1/1", "0/1", "0/1"]}]'),
        )
    },
}

# copies of a case-a depth-2 state whose depth, functional or an integer table
# does not parse, given to each command that loads a state, as the tamper in
# the place of the state path
UNPARSED_STATES = {
    "depth_text": lambda s: s.update(depth="6"),
    "depth_fraction": lambda s: s.update(depth=6.5),
    "depth_null": lambda s: s.update(depth=None),
    "functional_text": lambda s: s.update(functional="ribe"),
    "functional_list": lambda s: s.update(functional=[]),
    "functional_inner_text": lambda s: s.update(functional={"kind": "scaled", "inner": "ribe", "factor": "1/4"}),
    # the integer tables take JSON ints only, as depth does
    "e_idx_float": lambda s: s.update(e_idx=[1.9, 2.9]),
    "e_idx_bool": lambda s: s["e_idx"].__setitem__(0, True),
    "m_float": lambda s: s["m"].__setitem__("1", 145.5),
    # a null is not a JSON int either
    "s_null": lambda s: s["s"].__setitem__("2", None),
    "ell_null": lambda s: s["ell"]["2"].__setitem__(0, None),
    # a coordinate past 256 bits: its float would overflow, or underflow to 0
    "generator_coordinate_1e400": lambda s: s["G"]["1"][0].__setitem__("1", "1e400"),
    "generator_coordinate_1e-400": lambda s: s["G"]["1"][0].__setitem__("1", "1e-400"),
    # a scale factor past the float range
    "functional_factor_1e400": lambda s: s["functional"].update(factor="1e400"),
}
MALFORMED.update(
    {
        "%s_state_%s" % (cmd[-1], name): [*cmd, "--state", tamper]
        for cmd in (["verify"], ["oracle", "lemma5"], ["oracle", "chain"])
        for name, tamper in UNPARSED_STATES.items()
    }
)
# a space of an unknown kind is refused, not read as the mixed space: on a
# case-c state, given as (case, tamper), and in a user_linear descriptor
MALFORMED.update(
    {
        "%s_state_space_kind_unknown" % cmd[-1]: [*cmd, "--state", ("c", lambda s: s["space"].update(kind="mixd"))]
        for cmd in (["verify"], ["oracle", "lemma5"], ["oracle", "chain"])
    }
)
MALFORMED["quasi_constant_user_linear_space_kind_unknown"] = [
    "oracle",
    "quasi-constant",
    "--functional",
    LINEAR_MIXED.replace('"kind": "mixed"', '"kind": "mixd"'),
    "--trials",
    "1",
]


def run_cli(args):
    """In-process invocation; SystemExit from usage errors is normalized."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


def write_tampered(tmp_path, name):
    """The depth-2 state of ``TAMPERED[name]``'s case, tampered and written
    to ``tmp_path / "state.json"``; returns that path."""
    tamper, _, *case = TAMPERED[name]
    out = tmp_path / "run"
    assert run_cli(["construct", "--case", *(case or ["a"]), "--depth", "2", "--out", str(out)]) == 0
    state = json.loads((out / "state.json").read_text())
    tamper(state)
    p = tmp_path / "state.json"
    p.write_text(json.dumps(state))
    return p


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

    @pytest.mark.parametrize("case, depth", sorted(GOLDEN_LARGE))
    def test_golden_bytes_large(self, tmp_path, case, depth):
        out = tmp_path / case
        assert run_cli(["construct", "--case", case, "--depth", str(depth), "--seed", "1", "--out", str(out)]) == 0
        assert hashlib.sha256((out / "state.json").read_bytes()).hexdigest() == GOLDEN_LARGE[case, depth]

    def test_depth_zero_usage_error(self, tmp_path):
        assert run_cli(["construct", "--depth", "0", "--out", str(tmp_path)]) == 64

    def test_depth_above_cap_is_usage(self, tmp_path):
        # refused before the 2^(depth + 2) case inputs are built
        assert run_cli(["construct", "--depth", "1000000", "--out", str(tmp_path)]) == 64

    def test_case_c_depth_cap_is_usage(self, tmp_path, capsys, monkeypatch):
        # case c's dense block JSON grows 4x per level: depth 11 is refused
        # before its inputs are built, depth 10 still reaches them
        def build(*args):
            raise LookupError("inputs built for %r" % (args,))

        monkeypatch.setattr("twistlab.cli.make_case_c_inputs", build)
        assert run_cli(["construct", "--case", "c", "--depth", "11", "--out", str(tmp_path)]) == 64
        assert capsys.readouterr().err == "error: --depth must be between 1 and 10 for case c\n"
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(LookupError, match=r"\(10, 3\)"):
            run_cli(["construct", "--case", "c", "--depth", "10", "--out", str(tmp_path)])

    def test_generators_above_supply_is_usage(self, tmp_path, capsys, monkeypatch):
        # depth 1 builds 2^3 kernel vectors; more generators are refused
        # before the inputs are built, 8 still reaches them
        def build(*args):
            raise LookupError("inputs built for %r" % (args,))

        monkeypatch.setattr("twistlab.cli.make_case_a_inputs", build)
        assert run_cli(["construct", "--case", "a", "--depth", "1", "--generators", "9", "--out", str(tmp_path)]) == 64
        assert capsys.readouterr().err == "error: --generators must be between 1 and 8\n"
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(LookupError, match=r"\(1, 8\)"):
            run_cli(["construct", "--case", "a", "--depth", "1", "--generators", "8", "--out", str(tmp_path)])

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

    def test_custom_overlapping_kernel_certifies_with_the_bound(self, tmp_path):
        # levels 1-3 draw 15 disjoint mean-zero pairs; level 4 draws 16
        # overlapping vectors {3i+1: 1, 3i+2: -1, 3i+4: 1/2}, past the orthant
        # cap, so its M is the left-inverse norm and its mass search bounded
        xs = [{str(2 * i + 1): "1", str(2 * i + 2): "-1"} for i in range(15)]
        xs += [{str(3 * i + 1): "1", str(3 * i + 2): "-1", str(3 * i + 4): "1/2"} for i in range(10, 34)]
        (tmp_path / "f.json").write_text(json.dumps({"kind": "ribe", "assumed_constant": 4.0}))
        (tmp_path / "xs.json").write_text(json.dumps(xs))
        (tmp_path / "ds.json").write_text(json.dumps([{str(j): "1"} for j in (1, 2, 3)]))
        out = tmp_path / "run"
        args = ["--functional", str(tmp_path / "f.json"), "--xs", str(tmp_path / "xs.json"), "--ds", str(tmp_path / "ds.json")]
        assert run_cli(["construct", "--case", "custom", "--depth", "4", "--out", str(out), *args]) == 0
        state = state_from_json(json.loads((out / "state.json").read_text()))
        level4 = state.level_x(4)
        assert min(x.support[0] for x in level4) > 30 and not disjoint_supports(*level4)
        assert state.M[4] == left_inverse_norm(level4)
        assert run_cli(["verify", "--state", str(out / "state.json"), "--trials", "0", "--out", str(out)]) == 0
        report = json.loads((out / "verify-report.json").read_text())
        assert [e["method"] for e in report["entries"] if e["source"] == "level_mass"] == ["exact"] * 3 + ["bounded"]


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
        p.write_text(json.dumps(state_to_json(bad), sort_keys=True, default=lambda v: v.to_json()))
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

    @pytest.mark.parametrize("case", sorted(GOLDEN_LEVEL_MASS))
    def test_golden_level_mass(self, tmp_path, case):
        out = tmp_path / case
        assert run_cli(["construct", "--case", case, "--depth", "6", "--seed", "0", "--out", str(out)]) == 0
        assert run_cli(["verify", "--state", str(out / "state.json"), "--trials", "0", "--out", str(out)]) == 0
        report = json.loads((out / "verify-report.json").read_text())
        entries = [e for e in report["entries"] if e["source"] == "level_mass"]
        assert len(entries) == 6
        digest = hashlib.sha256(json.dumps(entries, sort_keys=True).encode()).hexdigest()
        assert digest == GOLDEN_LEVEL_MASS[case]

    @staticmethod
    def chain_digests(out, case, depth, construct_seed, trials):
        """(transcript.json, chain_fuzzer entry) digests of ``verify --seed 0``."""
        args = ["construct", "--case", case, "--depth", str(depth), "--seed", str(construct_seed), "--out", str(out)]
        assert run_cli(args) == 0
        state = str(out / "state.json")
        assert run_cli(["verify", "--state", state, "--trials", str(trials), "--seed", "0", "--out", str(out)]) == 0
        report = json.loads((out / "verify-report.json").read_text())
        [entry] = [e for e in report["entries"] if e["source"] == "chain_fuzzer"]
        return (
            hashlib.sha256((out / "transcript.json").read_bytes()).hexdigest(),
            hashlib.sha256(json.dumps(entry, sort_keys=True).encode()).hexdigest(),
        )

    @pytest.mark.parametrize("case", sorted(GOLDEN_CHAIN))
    def test_golden_chain(self, tmp_path, case):
        assert self.chain_digests(tmp_path / case, case, 6, 0, 20) == GOLDEN_CHAIN[case]

    def test_golden_chain_at_benchmark_size(self, tmp_path):
        assert self.chain_digests(tmp_path / "a8", "a", 8, 1, 100) == GOLDEN_CHAIN_A8

    @pytest.mark.parametrize("case", sorted(GOLDEN_REPORT))
    def test_golden_report(self, tmp_path, case):
        out = tmp_path / case
        assert run_cli(["construct", "--case", case, "--depth", "6", "--seed", "0", "--out", str(out)]) == 0
        state = str(out / "state.json")
        assert run_cli(["verify", "--state", state, "--trials", "20", "--seed", "0", "--out", str(out)]) == 0
        text = (out / "verify-report.json").read_text()
        text = text.replace('"state": %s,' % json.dumps(state), '"state": "state.json",', 1)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORT[case]

    @pytest.mark.parametrize("case", sorted(GOLDEN_REPORT_OUTSIDE_BASE_AXIOMS))
    def test_golden_report_outside_base_axioms(self, tmp_path, case):
        out = tmp_path / case
        assert run_cli(["construct", "--case", case, "--depth", "6", "--seed", "0", "--out", str(out)]) == 0
        assert run_cli(["verify", "--state", str(out / "state.json"), "--trials", "20", "--seed", "0", "--out", str(out)]) == 0
        report = json.loads((out / "verify-report.json").read_text())
        merge = [e for e in report["entries"] if e["source"] == "base_axioms" and e["name"] != "ball_radius_additivity"]
        assert [(e["name"], e["level"], e["passed"]) for e in merge] == [("merge_closure_at_budget", n, True) for n in range(1, 7)]
        report["state"] = "state.json"
        report["entries"] = [e for e in report["entries"] if e["source"] != "base_axioms"]
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == GOLDEN_REPORT_OUTSIDE_BASE_AXIOMS[case]

    @pytest.mark.parametrize("name", sorted(TAMPERED))
    def test_tampered_field_exits_three(self, tmp_path, capsys, name):
        p = write_tampered(tmp_path, name)
        capsys.readouterr()
        assert run_cli(["verify", "--state", str(p), "--trials", "0", "--out", str(tmp_path)]) == 3
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("VIOLATION")]
        expected = TAMPERED[name][1]
        expected = [expected] if isinstance(expected, str) else expected
        assert len(lines) == len(expected) and all(text in line for text, line in zip(expected, lines))

    def test_chain_violation_exits_three(self, tmp_path, capsys):
        # a level budget far below the level's mass: the fuzzer's replays
        # fail, which only a run with trials reports
        out = tmp_path / "run"
        assert run_cli(["construct", "--case", "a", "--depth", "2", "--out", str(out)]) == 0
        state = json.loads((out / "state.json").read_text())
        state["c"]["1"] = "1/1000000"
        p = tmp_path / "state.json"
        p.write_text(json.dumps(state))
        capsys.readouterr()
        code, stdout, stderr = run_captured(["verify", "--state", str(p), "--trials", "3", "--out", str(tmp_path / "out")])
        assert (code, stderr) == (3, "")
        lines = [line for line in stdout.splitlines() if line.startswith("VIOLATION")]
        assert lines[0].startswith("VIOLATION level_mass: level 1 mass ")
        assert lines[1].startswith("VIOLATION chain: 3 ladder replays, 1 bound checks, 2 failures, min margin -")
        assert lines[2].startswith("VIOLATION chain: min margin -") and lines[2].endswith(" below tolerance 1e-09")
        assert len(lines) == 3

    @pytest.mark.parametrize("cmd", [["verify", "--trials", "0"], ["oracle", "chain", "--budget", "3"]], ids=["verify", "chain"])
    def test_user_linear_outside_span_exits_three(self, tmp_path, capsys, cmd):
        p = write_tampered(tmp_path, "user_linear_outside_span")
        capsys.readouterr()
        code, stdout, stderr = run_captured([*cmd, "--state", str(p), "--out", str(tmp_path / "out")])
        assert (code, stderr) == (3, "")
        assert stdout == "VIOLATION %s\n" % TAMPERED["user_linear_outside_span"][1]

    @pytest.mark.parametrize("depth", [0, -1])
    @pytest.mark.parametrize("cmd", [["verify"], ["oracle", "lemma5"], ["oracle", "chain"]], ids=lambda cmd: cmd[-1])
    def test_depth_below_one_exits_three(self, tmp_path, capsys, state2_text, cmd, depth):
        state = json.loads(state2_text)
        state["depth"] = depth
        p = tmp_path / "state.json"
        p.write_text(json.dumps(state))
        assert run_cli([*cmd, "--state", str(p), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().out == "VIOLATION static:state_shape depth %d is below 1\n" % depth
        assert sorted(tmp_path.iterdir()) == [p]

    def test_changed_generator_moves_the_hull(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(["construct", "--case", "a", "--depth", "2", "--out", str(out)]) == 0
        state = json.loads((out / "state.json").read_text())
        state["G"]["2"][0]["2"] = "2/1"
        p = tmp_path / "state.json"
        p.write_text(json.dumps(state))
        capsys.readouterr()
        assert run_cli(["verify", "--state", str(p), "--trials", "0", "--out", str(tmp_path)]) == 3
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("VIOLATION")]
        assert lines[:2] == ["VIOLATION static:g_shape level 2", "VIOLATION static:e_hull level 2"]

    def test_emptied_level_exits_three(self, tmp_path, capsys):
        # an empty G[n] has no uniform hull: e_hull fails instead of dividing by 0
        out = tmp_path / "run"
        assert run_cli(["construct", "--case", "a", "--depth", "2", "--out", str(out)]) == 0
        state = json.loads((out / "state.json").read_text())
        state["G"]["1"] = []
        p = tmp_path / "state.json"
        p.write_text(json.dumps(state))
        capsys.readouterr()
        assert run_cli(["verify", "--state", str(p), "--trials", "0", "--out", str(tmp_path)]) == 3
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("VIOLATION")]
        assert lines[:3] == ["VIOLATION static:g_size level 1", "VIOLATION static:g_shape level 1", "VIOLATION static:e_hull level 1"]

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            '{"space": {"kind": "seq"}, "depth": 1, "functional": {}, "c": []}',
            # a vector of the other space's shape in a constructed state
            pytest.param(("a", "d_generators", {"1": ["1/1"]}), id="block_vector_in_case_a"),
            pytest.param(("c", "xs", {"1": "1/1"}), id="sparse_vector_in_case_c"),
            pytest.param(("c", "xs", {"1": "7"}), id="string_row_in_case_c"),
            # rationals the "num/den" fast path splits, or hands on to Fraction
            pytest.param(("a", "xs", {"1": "1/0"}), id="zero_denominator"),
            pytest.param(("a", "xs", {"1": "0/0"}), id="zero_over_zero"),
            pytest.param(("a", "xs", {"1": "1/-2"}), id="signed_denominator"),
            pytest.param(("c", "xs", {"1": ["1/0"]}), id="zero_denominator_in_a_row"),
        ],
    )
    def test_malformed_state_is_usage(self, tmp_path, text):
        if isinstance(text, tuple):
            case, key, vec = text
            out = tmp_path / "run"
            assert run_cli(["construct", "--case", case, "--depth", "2", "--out", str(out)]) == 0
            state = json.loads((out / "state.json").read_text())
            state[key][0] = vec
            text = json.dumps(state)
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

    def test_nonsplit_above_cap_is_usage(self, capsys):
        assert run_cli(["eval", "nonsplit", "--n", str(NONSPLIT_CAP + 1), "--cn", "1"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot evaluate: block index must be between 1 and %d\n" % NONSPLIT_CAP

    def test_weighted(self, capsys):
        code = run_cli(
            ["eval", "weighted-ribe", "--x", '{"2": ["1/2", "1/2"]}', "--weights", '{"2": "1/2"}']
        )
        assert code == 0
        assert float(capsys.readouterr().out) == pytest.approx(-math.log(2) / 2, abs=1e-12)

    @pytest.mark.parametrize("what", ["ribe", "james-norm", "quasi-norm"])
    def test_empty_object_is_the_zero_vector(self, capsys, what):
        assert run_cli(["eval", what, "--x", "{}"]) == 0
        assert capsys.readouterr().out == "0\n"

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
        p.write_text(json.dumps(state_to_json(bad), sort_keys=True, default=lambda v: v.to_json()))
        assert run_cli(["oracle", "lemma5", "--state", str(p), "--level", "2", "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("name", ["generator_equals_e", "case_c_block_row_deleted"])
    def test_lemma5_zero_stretched_vector_exits_three(self, tmp_path, capsys, name):
        # a kept zero vector ends the mass search with the exact infinite mass
        p = write_tampered(tmp_path, name)
        capsys.readouterr()
        assert run_cli(["oracle", "lemma5", "--state", str(p), "--level", "1", "--out", str(tmp_path)]) == 3
        assert "best value inf against bound 0.0625 (violation inf, exact)" in capsys.readouterr().out
        rep = json.loads((tmp_path / "oracle-report.json").read_text())
        assert rep["method"] == "exact" and rep["notes"] == "combined vector vanished: coefficient mass is unbounded"

    def test_lemma5_too_many_patterns_exits_three(self, tmp_path, capsys):
        # 20 level-2 generators leave comb(20, 4) > PATTERN_CAP patterns
        out = tmp_path / "run"
        assert run_cli(["construct", "--case", "a", "--depth", "2", "--out", str(out)]) == 0
        state = json.loads((out / "state.json").read_text())
        state["G"]["2"] *= 4
        p = tmp_path / "state.json"
        p.write_text(json.dumps(state))
        assert run_cli(["oracle", "lemma5", "--state", str(p), "--level", "2", "--out", str(tmp_path)]) == 3
        rep = json.loads((tmp_path / "oracle-report.json").read_text())
        assert rep["trials"] == 0 and rep["witness"] is None and rep["method"] == "refused"
        assert "refused: 4845 support patterns exceed the cap of 4097" in capsys.readouterr().out
        assert run_cli(["verify", "--state", str(p), "--trials", "0", "--out", str(tmp_path)]) == 3
        assert "VIOLATION level_mass: level 2 refused: 4845 support patterns exceed the cap" in capsys.readouterr().out

    def test_quasi_constant(self, tmp_path):
        code = run_cli(["oracle", "quasi-constant", "--trials", "200", "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        rep = json.loads((tmp_path / "oracle-report.json").read_text())
        assert rep["best_value"] <= 4.0

    def test_quasi_constant_nan_trials_is_usage(self, tmp_path):
        assert run_cli(["oracle", "quasi-constant", "--trials", "nan", "--out", str(tmp_path)]) == 64

    def test_quasi_constant_zero_trials_runs_nothing(self, tmp_path, capsys):
        # as ``oracle chain --budget 0``: no pair is drawn, and the report says so
        for trials in ("0", "0.9"):
            assert run_cli(["oracle", "quasi-constant", "--trials", trials, "--out", str(tmp_path)]) == 0
            rep = json.loads((tmp_path / "oracle-report.json").read_text())
            assert (rep["trials"], rep["best_value"], rep["witness"], rep["notes"]) == (0, None, None, "no-op: zero trials")
        assert capsys.readouterr().out == "quasi_constant: no-op: zero trials (violation None, heuristic)\n" * 2

    def test_chain_zero_budget(self, tmp_path):
        out = tmp_path / "run"
        run_cli(["construct", "--case", "a", "--depth", "2", "--out", str(out)])
        code = run_cli(["oracle", "chain", "--state", str(out / "state.json"), "--budget", "0", "--out", str(out)])
        assert code == 0

    def test_crosspolytope(self, tmp_path, capsys):
        code = run_cli(["oracle", "crosspolytope", "--ys", '[{"1": "1/1"}, {"2": "1/2"}]', "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.startswith("min 0.5")

    def test_crosspolytope_at_the_support_bound(self, tmp_path, capsys):
        # two overlapping vectors spanning exactly MAX_YS_SUPPORT coordinates
        ys = [{str(c): "1/1" for c in range(1, MAX_YS_SUPPORT + 1)}, {"1": "1/1", str(MAX_YS_SUPPORT): "-1/2"}]
        assert run_cli(["oracle", "crosspolytope", "--ys", json.dumps(ys), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith("min ")

    @pytest.mark.parametrize("ys", [[{"1": "1/1"}, {"1": ["1/1"]}], [{"1": ["1/1"]}, {"1": "1/1"}]])
    def test_crosspolytope_mixed_shapes_is_usage_in_either_order(self, tmp_path, capsys, ys):
        # the first vector's shape once decided the space: l1 first read the
        # block vector as l1 position 1 and printed min 0
        assert run_cli(["oracle", "crosspolytope", "--ys", json.dumps(ys), "--out", str(tmp_path)]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot use --ys: the vectors mix the l1 and the block JSON shapes\n"
        assert not (tmp_path / "oracle-report.json").exists()

    def test_unknown_target_usage(self):
        assert run_cli(["oracle", "mystery"]) == 64

    @pytest.mark.parametrize("name", sorted(GOLDEN_ORACLE))
    def test_golden_report(self, tmp_path, name):
        args, digest = GOLDEN_ORACLE[name]
        assert run_cli(["oracle", *args, "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "oracle-report.json").read_bytes()).hexdigest() == digest


@pytest.fixture(scope="module")
def state2_text():
    """The ``state.json`` text of a case-a depth-2 construction."""
    xs, ds = tl.make_case_a_inputs(2, 3)
    return cli._dump_json(state_to_json(tl.run_construction(tl.normalize_constant(tl.Ribe()), xs, ds, 2)))


@pytest.fixture(scope="module")
def state2_c_text():
    """The ``state.json`` text of a case-c depth-2 construction."""
    xs, ds, weights = tl.make_case_c_inputs(2, 3)
    F = tl.normalize_constant(tl.WeightedRibe(weights, 2))
    return cli._dump_json(state_to_json(tl.run_construction(F, xs, ds, 2)))


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_is_usage(tmp_path, capsys, state2_text, state2_c_text, name):
    args = MALFORMED[name] + (["--out", str(tmp_path)] if MALFORMED[name][0] == "oracle" else [])
    for i, arg in enumerate(args):
        if callable(arg) or isinstance(arg, tuple):  # a tamper of the depth-2 state, of case a unless named
            case, tamper = arg if isinstance(arg, tuple) else ("a", arg)
            state = json.loads(state2_c_text if case == "c" else state2_text)
            tamper(state)
            args[i] = str(tmp_path / "state.json")
            (tmp_path / "state.json").write_text(json.dumps(state))
    assert run_cli(args) == 64
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not (tmp_path / "oracle-report.json").exists()


@pytest.mark.parametrize(
    "args, message",
    [(["eval", "ribe", "--x"], "cannot evaluate"), (["oracle", "crosspolytope", "--ys"], "cannot use --ys")],
    ids=["eval_x", "crosspolytope_ys"],
)
def test_unreadable_file_is_usage(tmp_path, capsys, monkeypatch, args, message):
    # a path that is a file but fails to read, as /proc/self/mem does with EIO
    path = tmp_path / "x.json"
    path.write_text('{"1": "1/1"}')

    def read_text(self, *a, **k):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(type(path), "read_text", read_text)
    assert run_cli([*args, str(path), *(["--out", str(tmp_path)] if args[0] == "oracle" else [])]) == 64
    assert capsys.readouterr().err == "error: %s: [Errno 5] Input/output error\n" % message


# --- the tamper fuzzer ---------------------------------------------------------

# the values a mutation writes in place of any node of a state
TYPED_VALUES = [
    None, True, False, 0, 1, -1, 2, 1.5, 2 ** 70, "", "x", "0/1", "1/1", "-1/2", "1/0", "1e400", "1e-400",
    [], {}, [1], {"1": "1/1"}, ["1/1"],
]
# the commands that load a state
STATE_COMMANDS = [["verify", "--trials", "0"], ["verify", "--trials", "3"], ["oracle", "lemma5"], ["oracle", "chain", "--budget", "3"]]


def json_paths(node, prefix=()):
    """(path, node) of every node of a JSON tree below its root."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,), child
        yield from json_paths(child, prefix + (key,))


def mutate(tree, rng):
    """One seeded mutation of a state tree, in place, on a node of its
    generators (``G`` and ``d_generators``) half of the time: a "num/den"
    value with its numerator or its denominator moved, a node deleted, set to
    a typed value or duplicated, or a key added.  Returns what it did."""
    nodes = list(json_paths(tree))
    if rng.random() < 0.5:
        nodes = [(p, v) for p, v in nodes if p[0] in ("G", "d_generators")]
    ratios = [(p, v) for p, v in nodes if isinstance(v, str) and "/" in v]
    kind = rng.choice(["numerator", "denominator", "delete", "set", "duplicate", "add key"])
    if kind in ("numerator", "denominator") and ratios:
        path, value = rng.choice(ratios)
        n, d = map(int, value.split("/"))
        n, d = (n + rng.choice((-1, 1)), d) if kind == "numerator" else (n, d + rng.choice((1, 2, d)))
        new = "%d/%d" % (n, d)
    else:
        path, value = rng.choice(nodes)
        if kind == "delete":
            new = None
        elif kind == "duplicate" and isinstance(value, list) and value:
            new = value + [rng.choice(value)]
        elif kind == "add key" and isinstance(value, dict):
            new = {**value, "extra": rng.choice(TYPED_VALUES)}
        else:
            kind, new = "set", rng.choice(TYPED_VALUES)
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return "%s at %s" % (kind, "/".join(map(str, path)))


def run_captured(args):
    """(exit code, stdout, stderr) of one in-process run; an exception that
    escapes ``main`` comes back as the code "traceback" with its text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run_cli(args)
        except Exception:
            code = "traceback"
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


class TestTamperFuzzer:
    MUTANTS = 250  # per case: about 10 s for both cases on a 2-core Xeon

    @pytest.mark.parametrize("case", ["a", "c"])
    def test_mutants_keep_the_exit_code_contract(self, tmp_path, case):
        # verify exits 3 on a tampered state and 64 on a malformed one, with
        # one error line, and never with a traceback
        assert run_cli(["construct", "--case", case, "--depth", "2", "--out", str(tmp_path / "base")]) == 0
        base = (tmp_path / "base" / "state.json").read_text()
        path, out = tmp_path / "state.json", tmp_path / "out"
        codes = set()
        for k in range(self.MUTANTS):
            tree = json.loads(base)
            what = mutate(tree, random.Random("%s:%d" % (case, k)))
            path.write_text(json.dumps(tree))
            for cmd in STATE_COMMANDS:
                code, stdout, stderr = run_captured([*cmd, "--state", str(path), "--out", str(out)])
                context = (k, what, cmd, code, stderr[-2000:])
                assert code in (0, 3, 64), context
                assert "Traceback" not in stdout + stderr, context
                if code == 64:
                    assert [line.startswith("error: ") for line in stderr.splitlines()] == [True], context
                codes.add(code)
        assert codes == {0, 3, 64}

    @pytest.mark.parametrize(
        "tamper",
        [
            # the functional loses block 16's weight 2^-15: ||c||_2 falls by
            # about 3.5e-10 relative, and no generator of the state touches
            # block 16
            lambda s: s["functional"]["inner"]["weights"].pop("16"),
            # the scale factor's numerator moves by 1: the constant moves by
            # about 2^-52
            lambda s: s["functional"].update(factor=ratio_moved(s["functional"]["factor"], 1)),
            lambda s: s["functional"].update(factor=ratio_moved(s["functional"]["factor"], -1)),
        ],
        ids=["lost_block_16_weight", "factor_numerator_up", "factor_numerator_down"],
    )
    def test_normalization_tolerance_lets_through(self, tmp_path, tamper):
        # the two classes of exit-0 mutant that pass ``_normalized``'s 1e-9
        # tolerance on the assumed constant, both kept: a lost weight lowers
        # ||c||_q, so the constant stays at most 1, and a moved numerator
        # moves it by about 2^-52, far inside the ladder's margins
        assert run_cli(["construct", "--case", "c", "--depth", "2", "--out", str(tmp_path / "base")]) == 0
        base = json.loads((tmp_path / "base" / "state.json").read_text())
        state = copy.deepcopy(base)
        tamper(state)
        assert state["functional"] != base["functional"]
        assert abs(functional_from_json(state["functional"]).assumed_constant - 1) < 2.0 ** -30
        (tmp_path / "state.json").write_text(json.dumps(state))
        assert run_cli(["verify", "--state", str(tmp_path / "state.json"), "--trials", "3", "--out", str(tmp_path)]) == 0


def ratio_moved(text, by):
    n, d = map(int, text.split("/"))
    return "%d/%d" % (n + by, d)


def test_one_parser_serves_every_command(tmp_path, capsys):
    # the parser is built once per process; a usage error between two
    # commands still prints its usage line and exits 64, and leaves the
    # parser as it was for the next command
    ys = ["oracle", "crosspolytope", "--ys", YS, "--out", str(tmp_path)]
    assert run_cli(ys) == 0
    first = capsys.readouterr()
    report = (tmp_path / "oracle-report.json").read_bytes()
    assert run_cli(["oracle", "crosspolytope", "--level", "x"]) == 64
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: twistlab oracle ")
    assert err[-1] == "error: argument --level: invalid int value: 'x'"
    assert run_cli(ys) == 0
    assert capsys.readouterr() == first
    assert (tmp_path / "oracle-report.json").read_bytes() == report
    assert cli.build_parser() is cli.build_parser()


def test_long_inline_json_is_not_a_path(capsys):
    # one path component past the file system's name limit
    x = json.dumps({str(i): "1" for i in range(1, 60)})
    assert run_cli(["eval", "ribe", "--x", x]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(-59 * math.log(59))


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "twistlab.cli", "eval", "ribe", "--x", '{"1": "1/1"}'],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0"


# --- the state writer ------------------------------------------------------------

json_strings = st.text(max_size=6) | st.sampled_from(["", '"', "\\", "\n\t", "\u00e9", "\u2028", "\ud800", "\U0001f600", "1/2", "-0/1"])
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(10**30), 10**30)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, 1e16, 5e-324, math.inf, -math.inf, math.nan])
    | json_strings
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(json_strings, max_size=5).map(tuple)
    | st.dictionaries(json_strings, inner, max_size=5)
    | st.dictionaries(st.integers(-20, 20), inner, max_size=5),
    max_leaves=30,
)


def indent_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def vector_dumps(obj):
    """``indent_dumps`` of a tree whose vectors stand for their ``to_json()``."""
    return json.dumps(obj, sort_keys=True, indent=2, default=lambda v: v.to_json()) + "\n"


# positions and blocks whose string order differs from their numeric order,
# numerators over a denominator that need not be the least one
positions = st.sampled_from([1, 2, 9, 10, 11, 99, 100, 101]) | st.integers(1, 300)
numerators = st.integers(-(10**12), 10**12).filter(bool)
denominators = st.sampled_from([1, 2, 4, 6, 10, 12]) | st.integers(1, 10**6)
raw_finseqs = st.builds(FinSeq._raw, st.dictionaries(positions, numerators, max_size=12), denominators)
# few numerators over few denominators, so that a write's table of entry
# texts is hit as well as missed: a (numerator, den) pair repeats across
# vectors, one rational comes over several dens (1/2 as 2/4 and 3/6), and
# negative and unreduced numerators occur
shared_ratio_finseqs = st.builds(
    FinSeq._raw, st.dictionaries(positions, st.sampled_from([-6, -3, -2, -1, 1, 2, 3, 4, 6]), max_size=8), st.sampled_from([1, 2, 4, 6])
)
raw_mixedseqs = st.builds(
    lambda entries, den: MixedSeq._raw({block_position(n, i): a for (n, i), a in entries.items()}, den),
    st.dictionaries(
        st.sampled_from([1, 2, 3, 9, 10, 11, 12, 100]).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
        numerators,
        max_size=8,
    ),
    denominators,
)
vector_trees = st.recursive(
    raw_finseqs | shared_ratio_finseqs | raw_mixedseqs | st.sampled_from([FinSeq(), MixedSeq(), FinSeq._raw({}, 3)]) | json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_strings, inner, max_size=4),
    max_leaves=12,
)


class TestDumpJson:
    @given(json_values)
    @settings(max_examples=600, deadline=None)
    def test_matches_json_dumps(self, obj):
        assert cli._dump_json(obj) == indent_dumps(obj)

    def test_other_keys_and_errors_match_json_dumps(self):
        for obj in ({1.5: 1, -2.0: [1]}, {math.inf: "x"}, {True: {}}, {None: []}, {"a": {}, "b": [[], {}]}, 3, "s", None, []):
            assert cli._dump_json(obj) == indent_dumps(obj)
        for bad in ({(1, 2): 1}, {1: 1, "a": 2}, {"a": object()}, [object()], object()):
            with pytest.raises(TypeError):
                indent_dumps(bad)
            with pytest.raises(TypeError):
                cli._dump_json(bad)

    def test_without_the_c_encoder(self, monkeypatch):
        obj = {"xs": [{"1": "1/2", "2": "-1/2"}], "ell": {"1": [1, 2]}, "f": [1.5, math.inf, None, True]}
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        assert cli._dump_json(obj) == indent_dumps(obj)

    @given(vector_trees)
    @settings(max_examples=400, deadline=None)
    def test_vectors_match_their_to_json(self, obj):
        assert cli._dump_json(obj) == vector_dumps(obj)

    def test_repeated_ratios_match_their_to_json(self):
        # (2, 4) and (-2, 4) repeat across vectors and levels; 1/2 also comes
        # as (1, 2) and (3, 6), -1/2 as (-1, 2) and (-3, 6); (2, 2) shares
        # its numerator with (2, 4)
        a, b = FinSeq._raw({1: 2, 2: -2, 10: 4}, 4), FinSeq._raw({9: 2, 3: -2}, 4)
        c, d = FinSeq._raw({11: 1, 2: -1}, 2), FinSeq._raw({5: 3, 100: -3}, 6)
        obj = {"G": {"1": [a, b, c, FinSeq._raw({7: 2, 8: -1}, 2)], "2": [d, b, a]}, "xs": [a, a]}
        assert cli._dump_json(obj) == vector_dumps(obj)

    def test_state_json_matches_json_dumps(self, state4):
        obj = state_to_json(state4)
        assert cli._dump_json(obj) == vector_dumps(obj)
