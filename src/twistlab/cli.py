"""Command-line front end.

Subcommands: ``construct`` (build and certify a state), ``verify`` (replay
every stored invariant plus randomized ladder attacks), ``eval`` (one-off
functional and norm evaluations), ``oracle`` (run a single adversary).

Exit codes are a stable contract: 0 success, 2 construction failure,
3 verification violation, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from .construction import (
    MAX_DEPTH,
    MAX_DEPTH_C,
    ConstructionError,
    check_width,
    fn_family,
    functional_of_state,
    levels_csv_rows,
    make_case_a_inputs,
    make_case_c_inputs,
    run_construction,
    state_from_json,
    state_shape_problem,
    state_to_json,
    static_state_checks,
    verify_chain,
)
from .oracles import (
    OracleReport,
    chain_fuzzer,
    lemma5_adversary,
    min_crosspolytope_norm,
    quasi_constant_adversary,
)
from .quasilinear import (
    Ribe,
    UserLinear,
    WeightedRibe,
    functional_from_json,
    normalize_constant,
    nonsplit_witness,
    ribe_eval,
    weighted_ribe_eval,
)
from .seqspace import FinSeq, MixedSeq, MixedSpace, SeqSpace, james_norm, vector_from_json
from .sumsets import SumCertificate, base_axioms_check
from .twisted import TwistedVec, ball_radius, quasi_norm

EXIT_OK = 0
EXIT_CONSTRUCTION = 2
EXIT_VIOLATION = 3
EXIT_USAGE = 64

# the most coordinates, and the most vectors, ``oracle crosspolytope --ys``
# takes on: the orthant LPs grow about as d^2.5 in the union support d, and
# 8 dense vectors took 3.0 s on 32 coordinates, 12 s on 48 and 32 s on 64
# (2-core Xeon); past 8 vectors the left inverse grows about as the square of
# their count k (7.6 s for k = 400), and k > d vectors are dependent anyway
MAX_YS_SUPPORT = 32

# what malformed input raises on its way into the library: a file that cannot
# be read as OSError, wrong JSON shapes as lookups or method calls on the
# wrong type, a "n/0" rational as ZeroDivisionError, a number past the float
# range (a weight of 1e400) as OverflowError
INPUT_ERRORS = (OSError, ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError, OverflowError)

# what a float step raises on values past its range: an overflowing quotient
# or power, a division by a quotient that underflowed to 0
NUMERIC_ERRORS = (OverflowError, ZeroDivisionError)


class Parser(argparse.ArgumentParser):
    """argparse flavoured to exit with the usage code instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        sys.exit(EXIT_USAGE)


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


_NESTED = (dict, list, tuple)
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _dump_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` and a newline.  One
    table of l1 entry texts serves the whole write (see ``_vector_text``)."""
    return _json_text(obj, "\n", {}) + "\n"


def _json_text(obj, pad: str, ratios: dict) -> str:
    """The text ``json.dumps(obj, sort_keys=True, indent=2)`` gives a value
    nested behind ``pad`` (a newline and its indent), a vector standing for
    its ``to_json()``.  A dict or list of scalars takes one ``json.dumps``
    with item separator ``sep``, which json's C encoder runs; with ``indent``
    the Python encoder would run, making a chunk per token."""
    if isinstance(obj, FinSeq):
        return _vector_text(obj, pad, ratios)
    if not (isinstance(obj, _NESTED) and obj):
        return json.dumps(obj)
    inner = pad + "  "
    sep = "," + inner
    if _SCALARS.issuperset(map(type, obj.values() if isinstance(obj, dict) else obj)):
        text = json.dumps(obj, sort_keys=True, separators=(sep, ": "))
        return text[0] + inner + text[1:-1] + pad + text[-1]
    if isinstance(obj, dict):  # json.dumps of {key: 0} holds a key's text
        items = [(json.dumps({k: 0})[1:-4], v) for k, v in sorted(obj.items())]
        return "{%s%s%s}" % (inner, sep.join([k + ": " + _json_text(v, inner, ratios) for k, v in items]), pad)
    return "[%s%s%s]" % (inner, sep.join([_json_text(v, inner, ratios) for v in obj]), pad)


def _vector_text(v: FinSeq, pad: str, ratios: dict) -> str:
    """``_json_text(v.to_json(), pad)`` from v's numerators, joined with no
    quoting pass.  An l1 entry's text after its key, ``": "a/b"``, comes
    from ``ratios`` by (numerator, den), so one gcd and one format serve
    every entry of a write holding that ratio: a case-a state's vectors
    share a few.  A block row's quotes go into its separator, which keeps
    its mostly "0/1" entries shared."""
    if not v.nums:
        return "{}"
    inner = pad + "  "
    if isinstance(v, MixedSeq):
        inner2 = inner + "  "
        quoted = '",' + inner2 + '"'
        items = ['"%s": [%s"%s"%s]' % (n, inner2, quoted.join(row), inner) for n, row in sorted(v.to_json().items())]
    else:  # a key's closing quote sorts before any digit, so the entries sort as their keys
        den, items = v.den, []
        for i, n in v.nums.items():
            text = ratios.get((n, den))
            if text is None:
                g = math.gcd(n, den)
                text = ratios[n, den] = '": "%d/%d"' % (n // g, den // g)
            items.append('"' + str(i) + text)
        items.sort()
    return "{" + inner + ("," + inner).join(items) + pad + "}"


def _load_json_arg(value: str):
    """Accept inline JSON or a path to a JSON file."""
    p = Path(value)
    try:
        is_file = p.is_file()
    except OSError:  # e.g. a name too long for the file system: inline JSON
        is_file = False
    return json.loads(p.read_text() if is_file else value)


def _vectors_arg(value: str, space=None) -> list:
    """A JSON list of vectors (inline or a path), read in ``space`` when
    given; without one they must share a shape, l1 entries or block rows,
    or the family would be read in the space of its first vector."""
    vs = _load_json_arg(value)
    if not isinstance(vs, list):
        raise ValueError("expected a JSON list of vectors")
    vs = [vector_from_json(v, space) for v in vs]
    if len({type(v) for v in vs if v}) > 1:
        raise ValueError("the vectors mix the l1 and the block JSON shapes")
    return vs


def _usage_fail(message: str) -> int:
    sys.stderr.write("error: %s\n" % message)
    return EXIT_USAGE


# --- construct -----------------------------------------------------------------


def cmd_construct(args) -> int:
    if not 1 <= args.depth <= MAX_DEPTH:
        return _usage_fail("--depth must be between 1 and %d" % MAX_DEPTH)
    if args.case == "c" and args.depth > MAX_DEPTH_C:
        return _usage_fail("--depth must be between 1 and %d for case c" % MAX_DEPTH_C)
    supply = 2 ** (args.depth + 2)  # the kernel vectors the case inputs build
    if not 1 <= args.generators <= supply:
        return _usage_fail("--generators must be between 1 and %d" % supply)
    out = Path(args.out)
    # the flags a run is keyed on, embedded in state.json so a fixed seed
    # reproduces byte-identical artifacts
    meta = {"case": args.case, "depth": args.depth, "generators": args.generators, "seed": args.seed}
    split_map = None
    if args.case == "a":
        F = normalize_constant(Ribe())
        xs, ds = make_case_a_inputs(args.depth, args.generators)
    elif args.case == "c":
        xs, ds, weights = make_case_c_inputs(args.depth, args.generators)
        F = normalize_constant(WeightedRibe(weights, Fraction(2)))
    elif args.case == "b":
        return _usage_fail(
            "the split basis for this space is known to exist but no finite recipe is available; "
            "supply one explicitly via --case custom with --functional/--xs/--ds/--split-map"
        )
    else:
        if not (args.functional and args.xs and args.ds):
            return _usage_fail("--case custom needs --functional, --xs and --ds")
        try:
            F = normalize_constant(functional_from_json(_load_json_arg(args.functional)))
            # stored as given, so each must pass state_from_json's width check
            xs = [check_width(v) for v in _vectors_arg(args.xs, F.space)]
            ds = _vectors_arg(args.ds, F.space)
            if args.split_map:
                # a "defect_bound" key, written by older versions, is ignored
                sm = _load_json_arg(args.split_map)
                split_map = UserLinear([vector_from_json(v, F.space) for v in sm["basis"]], [Fraction(v) for v in sm["values"]])
        except INPUT_ERRORS as exc:
            return _usage_fail("cannot parse custom inputs: %s" % exc)
    try:
        state = run_construction(F, xs, ds, args.depth, split_map=split_map, meta=meta)
        if args.case == "custom":  # and so must the normalized generators and G
            for v in (*state.d_generators, *(g for gens in state.G.values() for g in gens)):
                check_width(v)
    except (ConstructionError, ValueError) as exc:
        sys.stderr.write("construction failed: %s\n" % exc)
        return EXIT_CONSTRUCTION
    _write_atomic(out / "state.json", _dump_json(state_to_json(state)))
    rows = levels_csv_rows(state)
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    _write_atomic(out / "levels.csv", buf.getvalue())
    for row in rows:
        print("  ".join(str(v) for v in row))
    print("state written to %s" % (out / "state.json"))
    return EXIT_OK


# --- verify --------------------------------------------------------------------


def _load_state(path):
    """The parsed state and its functional; exits 64 when either does not
    parse and 3 when an index in the state points outside its own tables."""
    try:
        state = state_from_json(json.loads(Path(path).read_text()))
        F = functional_of_state(state)
    except INPUT_ERRORS as exc:
        raise SystemExit(_usage_fail("cannot load state %s: %s" % (path, exc)))
    problem = state_shape_problem(state, F)
    if problem:
        print("VIOLATION static:state_shape %s" % problem)
        raise SystemExit(EXIT_VIOLATION)
    return state, F


def cmd_verify(args) -> int:
    if args.trials < 0 or not math.isfinite(args.tolerance):
        return _usage_fail("--trials must not be negative" if args.trials < 0 else "--tolerance must be a finite number")
    state, F = _load_state(args.state)
    out = Path(args.out) if args.out else Path(args.state).parent
    entries = []
    violations = []

    for step in static_state_checks(state, F):
        entries.append({"source": "static", **step.to_json()})
        if not step.passed:
            violations.append("static:%s level %s" % (step.name, step.level))

    radii = [ball_radius(n) for n in range(1, state.depth + 2)]
    axioms = base_axioms_check(radii, fn_family(state), state.depth + 1)
    for chk in axioms.checks:
        entries.append({"source": "base_axioms", **vars(chk)})
        if not chk.passed:
            violations.append("base_axioms:%s level %s" % (chk.name, chk.level))

    for n in range(1, state.depth + 1):
        rep = lemma5_adversary(state.level_z(n), 2 ** n, state.c[n], space=state.space, seed=args.seed)
        entries.append({"source": "level_mass", "level": n, **rep.to_json()})
        if rep.best_value is None:  # the search was refused; the notes say why
            violations.append("level_mass: level %d %s" % (n, rep.notes))
        elif rep.best_violation is None or rep.best_violation >= 0:
            violations.append("level_mass: level %d mass %s vs budget %s" % (n, rep.best_value, rep.bound))

    min_margin = None
    if args.trials > 0:
        fuzz = chain_fuzzer(state, F, trials=args.trials, seed=args.seed)
        entries.append({"source": "chain_fuzzer", **fuzz.to_json()})
        if fuzz.best_violation is not None and fuzz.best_violation >= 0:
            violations.append("chain: %s" % fuzz.notes)
        min_margin = -fuzz.best_violation if fuzz.best_violation is not None else None
        if min_margin is not None and min_margin < args.tolerance:
            violations.append("chain: min margin %g below tolerance %g" % (min_margin, args.tolerance))
        witness = fuzz.witness or {}
        if witness.get("kind", "").startswith("chain"):
            # full transcript of the thinnest-margin replay, for inspection
            transcript = verify_chain(state, F, SumCertificate.from_json(witness["certificate"]))
            _write_atomic(out / "transcript.json", _dump_json(transcript.to_json()))

    report = {
        "state": str(args.state),
        "trials": args.trials,
        "seed": args.seed,
        "tolerance": args.tolerance,
        "violations": violations,
        "min_chain_margin": min_margin,
        "entries": entries,
    }
    _write_atomic(out / "verify-report.json", _dump_json(report))
    if min_margin is not None:
        print("min ladder margin over %d trials: %g" % (args.trials, min_margin))
    if violations:
        for v in violations:
            print("VIOLATION %s" % v)
        print("report: %s" % (out / "verify-report.json"))
        return EXIT_VIOLATION
    print("all checks passed; report: %s" % (out / "verify-report.json"))
    return EXIT_OK


# --- eval ----------------------------------------------------------------------


def cmd_eval(args) -> int:
    if not math.isfinite(args.r):
        return _usage_fail("--r must be a finite number")
    try:
        if args.what == "ribe":
            value = ribe_eval(vector_from_json(_load_json_arg(args.x), SeqSpace()))
        elif args.what == "james-norm":
            value = james_norm(vector_from_json(_load_json_arg(args.x), SeqSpace()))
        elif args.what == "quasi-norm":
            F = functional_from_json(_load_json_arg(args.functional)) if args.functional else Ribe()
            value = quasi_norm(F, TwistedVec(float(args.r), vector_from_json(_load_json_arg(args.x), F.space)))
        elif args.what == "weighted-ribe":
            weights = {int(n): Fraction(c) for n, c in _load_json_arg(args.weights).items()}
            value = weighted_ribe_eval(vector_from_json(_load_json_arg(args.x), MixedSpace(2)), weights)  # block rows; p takes no part
        else:  # nonsplit
            vec, value = nonsplit_witness(args.n, Fraction(args.cn))
    except INPUT_ERRORS as exc:
        return _usage_fail("cannot evaluate: %s" % exc)
    print("%.15g" % value)
    return EXIT_OK


# --- oracle --------------------------------------------------------------------


def cmd_oracle(args) -> int:
    out = Path(args.out) if args.out else Path(".")
    if not (0 <= args.trials < math.inf and 0 <= args.budget < math.inf):
        return _usage_fail("--trials and --budget must be finite numbers, not negative")
    if args.target == "quasi-constant":
        try:
            F = functional_from_json(_load_json_arg(args.functional)) if args.functional else Ribe()
        except INPUT_ERRORS as exc:
            return _usage_fail("cannot parse functional: %s" % exc)
        rep = quasi_constant_adversary(F, trials=int(args.trials), seed=args.seed)
    elif args.target == "lemma5":
        if not args.state:
            return _usage_fail("oracle lemma5 needs --state")
        state, _ = _load_state(args.state)
        n = args.level
        if not 1 <= n <= state.depth:
            return _usage_fail("--level out of range")
        rep = lemma5_adversary(state.level_z(n), 2 ** n, state.c[n], space=state.space, seed=args.seed)
    elif args.target == "chain":
        if not args.state:
            return _usage_fail("oracle chain needs --state")
        state, F = _load_state(args.state)
        rep = chain_fuzzer(state, F, trials=int(args.budget), seed=args.seed)
    else:  # crosspolytope
        if not args.ys:
            return _usage_fail("oracle crosspolytope needs --ys")
        try:
            ys = _vectors_arg(args.ys)
            if len(ys) > MAX_YS_SUPPORT:
                raise ValueError("%d vectors, more than %d" % (len(ys), MAX_YS_SUPPORT))
            d = len(set().union(*(y.support for y in ys)))
            if d > MAX_YS_SUPPORT:
                raise ValueError("the vectors span %d coordinates, more than %d" % (d, MAX_YS_SUPPORT))
            res = min_crosspolytope_norm(ys)
        except INPUT_ERRORS as exc:
            return _usage_fail("cannot use --ys: %s" % exc)
        rep = OracleReport(
            "crosspolytope",
            None,
            float(res.value),
            None,
            {"minimizer": [str(a) for a in res.minimizer]},
            1,
            args.seed,
            res.method,
            "minimum of the combined norm over unit coefficient mass",
        )
        _write_atomic(out / "oracle-report.json", _dump_json(rep.to_json()))
        print("min %.15g (%s)" % (float(res.value), res.method))
        return EXIT_OK
    _write_atomic(out / "oracle-report.json", _dump_json(rep.to_json()))
    found = rep.notes if rep.best_value is None else "best value %s against bound %s" % (rep.best_value, rep.bound)
    print("%s: %s (violation %s, %s)" % (rep.target, found, rep.best_violation, rep.method))
    return EXIT_OK if (rep.best_violation is None or rep.best_violation < 0) else EXIT_VIOLATION


# --- wiring ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_parser() -> Parser:
    """Built once per process: argparse asks for the terminal size at every
    ``add_argument``, and ``parse_args`` leaves the parser as it was."""
    parser = Parser(prog="twistlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=Parser)

    c = sub.add_parser("construct", help="build and certify a construction state")
    c.add_argument("--case", choices=["a", "b", "c", "custom"], default="a")
    c.add_argument("--depth", type=int, required=True)
    c.add_argument("--generators", type=int, default=3)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", default="out")
    c.add_argument("--functional", help="functional descriptor (JSON or path), custom case")
    c.add_argument("--xs", help="kernel sequence (JSON list or path), custom case")
    c.add_argument("--ds", help="generating family (JSON list or path), custom case")
    c.add_argument("--split-map", dest="split_map", help="splitting map (JSON or path), custom case")
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="replay all invariants of a stored state")
    v.add_argument("--state", required=True)
    v.add_argument("--trials", type=int, default=100)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out")
    v.add_argument("--tolerance", type=float, default=1e-9, help="least ladder margin the fuzzer may find; a smaller one is a violation (exit 3)")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("eval", help="evaluate a formula once and print 15 significant digits")
    e.add_argument("what", choices=["ribe", "quasi-norm", "james-norm", "weighted-ribe", "nonsplit"])
    e.add_argument("--x", help="vector JSON or path")
    e.add_argument("--r", type=float, default=0.0)
    e.add_argument("--functional")
    e.add_argument("--weights")
    e.add_argument("--n", type=int, default=1)
    e.add_argument("--cn", default="1")
    e.set_defaults(func=cmd_eval)

    o = sub.add_parser("oracle", help="run one adversary and write oracle-report.json")
    o.add_argument("target", choices=["quasi-constant", "lemma5", "chain", "crosspolytope"])
    o.add_argument("--state")
    o.add_argument("--level", type=int, default=1)
    o.add_argument("--trials", type=float, default=1000)
    o.add_argument("--budget", type=float, default=100)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--functional")
    o.add_argument("--ys")
    o.add_argument("--out")
    o.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    """Run one command.  A float step out of range fails closed: a loaded
    state holds values no construction writes (exit 3), any other input is
    malformed (exit 64), and neither prints a traceback."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NUMERIC_ERRORS as exc:
        if getattr(args, "state", None):
            print("VIOLATION numeric: %s" % exc)
            return EXIT_VIOLATION
        return _usage_fail("a value is out of the float range: %s" % exc)


if __name__ == "__main__":
    sys.exit(main())
