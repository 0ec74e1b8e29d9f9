"""Output checks for every benchmark op.

Each check returns ``(problems, observed)``: the list of reasons the op's
output is wrong (empty when it is right) and the values that
``record.py`` stores for the seed.  Two layers of checks apply:

* for every seed, the invariants: exit code 0, no violations, every stored
  witness re-evaluating to its reported value, and ``state.json`` equal,
  up to its ``meta.seed`` field, to the recorded state of its case and depth;
* for a recorded seed, additionally the recorded values: the sha256 of each
  ``state.json``, ``min_chain_margin``, each level's lemma5 best value, the
  oracle best values and the exact cross-polytope minima.

Importing this module needs ``twistlab`` on the path.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from twistlab.construction import final_bound_check, functional_of_state, state_from_json, verify_chain
from twistlab.oracles import replay_lemma5
from twistlab.quasilinear import Ribe, functional_from_json, quasi_defect
from twistlab.seqspace import vector_from_json
from twistlab.sumsets import SumCertificate
from twistlab.twisted import TwistedVec

REL_TOL = 1e-9
NORM_CAP = 3  # lemma5_adversary's norm cap
MISSING_STATE = "no recorded state.json for "


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dump_state(obj) -> bytes:
    """The CLI's JSON layout for state.json."""
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _rc_problems(rc) -> list[str]:
    return [] if rc == 0 else ["exit code %r" % (rc,)]


class Checker:
    def __init__(self, recorded: dict, seed: int):
        self.states = recorded["states"]
        self.expected = recorded["seeds"].get(str(seed), {})
        self._loaded: dict[Path, object] = {}

    def _state(self, path: Path):
        if path not in self._loaded:
            self._loaded[path] = state_from_json(json.loads(path.read_text()))
        return self._loaded[path]

    def construct(self, key: str, rc, out: Path, seed: int):
        problems = _rc_problems(rc)
        if problems:
            return problems, None
        _, case, depth = key.split(" @")[0].split()
        raw = (out / "state.json").read_bytes()
        obj = json.loads(raw)
        if dump_state(obj) != raw:
            problems.append("state.json is not in the CLI's canonical layout")
        if obj["meta"].get("seed") != seed:
            problems.append("state.json records seed %r, not %d" % (obj["meta"].get("seed"), seed))
        canonical = sha256(dump_state(dict(obj, meta=dict(obj["meta"], seed=0))))
        tag = case + depth
        if tag not in self.states:
            problems.append(MISSING_STATE + tag)
        elif canonical != self.states[tag]:
            problems.append("state.json (seed field zeroed) has sha256 %s, recorded %s" % (canonical, self.states.get(tag)))
        digest = sha256(raw)
        if key in self.expected and digest != self.expected[key]:
            problems.append("state.json sha256 %s, recorded %s" % (digest, self.expected[key]))
        rows = (out / "levels.csv").read_text().splitlines()
        if len(rows) != int(depth) + 1:
            problems.append("levels.csv has %d rows for depth %s" % (len(rows), depth))
        return problems, {"sha256": digest, "canonical": canonical}

    def verify(self, key: str, rc, out: Path, state_path: Path):
        problems = _rc_problems(rc)
        if problems:
            return problems, None
        report = json.loads((out / "verify-report.json").read_text())
        if report["violations"]:
            problems.append("violations: %s" % report["violations"][:3])
        margin = report["min_chain_margin"]
        if margin is None or not margin > 0:
            problems.append("min_chain_margin %r is not positive" % (margin,))
        state = self._state(state_path)
        F = functional_of_state(state)
        lemma5 = []
        for entry in report["entries"]:
            if entry["source"] == "level_mass":
                problems += self._lemma5_witness(state, entry)
                lemma5.append(entry["best_value"])
            elif entry["source"] == "chain_fuzzer" and margin is not None:
                replayed = _chain_witness_margin(state, F, entry["witness"])
                if not close(replayed, margin):
                    problems.append("chain witness replays to margin %r, reported %r" % (replayed, margin))
        if len(lemma5) != state.depth:
            problems.append("%d level_mass entries for depth %d" % (len(lemma5), state.depth))
        observed = {"min_chain_margin": margin, "lemma5": lemma5}
        want = self.expected.get(key)
        if want is not None:
            if margin is None or not close(margin, want["min_chain_margin"]):
                problems.append("min_chain_margin %r, recorded %r" % (margin, want["min_chain_margin"]))
            if len(lemma5) != len(want["lemma5"]) or not all(map(close, lemma5, want["lemma5"])):
                problems.append("lemma5 best values %r, recorded %r" % (lemma5, want["lemma5"]))
        return problems, observed

    @staticmethod
    def _lemma5_witness(state, entry) -> list[str]:
        n = entry["level"]
        mass, norm = replay_lemma5(state.level_z(n), entry["witness"], state.space)
        problems = []
        if not close(mass, entry["witness"]["mass"]):
            problems.append("level %d witness mass %r, stored %r" % (n, mass, entry["witness"]["mass"]))
        if not norm < NORM_CAP:
            problems.append("level %d witness norm %r reaches the cap" % (n, norm))
        best = entry["best_value"]
        if entry["method"] == "exact" and not close(mass, best):
            problems.append("level %d exact witness mass %r, reported %r" % (n, mass, best))
        if mass > best * (1 + REL_TOL):
            problems.append("level %d witness mass %r exceeds the reported maximum %r" % (n, mass, best))
        return problems

    def quasi(self, key: str, rc, out: Path, functional: dict | None):
        problems = _rc_problems(rc)
        if problems:
            return problems, None
        report = json.loads((out / "oracle-report.json").read_text())
        F = functional_from_json(functional) if functional else Ribe()
        witness = report["witness"]
        best = report["best_value"]
        defect = quasi_defect(F, vector_from_json(witness["x"]), vector_from_json(witness["y"]))
        if not close(defect, best):
            problems.append("witness pair has defect %r, reported %r" % (defect, best))
        if not best < report["bound"]:
            problems.append("best defect %r reaches the assumed constant %r" % (best, report["bound"]))
        if report["trials"] < 1:
            problems.append("no pairs evaluated")
        observed = {"best_value": best, "pairs": report["trials"]}
        want = self.expected.get(key)
        if want is not None and (not close(best, want["best_value"]) or report["trials"] != want["pairs"]):
            problems.append("best %r over %d pairs, recorded %r over %d" % (best, report["trials"], want["best_value"], want["pairs"]))
        return problems, observed

    def cross(self, key: str, rc, out: Path, family: list[dict]):
        problems = _rc_problems(rc)
        if problems:
            return problems, None
        report = json.loads((out / "oracle-report.json").read_text())
        if report["method"] != "exact":
            problems.append("method %r, expected exact" % report["method"])
        ys = [{int(i): Fraction(v) for i, v in y.items()} for y in family]
        alpha = [Fraction(a) for a in report["witness"]["minimizer"]]
        if len(alpha) != len(ys) or sum(abs(a) for a in alpha) != 1:
            problems.append("minimizer %s is not on the cross-polytope" % report["witness"]["minimizer"])
        combo: dict[int, Fraction] = {}
        for a, y in zip(alpha, ys):
            for i, v in y.items():
                combo[i] = combo.get(i, Fraction(0)) + a * v
        value = sum(abs(v) for v in combo.values())
        if float(value) != report["best_value"]:
            problems.append("minimizer re-evaluates to %s, reported %r" % (value, report["best_value"]))
        if value > min(sum(abs(v) for v in y.values()) for y in ys):
            problems.append("minimum %s exceeds the smallest vector norm" % value)
        observed = "%d/%d" % (value.numerator, value.denominator)
        want = self.expected.get(key)
        if want is not None and observed != want:
            problems.append("exact minimum %s, recorded %s" % (observed, want))
        return problems, observed


def _chain_witness_margin(state, F, witness: dict) -> float:
    """Smallest margin of the stored thinnest-margin witness, replayed."""
    cert = SumCertificate.from_json(witness["certificate"])
    if witness["kind"] == "final_bound":
        rep = final_bound_check(state, F, TwistedVec.from_json(witness["u"]), cert)
        return min((c.margin for c in rep.checks), default=float("inf"))
    return verify_chain(state, F, cert).min_margin
