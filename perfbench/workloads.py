"""Workload table and seeded input generation for the twistlab benchmark.

A workload is one *round* of the paper's pipeline, repeated in a closed loop:
``construct`` a state, ``verify`` a stored state, attack the additivity
constant of the Ribe and the weighted Ribe functionals with
``oracle quasi-constant``, and minimize over the cross-polytope of a few
overlapping families with ``oracle crosspolytope``.  Every round runs every
entry point, so every end-to-end metric exists on every workload; the sizes
decide which layers dominate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# criterion 3's functional: weights 2^(1-n) on blocks 1..64, p = 2
WEIGHTED_RIBE = {
    "kind": "weighted_ribe",
    "weights": {str(n): "1/%d" % 2 ** (n - 1) for n in range(1, 65)},
    "p": "2/1",
}

@dataclass(frozen=True)
class Workload:
    construct: tuple[str, int, int]  # case, depth, ops per round
    verify: tuple[str, int, int, int]  # case, depth of the state built in set-up, trials, ops per round
    ribe: tuple[int, int]  # trials, ops per round
    weighted: tuple[int, int]  # trials, ops per round
    cross: tuple[int, int]  # vectors per family (2^(size-1) orthant LPs), families per round

    def ops(self, round_index: int) -> list[tuple[str, str]]:
        """(phase, key) of every op of one round.  The key names the op's
        inputs apart from the workload seed and ends in ``@<i>``, where ``i``
        counts the phase's ops across rounds: the op runs with ``--seed
        op_seed(phase, seed, i)`` (a cross-polytope op on family ``i``), so a
        run samples several oracle paths and families.  Phases alternate
        within a round, so each phase's ops spread over the round.  Recorded
        outputs are keyed by the key."""
        case, depth, n_construct = self.construct
        vcase, vdepth, trials, n_verify = self.verify
        specs = [  # construct and verify apart, so the short ops fall between them
            ("construct", "construct %s %d" % (case, depth), n_construct),
            ("ribe", "quasi ribe %d" % self.ribe[0], self.ribe[1]),
            ("weighted", "quasi weighted %d" % self.weighted[0], self.weighted[1]),
            ("cross", "cross %d" % self.cross[0], self.cross[1]),
            ("verify", "verify %s %d %d" % (vcase, vdepth, trials), n_verify),
        ]
        most = max(reps for _, _, reps in specs)
        return [
            (phase, "%s @%d" % (spec, round_index * reps + rep))
            for rep in range(most)
            for phase, spec, reps in specs
            if rep < reps
        ]

    def setup_key(self) -> str:
        return "construct %s %d @0" % self.verify[:2]


WORKLOADS = {
    "case-a": Workload(("a", 9, 1), ("a", 8, 100, 1), (600, 3), (400, 3), (6, 3)),
    "case-c": Workload(("c", 6, 2), ("c", 6, 20, 1), (600, 3), (400, 3), (6, 3)),
}


def op_seed(phase: str, seed: int, index: int) -> int:
    """The --seed of a phase's op number ``index`` in a run.

    ``verify``'s fuzzer seed is always 0: its work depends on the fuzzer's
    path (``verify --trials 20`` on the case-c depth-6 state takes from
    2.9 s to 9.4 s over the first ten seeds, the coordinate ascent's length
    varying most), a spread no run length here averages out.  The state it
    verifies still records the workload seed.  Every other op's seed follows
    the workload seed."""
    return 0 if phase == "verify" else seed + 7919 * index


def _dyadic(rng: random.Random) -> str:
    v = Fraction(rng.choice((-1, 1)) * rng.randint(1, 8), 1 << rng.randint(0, 3))
    return "%d/%d" % (v.numerator, v.denominator)


def cross_family(seed: int, size: int, index: int) -> list[dict[str, str]]:
    """``size`` sparse vectors, each with a private coordinate (so the family
    is independent and the minimum is positive) and two of three shared
    coordinates (so any two vectors overlap), with dyadic entries."""
    rng = random.Random("cross:%d:%d:%d" % (seed, size, index))
    family = []
    for j in range(1, size + 1):
        entries = {j: _dyadic(rng)}
        for c in rng.sample(range(size + 1, size + 4), 2):
            entries[c] = _dyadic(rng)
        family.append({str(i): v for i, v in sorted(entries.items())})
    return family
