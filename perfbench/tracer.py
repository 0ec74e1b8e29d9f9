"""Per-layer tracing for the traced benchmark run.

The tracer wraps the public functions of each ``twistlab`` module (plus the
few private ones a ratio needs) and the ``FinSeq``/``MixedSeq`` operators.
A function is wrapped by replacing every binding of that same object across
the globals of all loaded ``twistlab`` modules, because ``construction``,
``oracles``, ``cli`` and ``twisted`` import names with ``from .x import y``
and ``build_level`` and ``basis_constant`` import lazily; operators are
replaced on the class.  ``install`` fails if any binding of an original
survives.

Every wrapped call pushes a frame, so a layer's self time is its busy time
minus the busy time of the wrapped calls it made.  Calls outside the hot
kernels are also kept as spans (id, name, start, end, parent id) in memory.
Counts are made at the same boundaries.  Per-layer metrics are reported
per round; every round of a run repeats the same inputs, so counts are
exact integers that repeat between runs of the same code.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

OPS = ("add", "mul", "norm")
LEVELS = ("L1", "L2", "L3", "L4", "L5", "L6", "top")


def _metric_names() -> list[tuple[str, str]]:
    names = []

    def calls_busy(prefix, fns, extra=()):
        for fn in fns:
            names.append(("%s.%s.calls" % (prefix, fn), "count"))
            names.append(("%s.%s.busy_s" % (prefix, fn), "s"))
            for e in extra:
                names.append(("%s.%s.%s" % (prefix, fn, e), "s"))

    calls_busy("seqspace", ["%s.%s" % (cls, op) for cls in ("FinSeq", "MixedSeq") for op in OPS])
    names.append(("seqspace.entries_touched", "count"))
    calls_busy("quasilinear", ("evaluate", "rank", "quasi_defect"))
    calls_busy("sumsets", ("certificate_value", "random_certificate", "base_axioms_check"))
    for lv in LEVELS:
        names.append(("construction.build_level.%s.busy_s" % lv, "s"))
        names.append(("construction.build_level.%s.self_s" % lv, "s"))
    calls_busy(
        "construction",
        ("basis_constant", "verify_chain", "final_bound_check", "static_state_checks", "state_to_json", "state_from_json"),
    )
    for lv in LEVELS:
        names.append(("oracles.lemma5_adversary.%s.busy_s" % lv, "s"))
        names.append(("oracles.lemma5_adversary.%s.patterns" % lv, "count"))
    for method in ("exact", "bounded", "heuristic"):
        names.append(("oracles.lemma5_adversary.method.%s" % method, "count"))
    calls_busy(
        "oracles", ("chain_fuzzer", "_coordinate_ascent", "min_crosspolytope_norm", "quasi_constant_adversary"), ("self_s",)
    )
    names.append(("oracles.chain.replays", "count"))
    names.append(("oracles.chain.accept_ratio", "ratio"))
    names.append(("oracles.decomp.accept_ratio", "ratio"))
    calls_busy("exact_lp", ("solve_lp",))
    names.append(("exact_lp.pivots", "count"))
    calls_busy("twisted", ("quasi_norm",))
    names.append(("cli.write.busy_s", "s"))
    names.append(("cli.write.bytes", "bytes"))
    names.append(("trace.overhead", "ratio"))
    return names


# every per-layer metric of a traced run, with its unit, in report order
LAYER_METRICS = _metric_names()


def _entries(x) -> int:
    """Stored entries of a FinSeq, or of all blocks of a MixedSeq."""
    blocks = getattr(x, "_blocks", None)
    if blocks is None:
        return len(x)
    return sum(len(v) for v in blocks.values())


class Tracer:
    def __init__(self):
        self.active = False
        self.stats: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.counts: Counter = Counter()
        self.stack: list[list] = []  # frames: [start, child_s, name, span id]
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self._originals: list = []
        self._next_id = 0

    # --- wrappers -----------------------------------------------------------

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _call(self, fn, name, args, kwargs, span: bool):
        stack = self.stack
        parent_id = stack[-1][3] if stack else None
        if span:
            self._next_id += 1
            span_id = self._next_id
        else:
            span_id = parent_id
        frame = [perf_counter(), 0.0, name, span_id]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - frame[0]
            if stack:
                stack[-1][1] += dur
            st = self._stat(name)
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[1]
            if span:
                self.spans.append((span_id, name, frame[0], end, parent_id))

    def parent_name(self) -> str | None:
        return self.stack[-1][2] if self.stack else None

    def wrap(self, fn, name, *, span=True, level=None, entries=None, after=None):
        """Wrapper timing ``fn`` under ``name`` (``name.L<n>`` when ``level``
        maps the arguments to a level), optionally counting seqspace entries
        before the call and inspecting the result after it."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            key = name if level is None else "%s.L%d" % (name, level(args, kwargs))
            if entries is not None:
                tracer.counts["seqspace.entries_touched"] += entries(args)
            result = tracer._call(fn, key, args, kwargs, span)
            if after is not None:
                after(key, args, result)
            return result

        self._originals.append(fn)
        return wrapper

    def count_calls(self, fn, counter: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[counter] += 1
            return fn(*args, **kwargs)

        self._originals.append(fn)
        return wrapper

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and operator in every loaded twistlab
        module; raise if an original is still bound anywhere."""
        import twistlab.cli  # noqa: F401  (loads every twistlab module)
        from twistlab import cli, construction, exact_lp, oracles, quasilinear, seqspace, sumsets, twisted

        counts = self.counts

        def in_chain(counter):
            def after(key, args, result):
                if self.parent_name() == "oracles.chain_fuzzer":
                    counts[counter] += 1

            return after

        def lemma5_done(key, args, report):
            counts[key + ".patterns"] += report.trials
            counts["oracles.lemma5_adversary.method." + report.method] += 1

        def decomp_done(key, args, result):
            counts["oracles.decomp.drawn"] += 1
            counts["oracles.decomp.accepted"] += result is not None

        def written(key, args, result):
            counts["cli.write.bytes"] += len(args[1])

        plan = [
            (construction, "build_level", dict(level=lambda a, k: a[2] if len(a) > 2 else k["n"])),
            (construction, "basis_constant", {}),
            (construction, "verify_chain", dict(after=in_chain("oracles.chain.replays"))),
            (construction, "final_bound_check", {}),
            (construction, "static_state_checks", {}),
            (construction, "state_to_json", {}),
            (construction, "state_from_json", {}),
            (oracles, "lemma5_adversary", dict(level=lambda a, k: a[1].bit_length() - 1, after=lemma5_done)),
            (oracles, "chain_fuzzer", {}),
            (oracles, "_coordinate_ascent", {}),
            (oracles, "min_crosspolytope_norm", {}),
            (oracles, "quasi_constant_adversary", {}),
            (oracles, "_random_admissible_decomposition", dict(after=decomp_done)),
            (sumsets, "certificate_value", dict(span=False)),
            (sumsets, "random_certificate", dict(after=in_chain("oracles.chain.drawn"))),
            (sumsets, "base_axioms_check", {}),
            (quasilinear, "evaluate", dict(span=False)),
            (quasilinear, "rank", {}),
            (quasilinear, "quasi_defect", dict(span=False)),
            (exact_lp, "solve_lp", {}),
            (twisted, "quasi_norm", dict(span=False)),
            (cli, "_write_atomic", dict(after=written)),
        ]
        modules = [m for n, m in sorted(sys.modules.items()) if n == "twistlab" or n.startswith("twistlab.")]
        names = {
            "lemma5_adversary": "oracles.lemma5_adversary",
            "build_level": "construction.build_level",
            "_random_admissible_decomposition": "oracles.decomp",
            "_write_atomic": "cli.write",
        }
        for module, attr, opts in plan:
            fn = getattr(module, attr)
            name = names.get(attr, "%s.%s" % (module.__name__.rsplit(".", 1)[1], attr))
            self._rebind(modules, fn, self.wrap(fn, name, **opts))
        pivot = exact_lp._pivot
        self._rebind(modules, pivot, self.count_calls(pivot, "exact_lp.pivots"))

        pair = lambda a: _entries(a[0]) + _entries(a[1])  # noqa: E731
        one = lambda a: _entries(a[0])  # noqa: E731
        for cls in (seqspace.FinSeq, seqspace.MixedSeq):
            ops = [("add", cls.__add__, pair), ("mul", cls.__mul__, one)]
            if cls is seqspace.FinSeq:
                ops.append(("norm", cls.norm, one))
            for op, fn, entries in ops:
                wrapper = self.wrap(fn, "seqspace.%s.%s" % (cls.__name__, op), span=False, entries=entries)
                for attr, value in list(vars(cls).items()):
                    if value is fn:
                        setattr(cls, attr, wrapper)
        norm_mixed = seqspace.norm_mixed
        self._rebind(modules, norm_mixed, self.wrap(norm_mixed, "seqspace.MixedSeq.norm", span=False, entries=one))
        self._check_bindings(modules, (seqspace.FinSeq, seqspace.MixedSeq))

    @staticmethod
    def _rebind(modules, fn, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)

    def _check_bindings(self, modules, classes) -> None:
        originals = {id(fn) for fn in self._originals}
        stale = [
            "%s.%s" % (getattr(owner, "__name__", owner), attr)
            for owner in (*modules, *classes)
            for attr, value in vars(owner).items()
            if id(value) in originals
        ]
        if stale:
            raise RuntimeError("unwrapped originals still bound: %s" % ", ".join(stale))

    # --- report -----------------------------------------------------------------

    def metrics(self, rounds: int, overhead: float) -> dict[str, float]:
        """Every metric of LAYER_METRICS, per traced round."""

        def per_round(total):
            return total // rounds if isinstance(total, int) and total % rounds == 0 else total / rounds

        deepest = {}
        for key in self.stats:
            prefix, _, level = key.rpartition(".L")
            if level.isdigit():
                deepest[prefix] = max(deepest.get(prefix, 0), int(level))
        fields = {"calls": 0, "busy_s": 1, "self_s": 2}
        counts = self.counts
        out = {}
        for name, _ in LAYER_METRICS:
            head, _, field = name.rpartition(".")
            prefix, _, level = head.rpartition(".")
            if level == "top":
                head = "%s.L%d" % (prefix, deepest.get(prefix, 0))
            if name == "trace.overhead":
                out[name] = overhead
            elif field == "accept_ratio":
                drawn = counts[head + ".drawn"]
                accepted = counts["oracles.chain.replays" if head == "oracles.chain" else head + ".accepted"]
                out[name] = accepted / max(1, drawn)
            elif field in fields:
                out[name] = per_round(self.stats.get(head, [0, 0.0, 0.0])[fields[field]])
            else:
                out[name] = per_round(counts["%s.%s" % (head, field)])
        return out
