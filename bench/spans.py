"""Spans around the public functions of each library module.

Tracing is done from outside: :meth:`Tracer.install` replaces each traced
function, in every ``borelstab`` module namespace that holds it, with a
wrapper that records a span ``[op, id, parent, name, start_ns, end_ns]``.
Nothing under ``src/`` changes.  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct
children; calls are nested and single-threaded, so children never overlap.
Work counts are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter_ns

# Module -> traced public functions: those the per-layer metrics name, and
# ``ideal_power`` so that power building is not counted as its caller's
# self time.  Hot helpers such as ``divides`` are left out on purpose:
# wrapping them would cost more than they do.
TRACED = {
    "monomials": ("minimalize", "saturate", "colon", "ideal_power"),
    "borel": ("power_generators", "borel_closure", "expand_squarefree"),
    "quotients": ("quotient_profile", "depth_zero_witness"),
    "localization": ("localize_closed_form", "localize_by_saturation"),
    "stability": ("stable_set_enumerate", "lambda_of_prime"),
    "assprimes": (
        "irreducible_decomposition",
        "associated_primes",
        "m_in_ass",
        "ass_profile",
        "persistence_scan",
        "cross_validate",
    ),
    "jsonio": ("emit",),
    "cli": ("run",),
}


def box_cells(J) -> int:
    """Cells of the exponent box the oracle sweeps: prod(b_i + 1)."""
    cells = 1
    for column in zip(*J.generator_vectors()):
        cells *= max(column) + 1
    return cells


def _count_power(counts, args, result):
    counts["borel.generators"] += len(result.generators)


def _count_decomposition(counts, args, result):
    counts["assprimes.box_cells"] += box_cells(args[0])
    counts["assprimes.components"] += len(result)


def _count_primes(counts, args, result):
    counts["assprimes.primes"] += len(result)


def _count_subsets(counts, args, result):
    counts["stability.subsets"] += 2 ** len(args[0].ground)


def _count_bytes(counts, args, result):
    counts["jsonio.bytes"] += len(result.encode())


COUNTERS = {
    "borel.power_generators": _count_power,
    "assprimes.irreducible_decomposition": _count_decomposition,
    "assprimes.associated_primes": _count_primes,
    "stability.stable_set_enumerate": _count_subsets,
    "jsonio.emit": _count_bytes,
}


class Tracer:
    """Records spans and work counts while active (between begin and end)."""

    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._patches: list[tuple] = []

    def begin(self, op: int) -> None:
        self.op = op
        self.active = True

    def end(self) -> None:
        self.active = False
        self.stack.clear()

    def take(self) -> tuple[list, dict]:
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(int)
        return spans, counts

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        materialize = name == "monomials.minimalize"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span = [tracer.op, len(tracer.spans), stack[-1] if stack else -1, name, perf_counter_ns(), 0]
            tracer.spans.append(span)
            stack.append(span[1])
            try:
                if materialize:  # minimalize takes any iterable; count what it gets
                    gens = list(args[0])
                    tracer.counts["monomials.generators_in"] += len(gens)
                    args = (gens, *args[1:])
                result = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter_ns()
                stack.pop()
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a borelstab module binds it."""
        wrappers = {}
        for module, names in TRACED.items():
            mod = importlib.import_module(f"borelstab.{module}")
            for fname in names:
                fn = getattr(mod, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{module}.{fname}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "borelstab" and not modname.startswith("borelstab."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()


def span_table(spans) -> dict[str, list[int]]:
    """name -> [calls, inclusive ns, self ns, child ns] over ``spans``.

    Span ids are unique per op, so parents are looked up by ``(op, id)``.
    """
    child_ns: dict[tuple, int] = defaultdict(int)
    for op, sid, parent, name, t0, t1 in spans:
        if parent >= 0:
            child_ns[(op, parent)] += t1 - t0
    table: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
    for op, sid, parent, name, t0, t1 in spans:
        row = table[name]
        children = child_ns.get((op, sid), 0)
        row[0] += 1
        row[1] += t1 - t0
        row[2] += t1 - t0 - children
        row[3] += children
    return table


def calls_beneath(spans, name: str, ancestor: str) -> int:
    """Spans called ``name`` that have an ancestor span called ``ancestor``."""
    by_id = {(s[0], s[1]): s for s in spans}
    found = 0
    for span in spans:
        if span[3] != name:
            continue
        parent = by_id.get((span[0], span[2]))
        while parent is not None:
            if parent[3] == ancestor:
                found += 1
                break
            parent = by_id.get((parent[0], parent[2]))
    return found
