"""Seeded case lists for the three workloads, and the benchmark's own
enumerations that the checkers use.

A case is one op: one public library call (``powers``, ``oracle``) or one
CLI invocation (``cli``).  The seed picks the inputs inside fixed rungs,
and only within a cost class, so that two seeds send the program
different monomials but about the same amount of work.  That keeps the
seed-to-seed spread of the timings small enough to compare commits.

Nothing here imports the library: the case list is plain data.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# Frontier rungs finish far beyond any sensible run length at the seed
# commit, so each op on them is stopped at this cap and recorded as a
# timeout with the work it reached.  Every other op runs under OP_CAP_S,
# which no op of the seed commit comes near; it only turns a hang into a
# recorded failure.
FRONTIER_CAP_S = 5.0
OP_CAP_S = 30.0

WORKLOADS = ("powers", "oracle", "cli")


@dataclass(frozen=True)
class Case:
    """One op.

    ``op`` names the library function (or ``"cli"``); ``u`` is the support
    of the squarefree generator; ``k`` is the power (``kmax`` for the
    oracle).  A frontier case belongs to the ladder ``ladder``: the steps
    run in order of ``k`` and stop after the first timeout.  ``argv`` and
    ``exit`` describe a CLI request and its expected exit status.
    """

    op: str
    n: int
    u: tuple[int, ...] = ()
    k: int = 0
    ladder: str = ""
    argv: tuple[str, ...] = ()
    exit: int = 0

    @property
    def cap_s(self) -> float:
        return FRONTIER_CAP_S if self.ladder else OP_CAP_S

    @property
    def label(self) -> str:
        if self.op == "cli":
            return "cli " + " ".join(self.argv)
        mono = "x" + "x".join(str(i) for i in self.u)
        return f"{self.op} {mono} n={self.n} k={self.k}"


# --- the benchmark's own combinatorics ------------------------------------


def power_count(u: tuple[int, ...], n: int, k: int) -> int:
    """Number of minimal generators of the k-th power of the expansion of u.

    Counts vectors in {0..k}^n of degree k*d whose prefix sums reach k*j at
    the j-th support index of u, by dynamic programming over the labels.
    """
    need = {label: k * (j + 1) for j, label in enumerate(u)}
    top = k * len(u)
    states = {0: 1}
    for label in range(1, n + 1):
        nxt: dict[int, int] = {}
        for total, ways in states.items():
            for e in range(k + 1):
                t = total + e
                if t > top:
                    break
                if t < need.get(label, 0):
                    continue
                nxt[t] = nxt.get(t, 0) + ways
        states = nxt
    return states.get(top, 0)


def power_vectors(u: tuple[int, ...], n: int, k: int) -> list[tuple[int, ...]]:
    """The same vectors as :func:`power_count`, listed in decreasing lex order."""
    need = [0] * (n + 1)
    for j, label in enumerate(u):
        need[label] = k * (j + 1)
    top = k * len(u)
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def extend(label: int, total: int) -> None:
        if label > n:
            if total == top:
                out.append(tuple(prefix))
            return
        for e in range(min(k, top - total), -1, -1):
            if total + e < need[label]:
                break
            prefix.append(e)
            extend(label + 1, total + e)
            prefix.pop()

    extend(1, 0)
    return out


def witness_defined(u: tuple[int, ...], n: int, k: int) -> bool:
    """Whether ``depth_zero_witness(u, k)`` is defined (see quotients.py)."""
    return u[0] > 1 and u[-1] == n and k > len(u) - 1


# --- powers ---------------------------------------------------------------

# Fixed rung: the largest power the ROADMAP baseline times (1,293 generators).
POWERS_FIXED = ((7, (2, 4, 6, 7), 3),)
# Frontier rung: 3,225 generators at k=3, far beyond the cap today.
POWERS_FRONTIER = (8, (2, 4, 6, 8), 3)
POWERS_RUNGS = tuple(
    (n, d, k) for n in range(5, 9) for d in (3, 4) for k in (2, 3)
)
# The seed picks within classes of u whose power has the same number of
# generators, the classes nearest the target; cost grows with that number,
# so every seed costs about the same.  Rungs that reach the window draw two
# u, which puts some thirty-five ops of 290 to 420 generators in every
# pass: the median and the tail op then fall well inside that group, not at
# its edge or on the few short ops that the machine's noise moves most.
POWERS_TARGET = 360
POWERS_WINDOW = (280, 420)


def class_pick(rng: random.Random, pool, counts: dict, target: int, draws: int = 1) -> list:
    """``draws`` distinct seed-chosen u from the generator-count classes
    nearest ``target``.

    Classes with more members than ``draws`` come first, so that the seed
    has a choice; the next nearest class fills in when one runs short.
    """
    groups: dict[int, list[tuple[int, ...]]] = {}
    for u in pool:
        groups.setdefault(counts[u], []).append(u)
    order = sorted(groups, key=lambda c: (len(groups[c]) <= draws, abs(c - target), c))
    chosen: list[tuple[int, ...]] = []
    for count in order:
        chosen += rng.sample(groups[count], min(len(groups[count]), draws - len(chosen)))
        if len(chosen) == draws:
            break
    return chosen


def _powers_picks(rng: random.Random, n: int, d: int, k: int) -> list:
    """Seed-chosen u of the rung: two with a power of 280 to 420 generators,
    or, when the window is empty (small n), one from the whole rung.  When
    the window holds u for which the depth-zero witness is defined, only
    such u are drawn, so the witness op is part of that rung for every seed.
    """
    cands = list(itertools.combinations(range(1, n + 1), d))
    counts = {u: power_count(u, n, k) for u in cands}
    lo, hi = POWERS_WINDOW
    window = [u for u in cands if lo <= counts[u] <= hi]
    witness = [u for u in window if witness_defined(u, n, k)]
    if not window:
        return class_pick(rng, cands, counts, POWERS_TARGET)
    return class_pick(rng, witness or window, counts, POWERS_TARGET, draws=2)


def _power_ops(n: int, u: tuple[int, ...], k: int) -> list[Case]:
    ops = [Case("power_generators", n, u, k), Case("quotient_profile", n, u, k)]
    if witness_defined(u, n, k):
        ops.append(Case("depth_zero_witness", n, u, k))
    return ops


def powers_cases(seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases: list[Case] = []
    for n, d, k in POWERS_RUNGS:
        for u in _powers_picks(rng, n, d, k):
            cases += _power_ops(n, u, k)
    for n, u, k in POWERS_FIXED:
        cases += _power_ops(n, u, k)
    n, u, kmax = POWERS_FRONTIER
    cases += [
        Case("power_generators", n, u, k, ladder="power-frontier")
        for k in range(1, kmax + 1)
    ]
    return cases


# --- oracle ---------------------------------------------------------------

# (n, kmax, fewest and most generators of I^kmax admitted).  The floor
# drops ideals so small that an op takes a few milliseconds, where the
# machine's noise is largest; the tops put a dozen ops of 0.15 to 0.4 s
# in every pass, so the tail op falls inside that group and not at its
# edge.  The cut at n=5, kmax=3 leaves out
# generators whose single op takes 1 to 19 s today (x_3x_4x_5 is the
# slowest); the frontier rung stands for that end.
ORACLE_RUNGS = ((4, 3, 10, 44), (5, 2, 10, 45), (5, 3, 10, 30))
ORACLE_FRONTIER = (6, (2, 4, 5, 6), 3)
ORACLE_OPS = ("ass_profile", "persistence_scan", "cross_validate")


def oracle_classes(n: int, kmax: int, lo: int, hi: int) -> list[list[tuple[int, ...]]]:
    """Generators of degree >= 2 grouped by degree and by the generator
    counts of every power up to kmax, which set the oracle's cost."""
    classes: dict[tuple, list[tuple[int, ...]]] = {}
    for d in range(2, n + 1):
        for u in itertools.combinations(range(1, n + 1), d):
            counts = tuple(power_count(u, n, k) for k in range(1, kmax + 1))
            if lo <= counts[-1] <= hi:
                classes.setdefault((d, counts), []).append(u)
    return [classes[key] for key in sorted(classes)]


def oracle_cases(seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases: list[Case] = []
    for n, kmax, lo, hi in ORACLE_RUNGS:
        for members in oracle_classes(n, kmax, lo, hi):
            u = rng.choice(members)
            cases += [Case(op, n, u, kmax) for op in ORACLE_OPS]
    n, u, kmax = ORACLE_FRONTIER
    cases += [
        Case("ass_profile", n, u, k, ladder="ass-frontier")
        for k in range(1, kmax + 1)
    ]
    return cases


# --- cli ------------------------------------------------------------------


def _csv(labels) -> str:
    return ",".join(str(i) for i in labels)


def _random_support(rng: random.Random, n: int, d: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(1, n + 1), d)))


def _cli_class_pick(rng: random.Random, n: int, d: int, k: int, target: int):
    cands = list(itertools.combinations(range(1, n + 1), d))
    return class_pick(rng, cands, {u: power_count(u, n, k) for u in cands}, target)[0]


def _cli_oracle_pick(rng: random.Random, n: int, kmax: int, limit: int):
    classes = oracle_classes(n, kmax, 1, limit)
    shared = [c for c in classes if len(c) > 1] or classes
    return rng.choice(shared[-1])


def cli_cases(seed: int) -> list[Case]:
    """One pass of CLI requests: two rounds of all 11 verbs in both output
    formats, two large outputs, and malformed requests whose correct
    outcome is exit 2 (usage) or 1 (domain).  Degrees are fixed where they
    set the cost, so the seed varies the monomials and not the work."""
    rng = random.Random(seed)
    requests: list[tuple[tuple[str, ...], int]] = []

    def verb(*argv: str, exit: int = 0) -> None:
        requests.append((tuple(argv), exit))

    for fmt in ("table", "json") * 2:
        f = ("--format", fmt)
        n = rng.randint(8, 12)
        u = _random_support(rng, n, rng.randint(2, 5))
        verb("lambda", "--u", _csv(u), "--n", str(n), *f)
        n = rng.randint(8, 12)
        u = _random_support(rng, n, rng.randint(2, 5))
        verb("ever-associated", "--u", _csv(u), "--n", str(n), *f)

        u = _cli_class_pick(rng, 12, 4, 1, 120)
        A = _random_support(rng, 12, 3)
        verb("localize", "--u", _csv(u), "--n", "12", "--A", _csv(A), *f)

        u = _random_support(rng, 8, 4)
        verb("stable-set", "--u", _csv(u), "--n", "8", *f)
        u = _random_support(rng, 10, 4)
        verb("table", "--u", _csv(u), "--n", "10", *f)

        exps = {i: rng.randint(1, 2) for i in _random_support(rng, 5, 2)}
        mono = ",".join(f"{i}^{e}" if e > 1 else str(i) for i, e in exps.items())
        verb("expand", "--u", mono, "--n", "5", "--k", "2", *f)

        u = _cli_class_pick(rng, 7, 3, 2, 100)
        verb("power", "--u", _csv(u), "--n", "7", "--k", "2", *f)
        u = _cli_class_pick(rng, 7, 4, 2, 100)
        verb("colon-profile", "--u", _csv(u), "--n", "7", "--k", "2", *f)

        for name in ("ass", "persist", "validate"):
            u = _cli_oracle_pick(rng, 5, 2, 45)
            verb(name, "--u", _csv(u), "--n", "5", "--kmax", "2", *f)

    # The large outputs: 4,096 rows, which is where emit and printing show.
    u = _random_support(rng, 12, 5)
    verb("stable-set", "--u", _csv(u), "--n", "12", "--all", "--format", "json")
    u = _random_support(rng, 12, 5)
    verb("table", "--u", _csv(u), "--n", "12", "--all", "--paper-order")

    n = rng.randint(4, 9)
    u = _random_support(rng, n, 2)
    verb("power", "--u", _csv(u), "--k", "2", exit=2)  # no ground set
    verb("lambda", "--u", f"0,{u[1]}", "--n", str(n), exit=2)  # label 0
    verb("ass", "--u", _csv(u), "--n", str(n), "--kmax", "7", exit=1)  # kmax ceiling
    verb("power", "--u", _csv(u), "--n", str(n), "--k", "0", exit=1)  # k < 1

    return [Case("cli", 0, argv=argv, exit=code) for argv, code in requests]


BUILDERS = {"powers": powers_cases, "oracle": oracle_cases, "cli": cli_cases}


def build_cases(workload: str, seed: int) -> list[Case]:
    """The workload's case list for ``seed``: its ops in a seed-chosen
    order, then the frontier ladders, which must run last and in order of
    k (memory is read before the first op that hits a cap)."""
    cases = BUILDERS[workload](seed)
    body = [c for c in cases if not c.ladder]
    random.Random(f"order-{seed}").shuffle(body)
    return body + [c for c in cases if c.ladder]
