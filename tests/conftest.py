"""Shared fixtures and independent reference implementations.

The brute-force helpers here deliberately avoid the library's shortcut
code paths so that tests compare two genuinely different routes.
"""

from __future__ import annotations

import itertools

import pytest

from borelstab import (
    GroundSet,
    Monomial,
    MonomialIdeal,
    SquarefreeMonomial,
    minimalize,
)
from borelstab.borel import borel_moves


def sf(ground: GroundSet, *indices: int) -> SquarefreeMonomial:
    return SquarefreeMonomial(ground, tuple(indices))


def mono(ground: GroundSet, **kwargs) -> Monomial:
    """mono(g, x1=2, x3=1) -> x_1^2 x_3."""
    exps = {int(k[1:]): v for k, v in kwargs.items()}
    return Monomial.make(ground, exps)


def ideal(*gens: Monomial) -> MonomialIdeal:
    return minimalize(gens)


def all_squarefree(n: int):
    """Every non-unit squarefree monomial over the contiguous ground set."""
    g = GroundSet.contiguous(n)
    for r in range(1, n + 1):
        for idx in itertools.combinations(range(1, n + 1), r):
            yield SquarefreeMonomial(g, idx)


def all_subsets(n: int):
    for size in range(n + 1):
        yield from itertools.combinations(range(1, n + 1), size)


def closure_by_moves(w: Monomial, cap: int) -> MonomialIdeal:
    """Breadth-first closure of ``w`` under every capped Borel exchange:
    the definitional referee of ``borel_closure``'s prefix-dominance walk."""
    seen = {w.vector}
    frontier = [w.vector]
    while frontier:
        nxt = []
        for v in frontier:
            for moved in borel_moves(v, cap):
                if moved not in seen:
                    seen.add(moved)
                    nxt.append(moved)
        frontier = nxt
    return MonomialIdeal(w.ground, tuple(seen))


def box_vectors(bounds):
    return itertools.product(*(range(b + 1) for b in bounds))


def brute_colon_members(J: MonomialIdeal, w: Monomial, bounds):
    """Monomials m in the box with m * w in J, minimalized: the colon oracle."""
    ground = J.ground
    hits = []
    for vec in box_vectors(bounds):
        m = Monomial.from_vector(ground, vec)
        if m * w in J:
            hits.append(m)
    return minimalize(hits, ground) if hits else MonomialIdeal(ground, ())


# --- dict-of-pairs reference monomials --------------------------------------
#
# A reference monomial is a ``{label: exponent}`` dict with no zero values.
# These functions never touch the library, so the property tests compare
# its vector arithmetic with a second, independent representation.


def ref_clean(a: dict) -> dict:
    return {i: e for i, e in a.items() if e}


def ref_mul(a: dict, b: dict) -> dict:
    return ref_clean({i: a.get(i, 0) + b.get(i, 0) for i in {*a, *b}})


def ref_pow(a: dict, k: int) -> dict:
    return ref_clean({i: e * k for i, e in a.items()})


def ref_gcd(a: dict, b: dict) -> dict:
    return ref_clean({i: min(e, b.get(i, 0)) for i, e in a.items()})


def ref_lcm(a: dict, b: dict) -> dict:
    return ref_clean({i: max(a.get(i, 0), b.get(i, 0)) for i in {*a, *b}})


def ref_divides(a: dict, b: dict) -> bool:
    return all(e <= b.get(i, 0) for i, e in a.items())


def ref_divide(a: dict, b: dict) -> dict:
    return ref_clean({i: e - b.get(i, 0) for i, e in a.items()})


def ref_pairs(a: dict) -> tuple:
    return tuple(sorted(ref_clean(a).items()))


def ref_lex_greater(a: dict, b: dict) -> bool:
    """x_i > x_j for i < j: the smallest label where the exponents differ
    decides, and the larger exponent there wins."""
    differ = [i for i in {*a, *b} if a.get(i, 0) != b.get(i, 0)]
    return bool(differ) and a.get(min(differ), 0) > b.get(min(differ), 0)


def ref_format(a: dict) -> str:
    return ",".join(f"{i}^{e}" if e > 1 else str(i) for i, e in ref_pairs(a))


# --- pairwise minimality reference -------------------------------------------
#
# The rule ``MonomialIdeal`` applied before it shared the library's
# degree-grouped kernel: compare every ordered pair of exponent vectors.


def ref_below(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def ref_minimal_vectors(vecs) -> set:
    """The vectors with no different vector coordinatewise below them."""
    return {v for v in vecs if not any(w != v and ref_below(w, v) for w in vecs)}


def ref_is_minimal(vecs) -> bool:
    """No repeat and no pair with one vector coordinatewise below another."""
    return not any(ref_below(a, b) for a, b in itertools.permutations(vecs, 2))


@pytest.fixture(scope="session")
def g3() -> GroundSet:
    return GroundSet.contiguous(3)


@pytest.fixture(scope="session")
def g4() -> GroundSet:
    return GroundSet.contiguous(4)


@pytest.fixture(scope="session")
def g5() -> GroundSet:
    return GroundSet.contiguous(5)


@pytest.fixture(scope="session")
def worked_generator(g5) -> SquarefreeMonomial:
    """The worked example generator x_1 x_3 x_4 x_5 over five variables."""
    return SquarefreeMonomial(g5, (1, 3, 4, 5))


# The twelve member rows of the worked stable-set table:
# (A, support of u_A, stability index); the prime is the complement of A.
WORKED_TABLE = (
    ((2, 3, 4, 5), (1,), 1),
    ((1, 2, 5), (4,), 1),
    ((1, 3, 4), (5,), 1),
    ((1, 3, 5), (4,), 1),
    ((1, 4, 5), (3,), 1),
    ((1, 2, 3), (5,), 1),
    ((1, 2, 4), (5,), 1),
    ((1, 2), (4, 5), 2),
    ((1, 3), (4, 5), 2),
    ((1, 4), (3, 5), 2),
    ((1, 5), (3, 4), 2),
    ((1,), (3, 4, 5), 3),
)
