"""Shared fixtures and independent reference implementations.

The brute-force helpers here deliberately avoid the library's shortcut
code paths so that tests compare two genuinely different routes.
"""

from __future__ import annotations

import itertools
import random
from operator import add

import pytest

from borelstab import (
    INFINITE,
    GroundSet,
    GroundSetMismatch,
    Monomial,
    MonomialIdeal,
    SquarefreeMonomial,
    VariableSubset,
    expand_squarefree,
    lambda_of_prime,
    localize_by_saturation,
    localize_closed_form,
    minimalize,
)
from borelstab.borel import borel_moves
from borelstab.quotients import _colon_sets


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


def lex_compare(w1: Monomial, w2: Monomial) -> int:
    """-1, 0 or 1 as ``w1`` is lex-smaller, equal, or lex-greater."""
    if w1.ground != w2.ground:
        raise GroundSetMismatch(f"ground sets differ: {w1.ground} vs {w2.ground}")
    a, b = w1.vector, w2.vector
    return (a > b) - (a < b)


def linear_quotient_set(gens, i: int, cap: int) -> frozenset[int]:
    """Variables generating ``(u_1,...,u_{i-1}) : u_i`` (1-based ``i``) by
    the library's colon-variable formula, for a list ``gens`` that must be
    strictly decreasing in lex order: the positional form that the tests
    hold against brute-force colons."""
    if not 1 <= i <= len(gens):
        raise ValueError(f"position {i} out of range 1..{len(gens)}")
    keys = [g.vector for g in gens]
    if any(a <= b for a, b in zip(keys, keys[1:])):
        raise ValueError("generators not sorted in strictly decreasing lex order")
    if i == 1:
        return frozenset()
    return _colon_sets(gens[i - 1].ground.indices, [gens[i - 1].vector], cap)[0]


def max_preserved(u: SquarefreeMonomial, A: VariableSubset) -> bool:
    """Does localizing at ``A`` keep the top support index of ``u``?

    Evaluated combinatorially when every element of ``A`` stays within the
    support range (``k_s <= i_d``): the maximum drops exactly when
    ``k_{s-j} > i_{d-j-1}`` for some ``j >= 0`` (indices at or below zero
    count as 0).  Falls back to the closed form otherwise.
    """
    if not A.members:
        return True
    ks = A.members
    idx = u.indices
    if ks[-1] > idx[-1]:
        local = localize_closed_form(u, A)
        return local is not None and local.max_index == idx[-1]
    s, d = len(ks), len(idx)
    for j in range(s):
        below = d - j - 1
        threshold = idx[below - 1] if below >= 1 else 0
        if ks[s - j - 1] > threshold:
            return False
    return True


def stable_membership_direct(u: SquarefreeMonomial, A: VariableSubset) -> bool:
    """Membership of ``P_A`` in the stable set: its index is finite."""
    return lambda_of_prime(u, A) != INFINITE


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


def assert_localizations_compose(u, A, B) -> None:
    """Localizing at ``A`` and then at ``B \\ A`` equals localizing at
    ``B``, for ``A`` inside ``B``, by the closed form and by saturation."""
    rest = tuple(i for i in B.members if i not in A.members)
    first, via_b = localize_closed_form(u, A), localize_closed_form(u, B)
    if first is None:
        assert via_b is None, (u, A, B)
    else:
        step = VariableSubset(first.ground, rest)
        assert localize_closed_form(first, step) == via_b, (u, A, B)
    if B.complement:
        J = expand_squarefree(u)
        staged = localize_by_saturation(J, A)
        staged = localize_by_saturation(staged, VariableSubset(staged.ground, rest))
        assert staged == localize_by_saturation(J, B), (u, A, B)


def power_by_all_products(J: MonomialIdeal, k: int) -> MonomialIdeal:
    """J^k from every k-fold product of generators at once: the referee of
    ``ideal_power``, which builds each power from the one before."""
    products = {
        tuple(map(sum, zip(*combo)))
        for combo in itertools.combinations_with_replacement(J.vectors, k)
    }
    return minimalize([Monomial(J.ground, v) for v in products])


def referee_corpus():
    """Seeded random ideals over 1-4 variables with exponents up to 3,
    some over the ground set {2, 5, 7} and some with a variable that no
    generator uses (a box axis with b_i = 0), plus one of each by hand."""
    g257 = GroundSet((2, 5, 7))
    yield ideal(mono(GroundSet.contiguous(1), x1=3))
    yield ideal(mono(g257, x2=2, x5=1), mono(g257, x5=3, x7=1), mono(g257, x7=2))
    yield ideal(mono(GroundSet.contiguous(3), x1=2), mono(GroundSet.contiguous(3), x1=1, x3=1))
    rng = random.Random(2013)
    made = 0
    while made < 150:
        n = rng.randint(1, 4)
        ground = g257 if n == 3 and rng.random() < 0.5 else GroundSet.contiguous(n)
        unused = rng.randrange(n) if n > 1 and rng.random() < 0.25 else None
        vecs = [
            tuple(0 if pos == unused else rng.randint(0, 3) for pos in range(n))
            for _ in range(rng.randint(1, 5))
        ]
        J = minimalize([Monomial(ground, v) for v in vecs if any(v)], ground=ground)
        if J.is_zero or J.is_unit:
            continue
        made += 1
        yield J


def box_vectors(bounds):
    return itertools.product(*(range(b + 1) for b in bounds))


def brute_colon_members(J: MonomialIdeal, w: Monomial, bounds):
    """Monomials m in the box with m * w in J, minimalized: the colon oracle."""
    ground = J.ground
    hits = []
    for vec in box_vectors(bounds):
        if Monomial(ground, tuple(map(add, vec, w.vector))) in J:
            hits.append(Monomial(ground, vec))
    return minimalize(hits, ground) if hits else MonomialIdeal(ground, ())


# --- dict-of-pairs reference monomials --------------------------------------
#
# A reference monomial is a ``{label: exponent}`` dict with no zero values.
# These functions never touch the library, so the property tests compare
# its vectors, membership, lex order and text with a second, independent
# representation.


def ref_clean(a: dict) -> dict:
    return {i: e for i, e in a.items() if e}


def ref_divides(a: dict, b: dict) -> bool:
    return all(e <= b.get(i, 0) for i, e in a.items())


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
