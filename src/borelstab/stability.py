"""Stability indices and the stable set of associated primes.

Every index here depends only on where the support of ``u`` sits in its
ground set: an order-preserving relabeling of the variables carries the
expansion of ``u`` to the expansion of the relabeled generator.  So the
formulas read the 1-based positions of the support, and any ground set
works.  The maximal ideal is eventually associated iff the support avoids
the first variable and contains the last.  When it is, the least power is
read off the interval decomposition of the support positions: with block
lengths ``l_j`` and gap lengths ``gap_j``,

    lambda = max_j  ceil( (l_1+...+l_j) / (gap_1+...+gap_j) ) + 1.

A prime ``P_A`` is eventually associated iff the maximal ideal of the
localized ring is, that is iff its index ``lambda_A`` is finite: ``u_A``
is a squarefree generator over the complement of ``A``, and ``lambda_A``
is :func:`lambda_max_ideal` of it, the one index function.  That is the
direct route: membership is ``lambda_A < inf``.  Its referee is the purely
combinatorial route on ``u`` and ``A`` alone, which never localizes
``u``; :func:`stable_set_enumerate` raises whenever the two disagree.

One-variable degenerate case: the general theory excludes a generator
equal to the single variable of its ring, but such localizations do occur
(the localized ideal is then the maximal ideal itself); they are members
with index 1.  When every support index is struck, the localization is
the whole ring and :func:`~borelstab.localization.localize_closed_form`
returns None for ``u_A``: its index is inf, so it is never a member.

:func:`lambda_value_witness` and :func:`lambda_of_prime` have no caller in
the package.  The first builds a generator for each index value, which the
tests check against the oracle; the second is traced by the benchmark under
``bench/``, and the tests use it as the index ``lambda_A`` of one subset.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right

from .localization import VariableSubset, localize_closed_form
from .monomials import GroundSet, SquarefreeMonomial, _value

INFINITE = math.inf

DEFAULT_ENUMERATION_BOUND = 12  # stable_set_enumerate walks all 2^n subsets


@_value
class IntervalDecomposition:
    """Maximal blocks of consecutive variables in the support of ``u``
    (which contains the last variable).

    ``blocks`` holds the first and last label of each block; lengths and
    gaps count ground-set positions.  ``lengths[j]`` is the block length
    for all but the last block, whose recorded length is one less (the
    positions after its first); ``gaps[j]`` is the free space before block
    ``j``.  The recorded lengths add up to ``d - 1``.
    """

    blocks: tuple[tuple[int, int], ...]
    lengths: tuple[int, ...]
    gaps: tuple[int, ...]


def interval_decomposition(u: SquarefreeMonomial) -> IntervalDecomposition:
    """Decompose the support of ``u`` into maximal runs; needs the last
    variable of the ground set in the support."""
    labels = u.ground.indices
    if u.max_index != labels[-1]:
        raise ValueError(f"max(u) = {u.max_index} but the ground set tops out at {labels[-1]}")
    pos = [bisect_left(labels, i) + 1 for i in u.indices]
    runs: list[tuple[int, int]] = []
    start = prev = pos[0]
    for p in pos[1:]:
        if p != prev + 1:
            runs.append((start, prev))
            start = p
        prev = p
    runs.append((start, prev))
    lengths = [b - a + 1 for a, b in runs]
    lengths[-1] = len(labels) - start
    gaps = [runs[0][0] - 1]
    gaps += [a - pb - 1 for (_, pb), (a, _) in zip(runs, runs[1:])]
    if sum(lengths) != u.degree - 1:
        raise AssertionError(f"interval lengths of {u} do not sum to deg - 1")
    blocks = tuple((labels[a - 1], labels[b - 1]) for a, b in runs)
    return IntervalDecomposition(blocks, tuple(lengths), tuple(gaps))


def ever_associated(u: SquarefreeMonomial) -> bool:
    """Whether the maximal ideal is associated to some power at all: its
    index is finite."""
    return lambda_max_ideal(u) != INFINITE


def lambda_max_ideal(u: SquarefreeMonomial) -> int | float:
    """Least power with the maximal ideal associated; inf when there is none.

    When finite the index is at most ``deg u``.  In degree at least 3 it
    equals ``deg u`` exactly at the extremal generator ``x_2 .. x_d x_n``;
    in degree at most 2 it equals ``deg u`` whenever it is finite, so also
    at ``x_a x_n`` for ``3 <= a < n`` (acceptance criterion 3).
    """
    labels = u.ground.indices
    if len(labels) == 1:
        return 1
    if u.min_index == labels[0] or u.max_index != labels[-1]:
        return INFINITE
    deco = interval_decomposition(u)
    best = 0
    num = den = 0
    for length, gap in zip(deco.lengths, deco.gaps):
        num += length
        den += gap
        if den < 1:
            raise AssertionError("min(u) > 1 guarantees a positive leading gap")
        best = max(best, -(-num // den) + 1)
    return best


def lambda_value_witness(d: int, i: int) -> SquarefreeMonomial:
    """A degree-d generator over ``2d - i + 1`` variables whose index is ``i``.

    Concatenates the run ``x_2 .. x_i``, the spaced labels ``x_{i+2j}``
    for ``j = 1 .. d-i``, and the top variable.  Defined for 2 <= i <= d.
    """
    if not 2 <= i <= d:
        raise ValueError(f"need 2 <= i <= d, got i={i}, d={d}")
    n = 2 * d - i + 1
    labels = list(range(2, i + 1))
    labels += [i + 2 * j for j in range(1, d - i + 1)]
    labels.append(n)
    u = SquarefreeMonomial(GroundSet.contiguous(n), tuple(sorted(set(labels))))
    if u.degree != d:
        raise AssertionError(f"witness {u} has degree {u.degree}, not {d}")
    if lambda_max_ideal(u) != i:
        raise AssertionError(f"witness {u} does not attain lambda = {i}")
    return u


# --- combinatorics of a subset against the generator -----------------------


def cover_positions(A: VariableSubset, u: SquarefreeMonomial) -> tuple[int | None, ...]:
    """For each element of ``A`` (in order), the 1-based position of the
    first generator index that is at least it; None when none is."""
    out: list[int | None] = []
    for k in A.members:
        pos = bisect_right(u.indices, k - 1)
        out.append(pos + 1 if pos < len(u.indices) else None)
    return tuple(out)


def _localizes_to_unit(u: SquarefreeMonomial, A: VariableSubset) -> bool:
    """Whether ``u_A`` is the unit ideal, by counting alone: for every
    ``t``, at least ``t`` elements of ``A`` are at most the ``t``-th support
    index ``i_t``."""
    return all(bisect_right(A.members, i) >= t for t, i in enumerate(u.indices, 1))


def stable_membership_combinatorial(u: SquarefreeMonomial, A: VariableSubset) -> bool:
    """Membership of ``P_A`` in the stable set, without localizing ``u``.

    A localization to the unit ideal (:func:`_localizes_to_unit`) is never
    a member, and any other localization to a one-variable ring (one
    label in the complement of ``A``) always is.
    Condition (i), min above the floor: with ``run`` the length of the
    generator's leading run at positions ``1, 2, ...`` of the ground set
    (``d`` when all of ``u`` is one), the first ``run`` elements of ``A``
    must be exactly the first ``run`` variables.
    Condition (ii), max reaching the ceiling: the largest outside variable
    must itself be a support index, and striking the head of ``A`` (its
    elements below that variable; the rest of ``A`` is the run capping the
    ground set) from the truncated generator must preserve that top index,
    i.e. ``l(head-j) < g - j`` for ``j = 0 .. head-1``, where ``g`` counts
    the support indices up to the top and ``l`` is :func:`cover_positions`,
    computed for the head alone.
    """
    if _localizes_to_unit(u, A):
        return False
    if len(A.complement) == 1:
        return True

    labels = u.ground.indices
    run = 0
    for pos, label in enumerate(u.indices):
        if label != labels[pos]:
            break
        run = pos + 1
    if run > len(A.members) or A.members[:run] != labels[:run]:
        return False

    max_outside = A.complement[-1]
    g = bisect_right(u.indices, max_outside)
    if g == 0 or u.indices[g - 1] != max_outside:
        return False
    # l(head-j) for j = 0, 1, ...: each head element lies below the top
    # support index, so its cover position is never None
    head = bisect_left(A.members, max_outside)
    for j, k in enumerate(reversed(A.members[:head])):
        if bisect_right(u.indices, k - 1) + 1 >= g - j:
            return False
    return True


def lambda_of_prime(u: SquarefreeMonomial, A: VariableSubset) -> int | float:
    """Least power with ``P_A`` associated: the maximal-ideal index of the
    localized generator; inf when the localization is the whole ring."""
    local = localize_closed_form(u, A)
    return INFINITE if local is None else lambda_max_ideal(local)


@_value
class StableSetEntry:
    """One subset ``A`` with its localized generator and stability index.

    ``generator`` is ``u_A``, None when the localization is the whole
    ring.  ``prime`` lists the generator labels of ``P_A``: the complement
    of ``A``, which is also the ground set of the localized ring.
    ``member`` is not a field: a member is a subset of finite index.
    """

    subset: tuple[int, ...]
    generator: SquarefreeMonomial | None
    prime: tuple[int, ...]
    stability_index: int | float

    @property
    def member(self) -> bool:
        return self.stability_index != INFINITE


def stable_set_enumerate(
    u: SquarefreeMonomial,
    *,
    members_only: bool = False,
    enumeration_bound: int = DEFAULT_ENUMERATION_BOUND,
) -> list[StableSetEntry]:
    """Every subset ``A`` with its localized generator and stability index.

    Subsets are listed by cardinality and then lexicographically.  The
    combinatorial route must agree with every membership verdict.
    """
    n = len(u.ground)
    if n > enumeration_bound:
        raise ValueError(f"n={n} exceeds the enumeration bound {enumeration_bound}")
    entries: list[StableSetEntry] = []
    labels = u.ground.indices
    for size in range(n + 1):
        for combo in itertools.combinations(labels, size):
            A = VariableSubset(u.ground, combo)
            local = localize_closed_form(u, A)
            lam = INFINITE if local is None else lambda_max_ideal(local)
            entry = StableSetEntry(combo, local, A.complement, lam)
            combinatorial = stable_membership_combinatorial(u, A)
            if entry.member != combinatorial:
                raise AssertionError(
                    f"membership routes disagree at u={u}, A={combo}: "
                    f"direct={entry.member}, combinatorial={combinatorial}"
                )
            if entry.member or not members_only:
                entries.append(entry)
    return entries


__all__ = [
    "DEFAULT_ENUMERATION_BOUND",
    "INFINITE",
    "IntervalDecomposition",
    "StableSetEntry",
    "cover_positions",
    "ever_associated",
    "interval_decomposition",
    "lambda_max_ideal",
    "lambda_of_prime",
    "lambda_value_witness",
    "stable_membership_combinatorial",
    "stable_set_enumerate",
]
