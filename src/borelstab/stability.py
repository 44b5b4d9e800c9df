"""Stability indices and the stable set of associated primes.

For a squarefree principal Borel ideal with generator ``u`` over ``1..n``
the maximal ideal is eventually associated iff ``min(u) > 1`` and
``max(u) = n``.  When it is, the least power is read off the interval
decomposition of the support: with block lengths ``l_j`` and gap lengths
``gap_j``,

    lambda = max_j  ceil( (l_1+...+l_j) / (gap_1+...+gap_j) ) + 1.

A prime ``P_A`` is eventually associated iff the maximal ideal of the
localized ring is, that is iff its index ``lambda_A``, the maximal-ideal
index of the localized generator ``u_A``, is finite.  That is the direct
route: membership is ``lambda_A < inf``.  Its referee is the purely
combinatorial route on ``u`` and ``A`` alone, which never computes the
min and max of ``u_A``; :func:`stable_set_enumerate` raises whenever the
two disagree.

One-variable degenerate case: the general theory excludes a generator
equal to the single variable of its ring, but such localizations do occur
(the localized ideal is then the maximal ideal itself); they are members
with index 1.  A localized generator that collapses to the unit monomial
makes the localization the whole ring: never a member.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass

from .localization import LocalizedGenerator, VariableSubset, localize_closed_form
from .monomials import GroundSet, SquarefreeMonomial

INFINITE = math.inf

DEFAULT_ENUMERATION_BOUND = 12  # stable_set_enumerate walks all 2^n subsets


def _require_contiguous(u: SquarefreeMonomial, n: int | None) -> int:
    if not u.ground.is_contiguous:
        raise ValueError("interval combinatorics needs contiguous labels 1..n")
    size = len(u.ground)
    if n is not None and n != size:
        raise ValueError(f"n={n} does not match ground set of size {size}")
    return size


@dataclass(frozen=True)
class IntervalDecomposition:
    """Maximal consecutive blocks of the support of ``u`` (with ``n`` last).

    ``lengths[j]`` is the block length for all but the last block, whose
    recorded length is one less (``n - a_m``); ``gaps[j]`` is the free
    space before block ``j``.  The recorded lengths add up to ``d - 1``.
    """

    n: int
    blocks: tuple[tuple[int, int], ...]
    lengths: tuple[int, ...]
    gaps: tuple[int, ...]


def interval_decomposition(u: SquarefreeMonomial, n: int | None = None) -> IntervalDecomposition:
    """Decompose the support of ``u`` into maximal runs; needs ``max(u) = n``."""
    n = _require_contiguous(u, n)
    if u.max_index != n:
        raise ValueError(f"max(u) = {u.max_index} but the ground set tops out at {n}")
    blocks: list[tuple[int, int]] = []
    start = prev = u.indices[0]
    for i in u.indices[1:]:
        if i == prev + 1:
            prev = i
            continue
        blocks.append((start, prev))
        start = prev = i
    blocks.append((start, prev))

    lengths = [b - a + 1 for a, b in blocks]
    lengths[-1] = n - blocks[-1][0]
    gaps = [blocks[0][0] - 1]
    gaps += [a - pb - 1 for (_, pb), (a, _) in zip(blocks, blocks[1:])]
    deco = IntervalDecomposition(n, tuple(blocks), tuple(lengths), tuple(gaps))
    if sum(deco.lengths) != u.degree - 1:
        raise AssertionError(f"interval lengths of {u} do not sum to deg(u) - 1")
    return deco


def ever_associated(u: SquarefreeMonomial, n: int | None = None) -> bool:
    """Whether the maximal ideal is associated to some power at all: its
    index is finite."""
    return lambda_max_ideal(u, n) != INFINITE


def lambda_max_ideal(u: SquarefreeMonomial, n: int | None = None) -> int | float:
    """Least power with the maximal ideal associated; inf when there is none.

    When finite the index is at most ``deg u``.  In degree at least 3 it
    equals ``deg u`` exactly at the extremal generator ``x_2 .. x_d x_n``;
    in degree at most 2 it equals ``deg u`` whenever it is finite, so also
    at ``x_a x_n`` for ``3 <= a < n`` (acceptance criterion 3).
    """
    n = _require_contiguous(u, n)
    if n == 1:
        return 1
    if u.min_index == 1 or u.max_index < n:
        return INFINITE
    deco = interval_decomposition(u, n)
    best = 0
    num = den = 0
    for length, gap in zip(deco.lengths, deco.gaps):
        num += length
        den += gap
        if den < 1:
            raise AssertionError("min(u) > 1 guarantees a positive leading gap")
        best = max(best, -(-num // den) + 1)
    return best


def lambda_value_witness(d: int, i: int) -> tuple[SquarefreeMonomial, int]:
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
    if lambda_max_ideal(u, n) != i:
        raise AssertionError(f"witness {u} does not attain lambda = {i}")
    return u, n


# --- combinatorics of a subset against the generator -----------------------


def cover_positions(A: VariableSubset, u: SquarefreeMonomial) -> tuple[int | None, ...]:
    """For each element of ``A`` (in order), the 1-based position of the
    first generator index that is at least it; None when none is."""
    out: list[int | None] = []
    for k in A.members:
        pos = bisect_right(u.indices, k - 1)
        out.append(pos + 1 if pos < len(u.indices) else None)
    return tuple(out)


def stable_membership_combinatorial(
    u: SquarefreeMonomial, A: VariableSubset, n: int | None = None
) -> bool:
    """Membership of ``P_A`` in the stable set, without computing ``u_A``'s
    min and max directly.

    Condition (i), min above the floor: with ``run`` the length of the
    generator's leading run ``1, 2, ...`` (``d`` when all of ``u`` is one),
    the first ``run`` elements of ``A`` must be exactly ``1, 2, ...``.
    Condition (ii), max reaching the ceiling: the largest outside variable
    must itself be a support index, and striking the head of ``A`` (its
    elements below that variable; the rest of ``A`` is the run capping the
    ground set) from the truncated generator must preserve that top index,
    i.e. ``l(head-j) < g - j`` for ``j = 0 .. head-1``, where ``g`` counts
    the support indices up to the top and ``l`` is :func:`cover_positions`.
    """
    _require_contiguous(u, n)
    local = localize_closed_form(u, A)
    if local.is_unit_ideal:
        return False
    if len(local.ground) == 1:
        return local.indices == local.ground

    run = 0
    for pos, label in enumerate(u.indices):
        if label != pos + 1:
            break
        run = pos + 1
    if run > A.size or A.members[:run] != tuple(range(1, run + 1)):
        return False

    max_outside = A.complement[-1]
    g = bisect_right(u.indices, max_outside)
    if g == 0 or u.indices[g - 1] != max_outside:
        return False
    head = sum(1 for k in A.members if k < max_outside)
    covers = cover_positions(A, u)
    for j in range(head):
        ell = covers[head - j - 1]
        if ell is None or ell >= g - j:
            return False
    return True


def lambda_of_prime(
    u: SquarefreeMonomial, A: VariableSubset, n: int | None = None
) -> int | float:
    """Least power with ``P_A`` associated: the maximal-ideal index of the
    localized generator, relabeled onto contiguous variables."""
    _require_contiguous(u, n)
    return _local_lambda(localize_closed_form(u, A))


def _local_lambda(local: LocalizedGenerator) -> int | float:
    if local.is_unit_ideal:
        return INFINITE
    return lambda_max_ideal(local.as_squarefree().relabel_contiguous())


@dataclass(frozen=True)
class StableSetEntry:
    """One subset ``A`` with its localized generator and membership data.

    ``prime`` lists the generator labels of ``P_A`` (the complement of
    ``A``); its positions also record the order isomorphism used to
    relabel the localized ring when evaluating the stability index.
    """

    subset: tuple[int, ...]
    generator: LocalizedGenerator
    prime: tuple[int, ...]
    member: bool
    stability_index: int | float


def stable_set_enumerate(
    u: SquarefreeMonomial,
    n: int | None = None,
    members_only: bool = False,
    enumeration_bound: int = DEFAULT_ENUMERATION_BOUND,
) -> list[StableSetEntry]:
    """Every subset ``A`` with membership verdicts and stability indices.

    Subsets are listed by cardinality and then lexicographically.  A
    subset is a member exactly when its index is finite, and the
    combinatorial route must agree with every such verdict.
    """
    n = _require_contiguous(u, n)
    if n > enumeration_bound:
        raise ValueError(f"n={n} exceeds the enumeration bound {enumeration_bound}")
    entries: list[StableSetEntry] = []
    labels = u.ground.indices
    for size in range(n + 1):
        for combo in itertools.combinations(labels, size):
            A = VariableSubset(u.ground, combo)
            local = localize_closed_form(u, A)
            lam = _local_lambda(local)
            member = lam != INFINITE
            combinatorial = stable_membership_combinatorial(u, A, n)
            if member != combinatorial:
                raise AssertionError(
                    f"membership routes disagree at u={u}, A={combo}: "
                    f"direct={member}, combinatorial={combinatorial}"
                )
            if members_only and not member:
                continue
            entries.append(
                StableSetEntry(
                    subset=combo,
                    generator=local,
                    prime=A.complement,
                    member=member,
                    stability_index=lam,
                )
            )
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
