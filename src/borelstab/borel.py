"""Generation and recognition of principal Borel (strongly stable) ideals.

A monomial ideal generated in one degree, with all exponents at most
``cap``, is cap-strongly stable when it is closed under every exchange
``x_i * (u / x_j)`` with ``i < j``, ``x_j | u`` and the exponent of
``x_i`` in ``u`` below the cap.  A principal Borel ideal is the smallest
such ideal containing a single generator.

Every generator set here comes from one walk, :func:`borel_closure`, by
this description: the cap-``c`` closure of ``w`` is the set of vectors
``v`` with ``deg v = deg w``, every ``v_i <= c``, and every prefix sum of
``v`` at least that of ``w``.  An exchange only raises prefix sums, so the
closure lies in the set.  Conversely, for ``v != w`` in it, let ``i`` be
the first position where they differ and ``j`` the first after ``i`` with
``w_j > 0``.  Then ``v_i > w_i``, so ``w_i < c``; moving a unit from ``j``
to ``i`` is a capped exchange whose result ``v`` still dominates, with a
smaller total prefix gap.  Induction on that gap reaches ``v``.

The walk builds that set in two halves that meet at ``mid = end // 2``,
with ``end`` one past the last nonzero position of ``w``.  The back half
is a table of suffix lists keyed by ``(position i, prefix sum s before
it)``.  With ``W_i`` the prefix sum of ``w`` through position ``i`` and
``D = deg w``, the entry ``e`` at ``i`` runs from ``min(c, D - s)`` down
to ``max(0, W_i - s)``, and the row of ``(i, s)`` is ``(e,) + t`` for
each such ``e`` and each suffix ``t`` in the row of ``(i + 1, s + e)``.
Past the last nonzero position of ``w`` every prefix sum has reached
``D``, so every entry there is zero: the table starts at ``end``, with
the one row of ``D``, the zero suffix, and the trailing zeros cost no
step of the walk.  It is built back to ``mid`` only.  At ``i`` it holds
the sums ``s`` in ``[W_(i-1), min(D, c * i)]``, exactly those a valid
prefix of length ``i`` can reach (fill it up to ``c`` per entry until the
sum is ``s``).  No such row is empty: filling each later position up to
``min(c, D - s)`` keeps every prefix sum at least ``min(s + c, D)``,
which meets the next bound because the entries of ``w`` are at most
``c``, and it ends at ``D``.  Each row is in decreasing lex order, and a
suffix is built once for all the prefixes that reach its state.

The front half lists the prefixes of positions ``0 .. mid - 1`` forward
by the same bounds, each with its sum.  None dies on the way: with
``W_(i-1) <= s <= D``, the range ``[max(0, W_i - s), min(c, D - s)]`` is
nonempty because ``w_i <= c`` and ``W_i <= D``, and the new sum lies in
``[W_i, D]``.  So a prefix ends at a sum in
``[W_(mid-1), min(D, c * mid)]``, exactly the rows the table holds at
``mid``: every prefix finds a nonempty row, and every suffix built is
used.  The walk returns ``p + t`` for each prefix ``p`` in turn and each
``t`` in its row; the prefixes are in decreasing lex order and so is each
row, so the join is too.  The split is a fixed rule, the fastest timed on
the 57 walks of a ``powers`` bench pass (2-core x86 VM): 3.6 ms, against
3.7 for ``(end + 1) // 2``, 4.1 for ``end // 3``, 4.4 for
``2 * end // 3`` and 6.3 for no split.

The walk reads the vector of ``u^k`` (``SquarefreeMonomial.power_vector``)
and builds no :class:`~borelstab.monomials.Monomial`.  The colon profile
of :mod:`borelstab.quotients` walks the same rows, holding a bitmask per
suffix; both walks start from :func:`_walk_plan`, which holds their
bounds and their refusals.  Its referees live
with the tests: the breadth-first closure under every capped exchange,
and the definitional check of strong stability.

:func:`extract_borel_generator` and :class:`NotPrincipalError` have no
caller in the package.  They stay public because they recognize the
paper's object, a principal Borel ideal, from its generators (demo 01).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from operator import ge

from .monomials import (
    Monomial,
    MonomialIdeal,
    ResourceLimitError,
    SquarefreeMonomial,
    _Minimal,
    _same_ground,
)


class NotPrincipalError(ValueError):
    """The ideal is not generated by a single Borel generator."""


def _over_cap(vec: tuple[int, ...], cap: int) -> bool:
    return any(e > cap for e in vec if e)


# the most prefix sums the walk's table may hold at one position, and the
# most vectors the walk may build; the same value as the oracle's default
# box-cell ceiling
_SUM_CEILING = 10**7


def _walk_plan(w: tuple[int, ...], cap: int) -> tuple[list[int], int, int]:
    """The prefix sums ``bounds`` of ``w``, its ``degree`` and ``end``, one
    past its last nonzero position: what a walk over the rows of the
    module docstring reads, after two refusals.

    First the largest number of prefix sums the table holds at one
    position is counted.  Every row is reachable and non-empty, so that
    number bounds the generator count from below, and a walk whose table
    would hold more than ``_SUM_CEILING`` sums is refused with
    :class:`~borelstab.monomials.ResourceLimitError`.  Then, unless
    ``(cap + 1) ** (end - 1)`` (every choice of the entries before the
    last nonzero position) already bounds the walk by ``_SUM_CEILING``,
    the walk's vectors are counted exactly over the same rows, from
    ``end`` back to 0.  The count of row ``(i, s)`` is the sum of the
    counts of rows ``(i + 1, s')`` for ``s'`` from ``max(s, W_i)`` to
    ``min(s + cap, D)``, one difference of running sums, and the count of
    row ``(0, 0)`` is the output's length.  A walk of more than
    ``_SUM_CEILING`` vectors is refused the same way."""
    bounds = list(accumulate(w))
    degree = bounds[-1]
    end = bisect_left(bounds, degree) + 1
    widest = max(min(degree, cap * i) - (bounds[i - 1] if i else 0) + 1 for i in range(end))
    if widest > _SUM_CEILING:
        raise ResourceLimitError(
            f"the Borel walk needs {widest} prefix sums at one position, so at least "
            f"{widest} generators, above the ceiling of {_SUM_CEILING}"
        )
    if (cap + 1) ** (end - 1) > _SUM_CEILING:
        counts, low = [1], degree  # the rows at ``end``, from the sum ``low`` up
        for i in range(end - 1, -1, -1):
            acc = [0, *accumulate(counts)]
            floor = bounds[i - 1] if i else 0
            counts = [
                acc[(s + cap if s + cap < degree else degree) - low + 1]
                - acc[s - low if s > low else 0]
                for s in range(floor, min(degree, cap * i) + 1)
            ]
            low = floor
        if counts[0] > _SUM_CEILING:
            raise ResourceLimitError(
                f"the Borel walk would build {counts[0]} generators, above the ceiling "
                f"of {_SUM_CEILING}"
            )
    return bounds, degree, end


def _dominating_vectors(w: tuple[int, ...], cap: int) -> _Minimal:
    """The cap closure of ``w``, whose entries must not exceed ``cap``, in
    decreasing lex order, from the two halves of the module docstring
    joined once at ``mid``, neither of which builds a level as large as
    the output: each vector once and all of one degree, so a minimal list.
    :func:`_walk_plan` refuses a walk too large to build."""
    bounds, degree, end = _walk_plan(w, cap)
    mid = end // 2
    tails = {degree: [(0,) * (len(w) - end)]}
    for i in range(end - 1, mid - 1, -1):
        floor = bounds[i - 1] if i else 0
        tails = {
            s: [
                (e,) + t
                for e in range(min(cap, degree - s), max(0, bounds[i] - s) - 1, -1)
                for t in tails[s + e]
            ]
            for s in range(floor, min(degree, cap * i) + 1)
        }
    heads = [((), 0)]
    for i in range(mid):
        heads = [
            (p + (e,), s + e)
            for p, s in heads
            for e in range(min(cap, degree - s), max(0, bounds[i] - s) - 1, -1)
        ]
    return _Minimal([p + t for p, s in heads for t in tails[s]])


def borel_closure(w: Monomial, cap: int) -> MonomialIdeal:
    """Smallest cap-strongly stable generator set containing ``w``, each
    generator emitted once by the prefix-dominance walk."""
    if cap < 1:
        raise ValueError("cap must be positive")
    if _over_cap(w.vector, cap):
        raise ValueError(f"exponent above cap {cap} in {w}")
    return MonomialIdeal(w.ground, _dominating_vectors(w.vector, cap))


def expand_squarefree(u: SquarefreeMonomial) -> MonomialIdeal:
    """The minimal generators of the squarefree strongly stable ideal with
    Borel generator ``u = x_{i_1} ... x_{i_d}``, its cap-1 closure: every
    ``x_{j_1} ... x_{j_d}`` with ``j_1 < ... < j_d`` in the ground set and
    ``j_t <= i_t`` for every ``t``."""
    return MonomialIdeal(u.ground, _dominating_vectors(u.power_vector(1), 1))


def is_power_generator(w: Monomial, u: SquarefreeMonomial, k: int) -> bool:
    """Whether ``w`` (degree ``k*deg u``, exponents at most ``k``) generates
    the k-th power: the bound :func:`power_generators` walks by, every
    prefix sum of ``w`` at least the matching prefix sum of ``u^k``."""
    _same_ground(u.ground, w.ground, "mismatched ground sets")
    if w.degree != k * u.degree:
        raise ValueError(f"degree {w.degree} != {k}*{u.degree}")
    if _over_cap(w.vector, k):
        raise ValueError(f"exponent above cap {k} in {w}")
    return all(map(ge, accumulate(w.vector), accumulate(u.power_vector(k))))


def power_generators(u: SquarefreeMonomial, k: int) -> MonomialIdeal:
    """Minimal generators of the k-th power of the expansion of ``u``: the
    cap-``k`` closure of ``u^k``, which the tests compare with
    ``ideal_power(expand_squarefree(u), k)``."""
    if k < 1:
        raise ValueError("power must be at least 1")
    return MonomialIdeal(u.ground, _dominating_vectors(u.power_vector(k), k))


def extract_borel_generator(J: MonomialIdeal, cap: int) -> Monomial:
    """The Borel generator of a principal cap-strongly stable ideal.

    The candidate is the lex-minimal generator; it is accepted only when
    its closure reproduces the generating set exactly.  Raises
    :class:`NotPrincipalError` otherwise, and ``ValueError`` when the
    generators do not share a degree.
    """
    if J.is_zero or J.is_unit:
        raise ValueError("zero and unit ideals have no Borel generator")
    degrees = {sum(g) for g in J.vectors}
    if len(degrees) > 1:
        raise ValueError(f"generators in mixed degrees {sorted(degrees)}")
    candidate = Monomial(J.ground, J.vectors[-1])
    if _over_cap(candidate.vector, cap):
        raise NotPrincipalError(f"exponent above cap {cap}")
    if borel_closure(candidate, cap) != J:
        raise NotPrincipalError(f"closure of {candidate} does not generate the ideal")
    return candidate
