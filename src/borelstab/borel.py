"""Generation and recognition of principal Borel (strongly stable) ideals.

A monomial ideal generated in one degree, with all exponents at most
``cap``, is cap-strongly stable when it is closed under every exchange
``x_i * (u / x_j)`` with ``i < j``, ``x_j | u`` and the exponent of
``x_i`` in ``u`` below the cap.  A principal Borel ideal is the smallest
such ideal containing a single generator.

The breadth-first closure is the definitional source of truth here.  The
partial-sum membership test :func:`is_power_generator` is a fast
equivalent for generators of powers of squarefree principal ideals; it is
validated exhaustively against the closure in the acceptance suite and
must not be trusted outside that validated regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le

from .monomials import (
    GroundSet,
    Monomial,
    MonomialIdeal,
    SquarefreeMonomial,
    ideal_power,
    minimalize,
)


class NotPrincipalError(ValueError):
    """The ideal is not generated by a single Borel generator."""


def expand_squarefree(u: SquarefreeMonomial) -> MonomialIdeal:
    """All squarefree monomials dominating ``u`` positionwise.

    For ``u = x_{i_1} ... x_{i_d}`` these are the ``x_{j_1} ... x_{j_d}``
    with ``j_1 < ... < j_d`` drawn from the ground set and ``j_t <= i_t``
    for every position ``t``.  The result is the minimal generating set of
    the squarefree strongly stable ideal with Borel generator ``u``; all
    generators share degree d, so it is automatically minimal.
    """
    ground = u.ground
    tops = [ground.position(i) for i in u.indices]
    gens: list[tuple[int, ...]] = []

    def extend(vec: tuple[int, ...], start: int, t: int) -> None:
        if t == len(tops):
            gens.append(vec)
            return
        for p in range(start, tops[t] + 1):
            extend(vec[:p] + (1,) + vec[p + 1 :], p + 1, t + 1)

    extend((0,) * len(ground), 0, 0)
    return MonomialIdeal(ground, gens)


def _over_cap(vec: tuple[int, ...], cap: int) -> bool:
    return any(e > cap for e in vec if e)


def borel_moves(vec: tuple[int, ...], cap: int):
    """Yield every legal exchange x_i * (vec / x_j), i < j, below the cap."""
    for j, ej in enumerate(vec):
        if ej < 1:
            continue
        for i in range(j):
            if vec[i] < cap:
                moved = list(vec)
                moved[i] += 1
                moved[j] -= 1
                yield tuple(moved)


def borel_closure(w: Monomial, cap: int) -> MonomialIdeal:
    """Smallest cap-strongly stable generator set containing ``w`` (BFS).

    The visited set is keyed on exponent vectors, so generation order does
    not influence the result.
    """
    if _over_cap(w.vector, cap):
        raise ValueError(f"exponent above cap {cap} in {w}")
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


def is_power_generator(w: Monomial, u: SquarefreeMonomial, k: int) -> bool:
    """Partial-sum membership test for w in the generators of the k-th power.

    For squarefree ``u = x_{i_1} ... x_{i_d}`` and a candidate ``w`` of
    degree ``k*d`` with exponents at most ``k``, membership in the closure
    of ``u^k`` is equivalent to the prefix bound: for every position j the
    total exponent of ``w`` on labels up to ``i_j`` is at least ``k*j``.
    Validated against :func:`borel_closure` in the acceptance suite.
    """
    if w.ground != u.ground:
        raise ValueError("mismatched ground sets")
    if w.degree != k * u.degree:
        raise ValueError(f"degree {w.degree} != {k}*{u.degree}")
    if _over_cap(w.vector, k):
        raise ValueError(f"exponent above cap {k} in {w}")
    total = 0
    pos = 0
    checkpoints = u.indices
    for label, e in zip(w.ground.indices, w.vector):
        while pos < len(checkpoints) and checkpoints[pos] < label:
            if total < k * (pos + 1):
                return False
            pos += 1
        total += e
        while pos < len(checkpoints) and checkpoints[pos] == label:
            if total < k * (pos + 1):
                return False
            pos += 1
    return pos == len(checkpoints)


def power_generators(u: SquarefreeMonomial, k: int) -> MonomialIdeal:
    """Minimal generators of the k-th power of the expansion of ``u``.

    Computed as the Borel closure of ``u^k`` with cap ``k``; this equals
    ``ideal_power(expand_squarefree(u), k)``, which the tests assert.
    """
    if k < 1:
        raise ValueError("power must be at least 1")
    return borel_closure(u.power(k), k)


def is_strongly_stable(J: MonomialIdeal, cap: int) -> bool:
    """Check the exchange property for every generator of ``J``."""
    for g in J.vectors:
        if _over_cap(g, cap):
            return False
        for moved in borel_moves(g, cap):
            if not any(all(map(le, h, moved)) for h in J.vectors):
                return False
    return True


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


@dataclass(frozen=True)
class BorelPrincipalIdeal:
    """A principal Borel ideal, held by its generator and exponent cap."""

    generator: Monomial
    cap: int

    def __post_init__(self):
        if self.cap < 1:
            raise ValueError("cap must be positive")
        if _over_cap(self.generator.vector, self.cap):
            raise ValueError("generator exponent exceeds the cap")

    @property
    def ground(self) -> GroundSet:
        return self.generator.ground

    def expansion(self) -> MonomialIdeal:
        return borel_closure(self.generator, self.cap)


__all__ = [
    "BorelPrincipalIdeal",
    "NotPrincipalError",
    "borel_closure",
    "borel_moves",
    "expand_squarefree",
    "extract_borel_generator",
    "ideal_power",
    "is_power_generator",
    "is_strongly_stable",
    "minimalize",
    "power_generators",
]
