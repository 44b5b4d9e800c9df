"""Monomial localization of squarefree principal Borel ideals.

Localizing at the prime ``P_A = (x_i : i not in A)`` makes the variables
in ``A`` invertible, so the localized ideal lives on the complement of
``A`` (with its original labels) and equals the saturation of the ideal
by the product of the ``A``-variables.

For a squarefree principal Borel ideal the localization is again one, and
its generator ``u_A`` is obtained in closed form: each ``k`` in ``A``
removes from the current generator the smallest support index that is at
least ``k`` (and does nothing when ``k`` exceeds the current maximum).
The closed form and the saturation route are kept separate so that each
can check the other.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .borel import expand_squarefree
from .monomials import (
    GroundSet,
    Monomial,
    MonomialIdeal,
    SquarefreeMonomial,
    saturate,
)


@dataclass(frozen=True)
class VariableSubset:
    """A subset ``A`` of the ambient ground set (possibly empty).

    The complement of ``A`` is both the ground set of the localized ideal
    and the generator-label set of the prime ``P_A``.
    """

    ambient: GroundSet
    members: tuple[int, ...]

    def __post_init__(self):
        mem = tuple(sorted(set(self.members)))
        object.__setattr__(self, "members", mem)
        for i in mem:
            if i not in self.ambient:
                raise ValueError(f"{i} not in ambient ground set {self.ambient.indices}")

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def complement(self) -> tuple[int, ...]:
        gone = set(self.members)
        return tuple(i for i in self.ambient.indices if i not in gone)

    @property
    def is_everything(self) -> bool:
        return len(self.members) == len(self.ambient)

    def product(self) -> Monomial:
        members = set(self.members)
        return Monomial(self.ambient, tuple(int(i in members) for i in self.ambient))

    def __str__(self) -> str:
        return "A=" + ",".join(str(i) for i in self.members)


def parse_subset(text: str, ambient: GroundSet) -> VariableSubset:
    """Parse ``A=1,5`` (or a bare ``1,5``); empty text is the empty subset."""
    text = text.strip()
    if text.startswith("A="):
        text = text[2:]
    if not text:
        return VariableSubset(ambient, ())
    try:
        members = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"malformed subset {text!r}") from None
    return VariableSubset(ambient, members)


@dataclass(frozen=True)
class LocalizedGenerator:
    """Result of localizing a squarefree Borel generator.

    ``indices`` is the support of ``u_A`` in original labels and
    ``ground`` the complement of ``A``.  When every variable of the
    generator got absorbed the localized ideal is the whole ring; that
    degenerate case is flagged explicitly by :attr:`is_unit_ideal` (then
    ``indices`` is empty, and ``ground`` may be empty too when ``A`` was
    the full ambient set).
    """

    indices: tuple[int, ...]
    ground: tuple[int, ...]

    @property
    def is_unit_ideal(self) -> bool:
        return not self.indices

    @property
    def degree(self) -> int:
        return len(self.indices)

    def as_squarefree(self) -> SquarefreeMonomial:
        if self.is_unit_ideal:
            raise ValueError("localized ideal is the whole ring")
        return SquarefreeMonomial(GroundSet(self.ground), self.indices)


def _strike_once(indices: tuple[int, ...], k: int) -> tuple[int, ...]:
    """One single-variable step: drop the smallest support index >= k."""
    if not indices or k > indices[-1]:
        return indices
    j = bisect_left(indices, k)
    return indices[:j] + indices[j + 1 :]


def localize_closed_form(u: SquarefreeMonomial, A: VariableSubset) -> LocalizedGenerator:
    """The Borel generator ``u_A`` of the localization at ``P_A``.

    Steps are applied in increasing order of ``A``; the result does not
    depend on that order (asserted in the tests, not assumed).  Each
    firing step lowers the degree by exactly one.
    """
    if A.ambient != u.ground:
        raise ValueError("subset over a different ground set")
    current = u.indices
    for k in A.members:
        fires = bool(current) and k <= current[-1]
        before = len(current)
        current = _strike_once(current, k)
        if len(current) != (before - 1 if fires else before):
            raise AssertionError(f"striking {k} from {u} changed the degree wrongly")
    return LocalizedGenerator(current, A.complement)


def localize_by_saturation(J: MonomialIdeal, A: VariableSubset) -> MonomialIdeal:
    """Localization of any monomial ideal at ``P_A``, via saturation.

    Saturates ``J`` by the product of the ``A``-variables and re-houses
    the result on the complement ground set.  No saturated generator may
    involve an ``A``-variable; a violation signals an implementation bug.
    """
    if A.ambient != J.ground:
        raise ValueError("subset over a different ground set")
    if not A.members:
        return J
    if A.is_everything:
        raise ValueError("localizing at every variable leaves no ambient ring")
    sat = saturate(J, A.product())
    new_ground = J.ground.without(A.members)
    kept = [J.ground.position(i) for i in new_ground]
    vecs = [tuple(g[pos] for pos in kept) for g in sat.vectors]
    if sum(map(sum, vecs)) != sum(map(sum, sat.vectors)):
        raise AssertionError(f"a saturated generator of {sat} still involves {A}")
    return MonomialIdeal(new_ground, vecs)


def localized_expansion(u: SquarefreeMonomial, A: VariableSubset) -> MonomialIdeal | None:
    """Expansion of ``u_A`` over the complement, or None for the unit ideal."""
    local = localize_closed_form(u, A)
    if local.is_unit_ideal:
        return None
    return expand_squarefree(local.as_squarefree())


def compose_localizations_check(
    u: SquarefreeMonomial, A: VariableSubset, B: VariableSubset
) -> bool:
    """Localizing at ``A`` and then at ``B \\ A`` must equal localizing at ``B``.

    Requires ``A`` to be contained in ``B``.  Both the closed form and the
    saturation route are compared.
    """
    if not set(A.members) <= set(B.members):
        raise ValueError(f"{A} is not contained in {B}")
    via_b = localize_closed_form(u, B)

    first = localize_closed_form(u, A)
    rest = tuple(i for i in B.members if i not in set(A.members))
    if first.is_unit_ideal:
        closed_ok = via_b.is_unit_ideal
    else:
        step_ground = GroundSet(first.ground)
        second = localize_closed_form(
            first.as_squarefree(), VariableSubset(step_ground, rest)
        )
        closed_ok = (second.indices, second.ground) == (via_b.indices, via_b.ground)
    if not closed_ok:
        return False

    if B.is_everything:
        return True
    J = expand_squarefree(u)
    direct = localize_by_saturation(J, B)
    staged = localize_by_saturation(J, A)
    staged = localize_by_saturation(staged, VariableSubset(staged.ground, rest))
    return staged == direct


__all__ = [
    "LocalizedGenerator",
    "VariableSubset",
    "compose_localizations_check",
    "localize_by_saturation",
    "localize_closed_form",
    "localized_expansion",
    "parse_subset",
]
