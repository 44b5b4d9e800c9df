"""Monomial localization of squarefree principal Borel ideals.

Localizing at the prime ``P_A = (x_i : i not in A)`` makes the variables
in ``A`` invertible, so the localized ideal lives on the complement of
``A`` (with its original labels) and equals the saturation of the ideal
by the product of the ``A``-variables.

For a squarefree principal Borel ideal the localization is again one, and
its generator ``u_A`` is obtained in closed form: each ``k`` in ``A``
removes from the current generator the smallest support index that is at
least ``k`` (and does nothing when ``k`` exceeds the current maximum).
``u_A`` is a :class:`SquarefreeMonomial` over the complement of ``A``, so
every function on generators applies to it unchanged; when every support
index is struck the localization is the whole ring and ``u_A`` is None.
The closed form and the saturation route are kept separate so that each
can check the other.
"""

from __future__ import annotations

from bisect import bisect_left

from .borel import expand_squarefree
from .monomials import GroundSet, MonomialIdeal, SquarefreeMonomial, _Unreduced, _value


@_value
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


def _strike_once(indices: tuple[int, ...], k: int) -> tuple[int, ...]:
    """One single-variable step: drop the smallest support index >= k."""
    if not indices or k > indices[-1]:
        return indices
    j = bisect_left(indices, k)
    return indices[:j] + indices[j + 1 :]


def localize_closed_form(u: SquarefreeMonomial, A: VariableSubset) -> SquarefreeMonomial | None:
    """The Borel generator ``u_A`` of the localization at ``P_A``, over the
    complement of ``A``; None when every support index is struck and the
    localization is the whole ring (always so when ``A`` is everything).

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
    return SquarefreeMonomial(GroundSet(A.complement), current) if current else None


def localize_by_saturation(J: MonomialIdeal, A: VariableSubset) -> MonomialIdeal:
    """Localization of any monomial ideal at ``P_A``, via saturation.

    The saturation of ``J`` by the product of the ``A``-variables is
    generated by the generators of ``J`` with their ``A``-exponents set
    to zero, so re-housing it on the complement ground set is the
    projection of each generator onto the complement positions.  The
    projections can divide one another, so the ideal's one minimality
    pass drops the redundant ones.
    """
    if A.ambient != J.ground:
        raise ValueError("subset over a different ground set")
    if not A.members:
        return J
    if A.is_everything:
        raise ValueError("localizing at every variable leaves no ambient ring")
    return MonomialIdeal(J.ground.without(A.members), _Unreduced(_projected(J, A)))


def _projected(J: MonomialIdeal, A: VariableSubset) -> list[tuple[int, ...]]:
    """The generator vectors of ``J`` projected onto the positions off ``A``,
    unreduced: the one projection of the saturation route."""
    kept = [J.ground.position(i) for i in A.complement]
    return [tuple(map(g.__getitem__, kept)) for g in J.vectors]


def localized_expansion(u: SquarefreeMonomial, A: VariableSubset) -> MonomialIdeal | None:
    """Expansion of ``u_A`` over the complement, or None for the unit ideal."""
    local = localize_closed_form(u, A)
    return None if local is None else expand_squarefree(local)


__all__ = [
    "VariableSubset",
    "localize_by_saturation",
    "localize_closed_form",
    "localized_expansion",
    "parse_subset",
]
