"""Monomial localization of squarefree principal Borel ideals.

Localizing at the prime ``P_A = (x_i : i not in A)`` makes the variables
in ``A`` invertible, so the localized ideal lives on the complement of
``A`` (with its original labels), which :class:`VariableSubset` computes
once, and equals the saturation by the product of the ``A``-variables.

For a squarefree principal Borel ideal the localization is again one, and
its generator ``u_A`` is obtained in closed form: each ``k`` in ``A``
removes from the current generator the smallest support index that is at
least ``k`` (and does nothing when ``k`` exceeds the current maximum), so
each firing step lowers the degree by one; the tests check that and the
order independence of the steps.  ``u_A`` is a :class:`SquarefreeMonomial`
over the complement of ``A``, so every function on generators applies to
it unchanged; when every support index is struck the localization is the
whole ring and ``u_A`` is None.  The closed form and the saturation route
are kept separate so that each can check the other; the latter projects
the generators onto the labels of ``P_A`` (:func:`_projected`), as the
oracle's memo key does.  :func:`localized_expansion` has no caller in the
package; it stays because the benchmark under ``bench/`` calls it, and it
imports ``borel`` itself so that the closed-form verbs do not load it.
"""

from __future__ import annotations

from bisect import bisect_left

from .monomials import GroundSet, MonomialIdeal, SquarefreeMonomial, _minimal_vectors, _value
from .monomials import _check_labels, _same_ground


@_value
class VariableSubset:
    """A subset ``A`` of the ambient ground set (possibly empty), its
    ``members`` sorted without repeats.

    ``complement``, the ground set of the localized ideal and the label set
    of the prime ``P_A``, is computed once here; it is not a field, so
    ``==``, ``hash`` and ``repr`` read ``ambient`` and ``members`` only.
    """

    ambient: GroundSet
    members: tuple[int, ...]

    def __post_init__(self):
        _check_labels(self.members)
        gone = set(self.members)
        members = tuple(sorted(gone))
        labels = self.ambient.indices
        complement = tuple(i for i in labels if i not in gone)
        if len(complement) + len(members) != len(labels):
            bad = next(i for i in members if i not in self.ambient)
            raise ValueError(f"{bad} not in ambient ground set {labels}")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "complement", complement)


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


def localize_closed_form(u: SquarefreeMonomial, A: VariableSubset) -> SquarefreeMonomial | None:
    """The Borel generator ``u_A`` of the localization at ``P_A``, over the
    complement of ``A``; None when every support index is struck and the
    localization is the whole ring (always so when ``A`` is everything).

    Steps are applied in increasing order of ``A``, each a deletion from a
    list; the tests check that the order does not matter and that a firing
    step lowers the degree by one.  Once a step does not fire no later one
    does: later members of ``A`` are larger and the maximum only falls.
    """
    _same_ground(u.ground, A.ambient, "subset over a different ground set")
    current = list(u.indices)
    for k in A.members:
        if not current or k > current[-1]:
            break
        del current[bisect_left(current, k)]
    return SquarefreeMonomial(GroundSet(A.complement), tuple(current)) if current else None


def localize_by_saturation(J: MonomialIdeal, A: VariableSubset) -> MonomialIdeal:
    """Localization of any monomial ideal at ``P_A``, via saturation.

    The saturation of ``J`` by the product of the ``A``-variables is
    generated by the generators of ``J`` with their ``A``-exponents set
    to zero, so re-housing it on the complement ground set is the
    projection of each generator onto the complement positions.  The
    projections can divide one another, so one minimality pass drops
    the redundant ones.  An empty ``A`` gives an ideal equal to ``J``.
    """
    _same_ground(J.ground, A.ambient, "subset over a different ground set")
    kept = A.complement
    if not kept:
        raise ValueError("localizing at every variable leaves no ambient ring")
    positions = [J.ground.position(i) for i in kept]
    return MonomialIdeal(GroundSet(kept), _minimal_vectors(_projected(J.vectors, positions)))


def _projected(vectors, positions) -> list[tuple[int, ...]]:
    """The generator ``vectors`` projected onto ``positions``, those of the
    labels of the complement of ``A`` (the prime ``P_A``), unreduced: the
    one projection of the saturation route."""
    return [tuple(map(g.__getitem__, positions)) for g in vectors]


def localized_expansion(u: SquarefreeMonomial, A: VariableSubset) -> MonomialIdeal | None:
    """Expansion of ``u_A`` over the complement, or None for the unit ideal."""
    from .borel import expand_squarefree

    local = localize_closed_form(u, A)
    return None if local is None else expand_squarefree(local)
