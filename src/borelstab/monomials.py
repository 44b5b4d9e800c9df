"""Exact monomial and monomial-ideal arithmetic over ordered ground sets.

Everything here is plain integer combinatorics on exponent vectors: no
coefficient field, no polynomials, no Groebner machinery.  Variable labels
are positive integers carried by a :class:`GroundSet`, so localized ideals
can keep their original labels (e.g. live on the variables ``{2, 3, 4, 5}``)
without renumbering.

:class:`Monomial` is a boundary type: the package builds one only where
a monomial crosses into or out of it.  In, :func:`parse_monomial` reads
the CLI's ``--u``; out, a few public functions hand a caller a
``Monomial`` (``SquarefreeMonomial.power``, the ``generators`` view of an
ideal, the oracle's witnesses, the depth-zero witness and the recognized
Borel generator).  Its entries are non-negative ``int`` values.  Text and
JSON are written from exponent vectors, by :func:`vector_to_str` and
:func:`~borelstab.jsonio.vector_to_obj`.  Ideal arithmetic never
multiplies or divides ``Monomial`` values: every kernel reads and builds
the exponent vectors of a :class:`MonomialIdeal`, whose ``in`` is the
membership test.  An ideal has two doors: a :class:`_Minimal` list,
built by the package, is taken as it is, and any other list is checked
one generator at a time by ``Monomial``'s own rule.

``Monomial.exponent_vector`` and ``MonomialIdeal.generator_vectors`` have
no caller in the package; they stay because the benchmark under ``bench/``
reads them.  :func:`minimalize`, :func:`colon` and :func:`saturate` stay
for the same reason (the benchmark traces them), and the tests use them
as referees.

All types are immutable and all operations are pure functions.  The
package's value classes are built by one decorator here, :func:`_value`,
not by ``dataclasses``: importing ``dataclasses`` (which loads
``inspect``) and building 13 classes with it cost each CLI process about
25 ms of start-up, half of the package's own.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import cached_property
from operator import add, le


class GroundSetMismatch(ValueError):
    """Raised when an operation mixes monomials over different ground sets."""


class ResourceLimitError(RuntimeError):
    """The ideal is too large for the configured brute-force budget."""


class CrossValidationError(AssertionError):
    """A closed-form result disagreed with the oracle; carries a reproducer."""


_VALUE_METHODS = """\
def __init__(self, {fields}):
{store}{post}
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({mine}) == ({theirs})
    return NotImplemented
def __hash__(self):
    return hash(({mine}))
def __repr__(self):
    return f"{{self.__class__.__qualname__}}({shown})"
"""


def _refuse(self, name, *value):
    raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")


def _value(cls):
    """Make ``cls`` an immutable value class over its annotated fields.

    It gets what the package used of ``@dataclass(frozen=True)`` and no
    more: an ``__init__`` taking the fields by position or keyword, then
    running ``__post_init__`` if defined; ``==`` between instances of the
    same class and ``hash``, both on the field tuple; a field repr; and
    ``AttributeError`` on assignment or deletion.  As in ``dataclasses``,
    the methods are compiled once per class from its fields, and the
    fields are stored with ``object.__setattr__``, which keeps attribute
    reads on the fast path.  Instances keep a ``__dict__``, so a
    ``cached_property`` still works.
    """
    names = list(cls.__annotations__)
    mine = "".join(f"self.{f}, " for f in names)
    source = _VALUE_METHODS.format(
        fields=", ".join(names),
        store="".join(f"    _set(self, {f!r}, {f})\n" for f in names),
        post="    self.__post_init__()\n" if hasattr(cls, "__post_init__") else "",
        mine=mine,
        theirs=mine.replace("self.", "other."),
        shown=", ".join(f"{f}={{self.{f}!r}}" for f in names),
    )
    namespace: dict = {}
    exec(source, {"_set": object.__setattr__}, namespace)
    for name, method in namespace.items():
        setattr(cls, name, method)
    cls.__setattr__ = cls.__delattr__ = _refuse
    return cls


def _check_labels(labels) -> None:
    """Refuse a label that is not an ``int``: ``1.0`` and ``True`` equal
    one but print as another, and ``"1"`` cannot be compared with one."""
    for i in labels:
        if type(i) is not int:
            raise ValueError(f"variable label {i!r} is not an int")


def _same_ground(ground, other, message: str) -> None:
    """Refuse to mix values over two ground sets: the package's one check,
    which raises :class:`GroundSetMismatch` with ``message``, formatted
    with the two ground sets."""
    if ground != other:
        raise GroundSetMismatch(message.format(ground, other))


@_value
class GroundSet:
    """A finite, strictly increasing, non-empty set of variable labels."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(self.indices)
        object.__setattr__(self, "indices", idx)
        if not idx:
            raise ValueError("ground set must be non-empty")
        _check_labels(idx)
        if min(idx) < 1:
            raise ValueError(f"variable labels must be positive integers: {idx}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"variable labels must be strictly increasing: {idx}")

    @classmethod
    def contiguous(cls, n: int) -> GroundSet:
        if n < 1:
            raise ValueError("need at least one variable")
        return cls(tuple(range(1, n + 1)))

    @property
    def is_contiguous(self) -> bool:
        return self.indices == tuple(range(1, len(self.indices) + 1))

    def __iter__(self):
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, label: int) -> bool:
        pos = bisect_left(self.indices, label)
        return pos < len(self.indices) and self.indices[pos] == label

    def position(self, label: int) -> int:
        """0-based position of a label within the ground set."""
        pos = bisect_left(self.indices, label)
        if pos == len(self.indices) or self.indices[pos] != label:
            raise ValueError(f"label {label} not in ground set {self.indices}")
        return pos

    def __str__(self) -> str:
        if self.is_contiguous:
            return f"n={len(self.indices)}"
        return "vars=" + ",".join(str(i) for i in self.indices)


def _checked_vector(ground: GroundSet, vec) -> tuple[int, ...]:
    vec = tuple(vec)
    if len(vec) != len(ground.indices):
        raise ValueError(f"{vec} does not match the ground set {ground.indices}")
    for e in vec:
        if type(e) is not int:
            raise ValueError(f"exponent {e!r} is not an int")
    if min(vec) < 0:
        raise ValueError(f"negative exponent in {vec}")
    return vec


@_value
class Monomial:
    """A monomial, stored as its exponent vector aligned with the ground set.

    The positional constructor takes that vector; its length must be the
    size of the ground set and its entries non-negative ``int`` values.
    The unit monomial is the zero vector.  Exponents are arbitrary-size
    Python integers, so overflow cannot occur at any scale.
    """

    ground: GroundSet
    vector: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vector", _checked_vector(self.ground, self.vector))

    @classmethod
    def make(cls, ground: GroundSet, exponents=None) -> Monomial:
        """Build from a ``{label: exponent}`` mapping (empty/None = unit)."""
        exponents = exponents or {}
        for i, e in exponents.items():
            if e and i not in ground:
                raise ValueError(f"x_{i} not in ground set {ground.indices}")
        return cls(ground, tuple(exponents.get(i, 0) for i in ground.indices))

    @classmethod
    def unit(cls, ground: GroundSet) -> Monomial:
        return cls(ground, (0,) * len(ground))

    @property
    def exps(self) -> tuple[tuple[int, int], ...]:
        """The nonzero exponents as sorted ``(label, exponent)`` pairs."""
        return tuple((i, e) for i, e in zip(self.ground.indices, self.vector) if e)

    def exponent_vector(self) -> tuple[int, ...]:
        """Exponents aligned with the ground set order."""
        return self.vector

    @property
    def degree(self) -> int:
        return sum(self.vector)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, e in zip(self.ground.indices, self.vector) if e)

    @property
    def is_unit(self) -> bool:
        return not any(self.vector)

    @property
    def is_squarefree(self) -> bool:
        return max(self.vector) <= 1

    def __str__(self) -> str:
        return vector_to_str(self.ground.indices, self.vector)


@_value
class SquarefreeMonomial:
    """A squarefree monomial, identified with its support ``i_1 < ... < i_d``
    of ``int`` labels of the ground set, and printed from the support alone."""

    ground: GroundSet
    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(self.indices)
        object.__setattr__(self, "indices", idx)
        if not idx:
            raise ValueError("squarefree monomial needs at least one variable")
        _check_labels(idx)
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"support must be strictly increasing: {idx}")
        for i in idx:
            if i not in self.ground:
                raise ValueError(f"x_{i} not in ground set {self.ground.indices}")

    @property
    def degree(self) -> int:
        return len(self.indices)

    @property
    def min_index(self) -> int:
        return self.indices[0]

    @property
    def max_index(self) -> int:
        return self.indices[-1]

    def power_vector(self, k: int) -> tuple[int, ...]:
        """The exponent vector of ``u^k``: ``k`` on the support, 0 elsewhere."""
        support = set(self.indices)
        return tuple(k if i in support else 0 for i in self.ground.indices)

    def power(self, k: int) -> Monomial:
        return Monomial(self.ground, self.power_vector(k))

    def __str__(self) -> str:
        return "".join(f"x_{i}" for i in self.indices)


@_value
class MonomialIdeal:
    """A monomial ideal, stored as the exponent vectors of its minimal generators.

    ``vectors`` is kept in decreasing lex order and is what every kernel
    reads; ``generators`` is a read-only :class:`Monomial` view for
    callers, built on first use, which nothing in the package reads.  The
    constructor takes each generator as a ``Monomial`` over ``ground`` or
    as a vector that ``Monomial`` would accept: the right length and
    non-negative ``int`` entries.
    The zero ideal has no generators, the unit ideal the zero vector.

    ``vectors`` is minimal and in decreasing lex order whichever door of
    :func:`_ideal_vectors` the list came in by.  A caller's list is checked
    generator by generator and must already be minimal: a repeated
    generator, or one another divides, is rejected.  The package's
    kernels hand in a :class:`_Minimal` list, which is taken as it is.

    Plain tuple order on the vectors is lex order with x_1 > x_2 > ...:
    the first position where two vectors differ decides, the larger
    exponent first.
    """

    ground: GroundSet
    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "vectors", _ideal_vectors(self.ground, self.vectors))

    @cached_property
    def generators(self) -> tuple[Monomial, ...]:
        return tuple(Monomial(self.ground, v) for v in self.vectors)

    @property
    def is_zero(self) -> bool:
        return not self.vectors

    @property
    def is_unit(self) -> bool:
        return len(self.vectors) == 1 and not any(self.vectors[0])

    def __contains__(self, w: Monomial) -> bool:
        _same_ground(self.ground, w.ground, "ground sets differ: {} vs {}")
        return any(all(map(le, g, w.vector)) for g in self.vectors)

    def __len__(self) -> int:
        return len(self.vectors)

    def generator_vectors(self) -> list[tuple[int, ...]]:
        return list(self.vectors)

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        labels = self.ground.indices
        return "(" + ", ".join(vector_to_str(labels, v) for v in self.vectors) + ")"


class _Minimal(list):
    """Distinct exponent vectors, none coordinatewise below another, in
    decreasing lex order.  Only the one minimality rule,
    :func:`_minimal_vectors`, and the Borel walk, minimal by its proof,
    build one."""


def _ideal_vectors(ground: GroundSet, gens) -> tuple[tuple[int, ...], ...]:
    """The vectors of a :class:`MonomialIdeal`, through one of two doors.
    A :class:`_Minimal` list is taken as it is.  Any other list is a
    caller's: each generator, in order, is checked by ``Monomial``'s rule
    (a ``Monomial`` by its ground set, a vector by
    :func:`_checked_vector`), so the first bad one names the error, and
    the list is refused if the minimality pass drops a generator.
    """
    if isinstance(gens, _Minimal):
        return tuple(gens)
    vecs = []
    for g in gens:
        if type(g) is not Monomial:
            vecs.append(_checked_vector(ground, g))
        else:
            _same_ground(ground, g.ground, "generator over a different ground set")
            vecs.append(g.vector)
    kept = _minimal_vectors(vecs)
    redundant = len(vecs) - len(kept)
    if redundant:
        raise ValueError(
            f"non-minimal generating set: {redundant} of {len(vecs)} generators redundant"
        )
    return tuple(kept)


def _minimal_vectors(vecs) -> _Minimal:
    """The distinct vectors of ``vecs`` with no other one coordinatewise
    below them, in decreasing lex order: the package's one minimality rule,
    run on a caller's list and on any kernel's vectors but the walk's.

    Only a vector of strictly lower degree can lie below a different one.
    So vectors that share one degree, such as any power of an expansion,
    are all minimal and cost a set plus one sort; otherwise each degree
    group is compared only with the lower-degree vectors kept.
    """
    distinct = set(vecs)
    ordered = _Minimal(vecs if len(distinct) == len(vecs) else distinct)
    ordered.sort(reverse=True)
    if len(set(map(sum, ordered))) <= 1:
        return ordered
    kept = _Minimal()
    for _, group in itertools.groupby(sorted(ordered, key=sum), key=sum):
        kept.extend([v for v in group if not any(all(map(le, k, v)) for k in kept)])
    kept.sort(reverse=True)
    return kept


def minimalize(gens, ground: GroundSet | None = None) -> MonomialIdeal:
    """The ideal generated by ``gens``, reduced to minimal generators.

    Idempotent and independent of input order.  An empty input yields the
    zero ideal, in which case ``ground`` must be supplied.
    """
    gens = list(gens)
    if ground is None:
        if not gens:
            raise ValueError("empty generating set needs an explicit ground set")
        ground = gens[0].ground
    for g in gens:
        _same_ground(ground, g.ground, "generators over different ground sets")
    return MonomialIdeal(ground, _minimal_vectors([g.vector for g in gens]))


def colon(J: MonomialIdeal, w: Monomial) -> MonomialIdeal:
    """The colon ideal J : (w), computed generatorwise as g / gcd(g, w)."""
    _same_ground(J.ground, w.ground, "colon divisor over a different ground set")
    cut = [tuple(max(x - e, 0) for x, e in zip(g, w.vector)) for g in J.vectors]
    return MonomialIdeal(J.ground, _minimal_vectors(cut))


def saturate(J: MonomialIdeal, w: Monomial) -> MonomialIdeal:
    """The saturation J : (w)^infinity, i.e. ``J : w^e`` for ``e`` large.

    It is generated by the generators of ``J`` with the exponents on the
    support of ``w`` set to zero; those images can differ in degree, so
    they are minimalized once.
    """
    _same_ground(J.ground, w.ground, "saturating monomial over a different ground set")
    cut = [tuple(0 if e else x for x, e in zip(g, w.vector)) for g in J.vectors]
    return MonomialIdeal(J.ground, _minimal_vectors(cut))


def _powers(vectors, kmax: int) -> list:
    """``[J, J^2, ..., J^kmax]`` as lists of exponent vectors, from the
    minimal generator vectors of ``J``, which are kept as the first entry.

    ``J^k`` is the minimal sums ``a + b`` of a vector ``a`` of ``J^(k-1)``
    and a vector ``b`` of ``J``: one product step from the power before and
    one :func:`_minimal_vectors` pass, so every list is minimal and in
    decreasing lex order.  No :class:`MonomialIdeal` is built: the oracle
    reads the lists, and :func:`ideal_power` wraps the last one."""
    if kmax < 1:
        raise ValueError("power must be at least 1")
    chain = [vectors]
    for _ in range(kmax - 1):
        chain.append(_minimal_vectors({tuple(map(add, a, b)) for a in chain[-1] for b in vectors}))
    return chain


def ideal_power(J: MonomialIdeal, k: int) -> MonomialIdeal:
    """Minimal generators of J^k: the last list :func:`_powers` builds from
    ``J.vectors``, in a :class:`MonomialIdeal` over the ground set of ``J``
    (``J`` itself when ``k = 1``), so ``k - 1`` minimality passes."""
    return J if k == 1 else MonomialIdeal(J.ground, _powers(J.vectors, k)[-1])


# --- text format ----------------------------------------------------------
#
# Monomials are written as comma-separated ``index^exponent`` pairs with the
# exponent omitted when it is 1, e.g. ``1^2,3,5^4`` for x_1^2 x_3 x_5^4.
# Squarefree monomials may be bare index lists such as ``1,3,4,5``.  The unit
# monomial is the empty string.  Output is the product form, written from
# an exponent vector over its ground labels, e.g. ``x_1^2x_3x_5^4``, and
# ``1`` for the unit monomial.


def vector_to_str(labels, vector) -> str:
    """The product form of ``vector`` over the ground ``labels``, ``1`` for
    the zero vector: the text counterpart of
    :func:`~borelstab.jsonio.vector_to_obj`."""
    terms = (f"x_{i}^{e}" if e > 1 else f"x_{i}" for i, e in zip(labels, vector) if e)
    return "".join(terms) or "1"


def parse_monomial(text: str, ground: GroundSet) -> Monomial:
    text = text.strip()
    if not text:
        return Monomial.unit(ground)
    exps: dict[int, int] = {}
    for part in text.split(","):
        part = part.strip()
        try:
            if "^" in part:
                idx, exp = part.split("^", 1)
                i, e = int(idx), int(exp)
            else:
                i, e = int(part), 1
        except ValueError:
            raise ValueError(f"malformed monomial term {part!r}") from None
        if e < 1:
            raise ValueError(f"exponent must be positive in {part!r}")
        exps[i] = exps.get(i, 0) + e
    return Monomial.make(ground, exps)


def parse_squarefree(text: str, ground: GroundSet) -> SquarefreeMonomial:
    w = parse_monomial(text, ground)
    if w.is_unit or not w.is_squarefree:
        raise ValueError(f"{text!r} is not a non-unit squarefree monomial")
    return SquarefreeMonomial(ground, w.support)

