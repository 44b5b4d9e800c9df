"""Brute-force associated primes of monomial ideals, and verification scans.

The prime-hunting core here is the independent referee for the rest of
the package: it works on raw exponent vectors, never consults the
closed-form shortcuts it is meant to check, and certifies its own output
twice over.  One sweep over the exponent box prod(b_i + 1), with ``b`` the
componentwise maximum of the generators, finds the socle cells of
``J + (x_i^{b_i+1})``.  The sweep is a bitset: the box is one integer with
one bit per cell, closed upward along each axis by whole-integer shifts;
each integer takes ``cells / 8`` bytes (1.25 MB at the default ceiling).
The sweep keeps ``inside``, the socle and one top-face mask per axis.
One depth-first split of the socle along those faces (:func:`_split`)
yields each socle prime with its part of the socle, and keeps at most
``n + 1`` parts alive; the witnesses and the m-test both read it.
Each socle cell ``w`` gives an irredundant irreducible component
(Miller-Sturmfels, *Combinatorial Commutative Algebra*, ch. 5); its
support is an associated prime and ``w`` is a colon witness for it.
Every reported prime ``P`` is certified by ``|P| + 1`` membership tests
on a column table of the generator vectors, indexed by generator and
never by box cell, so the certificate stays independent of the sweep
(proof in :func:`associated_primes`).  A failed certificate is a bug, not
a data condition, and raises immediately.

The sweep, the certificate and the m-test are private kernels that read
and return exponent vectors.  The public entry points
:func:`associated_primes`, :func:`m_in_ass` and
:func:`irreducible_decomposition` check their ideal once (neither zero
nor the unit) and hand its ``vectors`` to a kernel; only
:func:`associated_primes` wraps its witnesses as ``Monomial``.  The scans
build no ideal after the expansion of ``u``, and no monomial: the powers
and the localized powers are the vector lists of
:func:`~borelstab.monomials._powers`, and a profile holds witness
vectors.  Every list swept is minimal, since the box is read off the
generators and a redundant one can only widen it; the localized base is
therefore reduced by :func:`~borelstab.monomials._minimal_vectors` before
its powers are taken.

:func:`cross_validate` is the bridge that pits those brute-force answers
against the closed-form routes (depth, localization, stable membership).
It checks the rows of :func:`~borelstab.stability.stable_set_enumerate`,
the table ``stable-set`` prints, and walks no subsets of its own.  Each
row lists the verdicts ``P_A in Ass(I^k)`` once, and one helper,
:func:`_compare`, holds that list against each route's, counts the
comparisons and fails hard with a minimal reproducer at the first
disagreement.  Within one call the oracle runs once per distinct projection
of the generators of ``I`` onto ``P_A``, through a dict that does not
outlive the call (see :func:`cross_validate`); distinct projections may
still reduce to the same localized ideal.

Complexity is exponential by nature; the entry points refuse an ideal
whose box has more cells than a configurable ceiling (default 10^7)
instead of running unbounded.

:func:`irreducible_decomposition` has no caller in the package.  It stays
public because the benchmark under ``bench/`` traces it for its box-cell
and component counts, and the tests check the sweep through it.  Its
components are plain exponent vectors, since no production path reads them.

:func:`ass_profile`, :func:`persistence_scan` and :func:`cross_validate`
still take ``n`` as their second parameter, although it must equal
``len(u.ground)``: the benchmark under ``bench/`` passes it positionally.
Every other function reads ``n`` off the ground set of ``u``.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import and_, mul

from .borel import expand_squarefree
from .localization import _projected
from .monomials import (
    CrossValidationError,
    GroundSet,
    Monomial,
    MonomialIdeal,
    ResourceLimitError,
    SquarefreeMonomial,
    _minimal_vectors,
    _powers,
    _value,
    vector_to_str,
)
from .quotients import quotient_profile
from .stability import DEFAULT_ENUMERATION_BOUND, stable_set_enumerate

CELL_CEILING = 10_000_000


def _bounds(vectors) -> list[int]:
    """The componentwise maximum ``b`` of the generator exponent vectors."""
    return [max(column) for column in zip(*vectors)]


def _cells(bounds, ceiling: int) -> int:
    """The cells prod(b_i + 1) of the box; a box over ``ceiling`` is refused."""
    cells = math.prod(b + 1 for b in bounds)
    if cells > ceiling:
        raise ResourceLimitError(
            f"{cells} box cells exceed the ceiling {ceiling}; "
            "raise the ceiling explicitly to proceed"
        )
    return cells


def _axis_masks(s: int, b: int, cells: int) -> tuple[int, int]:
    """``(up, top)`` for the axis of stride ``s`` and bound ``b``: the cells
    with ``w_i >= 1`` and those with ``w_i = b``.  One block of ``s * (b + 1)``
    cells of each, doubled together until they cover the box, trimmed to it."""
    width = s * (b + 1)
    up, top = (1 << width) - (1 << s), (1 << width) - (1 << (s * b))
    while width < cells:
        up |= up << width
        top |= top << width
        width *= 2
    return up >> (width - cells), top >> (width - cells)


def _socle(vectors, bounds, cells: int):
    """The socle of ``J + (x_i^{b_i+1})`` as a bitset: ``(axes, socle, tops)``.

    The box prod(b_i + 1) is one integer, one bit per cell in lex order;
    ``axes`` pairs the stride ``s_i`` of each axis with ``b_i``.  The
    generator bits are closed upward ``b_i`` times per axis by
    ``inside |= (inside << s_i) & up_i``, with ``up_i`` the cells where
    ``w_i >= 1``.  A socle cell lies outside J while every step up that
    stays in the box lands in J: ``~inside & AND_i((inside >> s_i) | top_i)``,
    with ``top_i`` the cells where ``w_i = b_i``.  Each ``up_i`` lives only
    in its own step; the ``tops`` are returned for the callers to split by.
    """
    strides = [1]
    for b in reversed(bounds[1:]):
        strides.append(strides[-1] * (b + 1))
    strides.reverse()
    axes = list(zip(strides, bounds))
    bits = bytearray((cells + 7) // 8)
    for g in vectors:
        cell = sum(map(mul, g, strides))
        bits[cell >> 3] |= 1 << (cell & 7)
    inside = int.from_bytes(bits, "little")
    del bits
    tops = []
    for s, b in axes:
        up, top = _axis_masks(s, b, cells)
        for _ in range(b):
            inside |= (inside << s) & up
        tops.append(top)
    socle = ~inside
    for (s, _), top in zip(axes, tops):
        socle &= (inside >> s) | top
    return axes, socle, tops


def _decode(cell: int, axes) -> tuple[int, ...]:
    """The exponent vector of the cell with bit index ``cell``."""
    return tuple(cell // s % (b + 1) for s, b in axes)


def _socle_cells(vectors, ceiling: int):
    """``(bounds, cells)``: the socle cells as exponent vectors, in lex
    order, which is the order of their bits from the lowest up."""
    bounds = _bounds(vectors)
    axes, socle, _ = _socle(vectors, bounds, _cells(bounds, ceiling))
    cells = []
    for pos, byte in enumerate(socle.to_bytes((socle.bit_length() + 7) // 8, "little")):
        while byte:
            low = byte & -byte
            cells.append(_decode(8 * pos + low.bit_length() - 1, axes))
            byte ^= low
    return bounds, cells


def _split(socle: int, tops):
    """Yield ``(p, part)`` for each socle prime: ``p`` the positions ``i``
    where its cells have ``w_i < b_i``, ``part`` the bitset of those cells.

    The socle is split depth first along the top face of each axis that
    the sweep returned: a part is cut into its cells on the face and those
    off it, empty parts are dropped, and the part off the face is split
    first.  So at most ``n + 1`` parts are alive at once, and the first
    prime yielded is every position exactly when the maximal ideal is one.
    """
    stack = [(0, (), socle)]
    while stack:
        i, p, part = stack.pop()
        if i == len(tops):
            yield p, part
            continue
        on = part & tops[i]
        if on:
            stack.append((i + 1, p, on))
        if on != part:
            stack.append((i + 1, p + (i,), part ^ on))


def irreducible_decomposition(
    J: MonomialIdeal, ceiling: int = CELL_CEILING
) -> tuple[tuple[int, ...], ...]:
    """The irredundant irreducible components of a proper nonzero ideal,
    each as the exponent vector ``e`` of its generators ``x_i^{e_i}``
    (0 where ``x_i`` does not occur), by support size and then by the
    sorted ``(position, exponent)`` pairs of the nonzero entries.

    Each socle cell ``w`` of ``J + (x_i^{b_i+1})`` gives the component
    ``(x_i^{w_i+1} : w_i < b_i)`` (Miller-Sturmfels, ch. 5).
    """
    if J.is_zero or J.is_unit:
        raise ValueError("zero and unit ideals have no irreducible decomposition")
    bounds, cells = _socle_cells(J.vectors, ceiling)
    out = [tuple(e + 1 if e < b else 0 for e, b in zip(w, bounds)) for w in cells]
    out.sort(key=lambda e: (len(e) - e.count(0), [(i, x) for i, x in enumerate(e) if x]))
    return tuple(out)


def _columns(vectors, bounds):
    """``columns[j][t]``: the bitset over generator indices of ``{g : g_j <= t}``
    for ``t <= b_j + 1``, from one ``bytearray`` per value and cumulative ORs;
    the entry past ``b_j`` (every generator) serves a cell raised off the box."""
    size = (len(vectors) + 7) // 8
    columns = []
    for j, b in enumerate(bounds):
        rows = [bytearray(size) for _ in range(b + 2)]
        for index, g in enumerate(vectors):
            rows[g[j]][index >> 3] |= 1 << (index & 7)
        below, column = 0, []
        for row in rows:
            below |= int.from_bytes(row, "little")
            column.append(below)
        columns.append(column)
    return columns


def _colon_is_prime(columns, w, p) -> bool:
    """Whether ``J : w = (x_i : i in p)``, ``p`` as positions, by tests (a)
    and (b) of :func:`associated_primes` on the column table of ``J``.

    The entries ``columns[j][w_j]`` are read once.  Test (a) for axis ``i``
    swaps entry ``i`` for ``columns[i][w_i + 1]``, so it is the AND of
    that entry, ``prefix[i]`` (the AND of the first ``i`` entries) and
    ``suffix[n - 1 - i]`` (of the last ``n - 1 - i``).  Off ``p`` the cell
    of (b) is at ``b_j``, whose entry holds every generator, so (b) is the
    AND of the entries on ``p`` alone.
    """
    entries = [column[e] for column, e in zip(columns, w)]
    prefix = [*accumulate(entries, and_, initial=-1)]
    suffix = [*accumulate(reversed(entries), and_, initial=-1)]
    last = len(entries) - 1
    for i in p:
        if not prefix[i] & columns[i][w[i] + 1] & suffix[last - i]:
            return False
    common = -1
    for i in p:
        common &= entries[i]
    return not common


def _witnesses(ground: GroundSet, vectors, ceiling: int):
    """The kernel of :func:`associated_primes` on the generator ``vectors``
    of a proper nonzero ideal over ``ground``: ``(witnesses, maximal)``,
    each certified prime as a label tuple with its witness vector, by size
    and then lexicographically, and the m-verdict of :func:`_m_in_ass`
    read off the same split: whether its first prime is every position."""
    bounds = _bounds(vectors)
    axes, socle, tops = _socle(vectors, bounds, _cells(bounds, ceiling))
    cells = {
        p: _decode((part & -part).bit_length() - 1, axes) for p, part in _split(socle, tops)
    }
    maximal = len(next(iter(cells))) == len(bounds)
    columns = _columns(vectors, bounds)
    labels, witnesses = ground.indices, {}
    for p in sorted(cells, key=lambda p: (len(p), p)):
        prime, w = tuple(map(labels.__getitem__, p)), cells[p]
        if not _colon_is_prime(columns, w, p):
            raise AssertionError(
                f"J : {vector_to_str(labels, w)} is not {prime} for J generated by "
                f"{list(vectors)} over {ground}: the socle sweep is buggy"
            )
        witnesses[prime] = w
    return witnesses, maximal


def associated_primes(J: MonomialIdeal, ceiling: int = CELL_CEILING):
    """Associated primes of S/J, as a dict ``prime -> witness`` from sorted
    label tuples to colon witnesses, by size and then lexicographically.

    The primes ``{i : w_i < b_i}`` of the socle cells ``w``.  The witness
    of a prime ``P`` is its first cell in lex order, the lowest bit of its
    part (:func:`_split`) and the only cell of ``P`` decoded.  For ``w <= b``,
    ``J : w = P`` iff (a) ``w * x_i`` is in ``J`` for each ``x_i`` in ``P``
    and (b) the cell ``v`` equal to ``w`` on ``P`` and to ``b`` off it is
    not.  Proof: (a) is ``P <= J : w``; a monomial ``m`` off ``P`` has
    ``m * w`` in ``J`` iff some generator ``g <= m + w``, and as ``g <= b``
    such an ``m`` exists iff ``v`` is in ``J``, so (b) is ``J : w <= P``.
    A cell ``v`` is in ``J`` iff ``AND_j columns[j][v_j] != 0`` on the
    column table of the generator vectors (:func:`_columns`), and both
    tests together cost ``O(n + |P|)`` ANDs (:func:`_colon_is_prime`).
    The table is indexed by generator and never by box cell, so it shares
    nothing with the sweep that found ``w``.
    """
    if J.is_zero or J.is_unit:
        raise ValueError("associated primes need a proper nonzero ideal")
    witnesses, _ = _witnesses(J.ground, J.vectors, ceiling)
    return {prime: Monomial(J.ground, w) for prime, w in witnesses.items()}


def _m_in_ass(vectors, ceiling: int) -> bool:
    """The kernel of :func:`m_in_ass` on the generator ``vectors`` of a
    nonzero ideal: whether the first prime of the split is every position.
    A bound ``b_i = 0`` puts every cell on the top face of axis ``i``, so
    the answer is False without a sweep, as for the unit ideal, whose one
    vector is zero; the box is still held to the ceiling first."""
    bounds = _bounds(vectors)
    cells = _cells(bounds, ceiling)
    if not all(bounds):
        return False
    _, socle, tops = _socle(vectors, bounds, cells)
    p, _ = next(_split(socle, tops))
    return len(p) == len(bounds)


def m_in_ass(J: MonomialIdeal, ceiling: int = CELL_CEILING) -> bool:
    """Depth-zero test: some ``w`` outside ``J`` has ``w * x_i`` in ``J``
    for every variable, i.e. some socle cell lies off every top face and
    the full set is an associated prime."""
    if J.is_zero or J.is_unit:
        raise ValueError("depth-zero test needs a proper nonzero ideal")
    return _m_in_ass(J.vectors, ceiling)


@_value
class AssProfile:
    """Associated primes of the first ``kmax`` powers of an expansion.

    ``witnesses_by_power[k-1]`` pairs each prime of the k-th power, as a
    sorted label tuple, with the exponent vector of a confirmed colon
    witness, aligned with the ground set of ``u``; :meth:`primes_at`
    lists the primes alone.  ``stable_from`` is the least power from which
    the sets stay constant within the scanned range (None if never
    repeated).
    """

    u: SquarefreeMonomial
    kmax: int
    witnesses_by_power: tuple[tuple[tuple[tuple[int, ...], tuple[int, ...]], ...], ...]
    stable_from: int | None

    def primes_at(self, k: int) -> tuple[tuple[int, ...], ...]:
        return tuple(prime for prime, _ in self.witnesses_by_power[k - 1])


def ass_profile(
    u: SquarefreeMonomial,
    n: int | None = None,
    kmax: int = 3,
    ceiling: int = CELL_CEILING,
) -> AssProfile:
    """Associated primes of I, I^2, ..., I^kmax for the expansion of ``u``."""
    return _profile_and_powers(u, n, kmax, ceiling)[0]


def _profile_and_powers(u: SquarefreeMonomial, n: int | None, kmax: int, ceiling: int):
    """:func:`ass_profile`, the chain ``[I, ..., I^kmax]`` it scanned, as
    lists of generator vectors (:func:`~borelstab.monomials._powers`), and
    the m-verdict of each power, read off the split that found its primes."""
    if n is None:
        n = len(u.ground)
    elif n != len(u.ground):
        raise ValueError(f"n={n} does not match ground set of size {len(u.ground)}")
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    base = expand_squarefree(u).vectors
    # I is generated in one degree, so the bounds of I^k are k times those of I
    bounds = _bounds(base)
    for k in range(1, kmax + 1):
        _cells([k * b for b in bounds], ceiling)
    powers = _powers(base, kmax)
    witnessed, maximal = zip(*(_witnesses(u.ground, vectors, ceiling) for vectors in powers))
    stable_from = None
    for k in range(kmax - 1, 0, -1):
        if witnessed[k - 1].keys() == witnessed[k].keys():
            stable_from = k
        else:
            break
    profile = AssProfile(u, kmax, tuple(tuple(w.items()) for w in witnessed), stable_from)
    return profile, powers, maximal


@_value
class PersistenceReport:
    """Primes found to drop out of a later power (expected: none)."""

    u: SquarefreeMonomial
    kmax: int
    violations: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def persistence_scan(
    u: SquarefreeMonomial,
    n: int | None = None,
    kmax: int = 3,
    ceiling: int = CELL_CEILING,
) -> PersistenceReport:
    """Check Ass(I^k) is contained in Ass(I^{k+1}) for k below kmax."""
    profile = ass_profile(u, n, kmax, ceiling)
    violations = []
    for k in range(1, kmax):
        later = set(profile.primes_at(k + 1))
        for prime in profile.primes_at(k):
            if prime not in later:
                violations.append((k, prime))
    return PersistenceReport(u, kmax, tuple(violations))


@_value
class CrossValidationReport:
    """Tally of oracle-vs-formula checks that all passed."""

    u: SquarefreeMonomial
    kmax: int
    depth_checks: int
    localization_checks: int
    membership_checks: int
    sharpness_checks: int


def _compare(left, right, check, u, A=None, lam=None, names=()) -> int:
    """Compare two verdict lists entry by entry; return how many comparisons
    were made.  At the first entry ``k`` (1-based: the power) that differs,
    raise :class:`CrossValidationError` with the reproducer ``check``,
    ``u``, then ``A``, ``k``, ``lambda`` and the two verdicts under
    ``names``, each only when given: without ``names`` (sharpness, one
    verdict per subset) there is no ``k``.  It is built only on a failure."""
    for k, (a, b) in enumerate(zip(left, right), 1):
        if a != b:
            reproducer = {"check": check, "u": str(u)}
            if A is not None:
                reproducer["A"] = A
            if names:
                reproducer["k"] = k
            if lam is not None:
                reproducer["lambda"] = lam
            reproducer.update(zip(names, (a, b)))
            raise CrossValidationError(f"oracle mismatch: {reproducer}")
    return len(left)


def cross_validate(
    u: SquarefreeMonomial,
    n: int | None = None,
    kmax: int = 3,
    ceiling: int = CELL_CEILING,
    enumeration_bound: int = DEFAULT_ENUMERATION_BOUND,
) -> CrossValidationReport:
    """Tie every closed form to the oracle on one generator.

    Checks, for each power k up to kmax: the maximal ideal is associated
    exactly when the depth-zero flag of :func:`quotient_profile` is set;
    each prime ``P_A`` is associated exactly when the maximal ideal of the
    saturation-localized ideal is, and exactly when its index ``lambda_A``
    is at most k, which is sharp.  The subsets, primes and indices are the
    rows of :func:`stable_set_enumerate`, the table that ``stable-set``
    prints, so its bound refusal comes first and its combinatorial referee
    runs on every subset.  Each row builds one list ``in_ass[k-1] = P_A in
    Ass(I^k)`` and compares it with each route's list through
    :func:`_compare`, the one path that counts the comparisons and raises
    :class:`CrossValidationError` with a minimal reproducer at the first
    mismatch.

    Many subsets localize to the same ideal, so the oracle verdicts on the
    localized powers are kept in a dict local to the call.  Its key is the
    frozenset of the generators of ``I`` projected onto ``P_A``, before any
    reduction: equal sets give equal minimal vectors, and those are all
    the m-test reads.  The closed-form ``u_A`` of a row never enters the
    key.  A miss reduces the same projection to its minimal vectors, as
    :func:`~borelstab.localization.localize_by_saturation` does, and runs
    the m-test on their powers.  A localization to the whole ring takes
    the same path: its minimal vectors are the zero vector alone, so every
    bound is 0 and the m-test answers False without a sweep.  The dict is
    seeded, under the key of the empty ``A``, with the m-verdicts that the
    profile's split of each power of ``I`` gave, so every subset takes the
    same path and no power of ``I`` is split twice; at ``A = {}`` the row
    still compares the certified primes with the first prime of that split.
    """
    rows = stable_set_enumerate(u, enumeration_bound=enumeration_bound)
    profile, powers, maximal = _profile_and_powers(u, n, kmax, ceiling)
    base, ks, labels = powers[0], range(1, kmax + 1), u.ground.indices
    position = {label: i for i, label in enumerate(labels)}
    ass_sets = [set(profile.primes_at(k)) for k in ks]
    formula = [quotient_profile(u, k).m_in_ass for k in ks]
    oracle = [labels in ass for ass in ass_sets]
    depth = _compare(formula, oracle, "depth", u, names=("formula", "oracle"))

    verdicts = {frozenset(base): maximal}
    localization = membership = sharpness = 0
    for row in rows:
        A, prime, lam = row.subset, row.prime, row.stability_index
        in_ass = [prime in ass for ass in ass_sets]
        if prime:
            key = frozenset(_projected(base, [position[i] for i in prime]))
            local = verdicts.get(key)
            if local is None:
                local = verdicts[key] = [
                    _m_in_ass(vectors, ceiling) for vectors in _powers(_minimal_vectors(key), kmax)
                ]
            names = ("P_A in Ass(I^k)", "m in Ass(I(P_A)^k)")
            localization += _compare(in_ass, local, "localization", u, A, names=names)
        expected = [lam <= k for k in ks]
        names = ("expected", "observed")
        membership += _compare(expected, in_ass, "membership", u, A, lam, names)
        if lam <= kmax:
            # membership passed and lam <= kmax, so True is in in_ass
            sharp = in_ass.index(True) + 1 == lam
            sharpness += _compare([sharp], [True], "sharpness", u, A, lam)
    return CrossValidationReport(u, kmax, depth, localization, membership, sharpness)
