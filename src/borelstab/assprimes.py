"""Brute-force associated primes of monomial ideals, and verification scans.

The prime-hunting core here is the independent referee for the rest of
the package: it works on raw exponent vectors, never consults the
closed-form shortcuts it is meant to check, and certifies its own output
twice over.  One sweep over the exponent box prod(b_i + 1), with ``b`` the
componentwise maximum of the generators, finds the socle cells of
``J + (x_i^{b_i+1})``.  The sweep is a bitset: the box is one integer with
one bit per cell, closed upward along each axis by whole-integer shifts,
so a few box-sized integers of ``cells / 8`` bytes (1.25 MB at the default
ceiling) are alive at once.  Each socle cell ``w`` gives an irredundant
irreducible component (Miller-Sturmfels, *Combinatorial Commutative
Algebra*, ch. 5); its support is an associated prime and ``w`` is a colon
witness for it.  Every reported prime ``P`` is certified by ``|P| + 1``
membership tests on a column table of the generator vectors, indexed by
generator and never by box cell, so the certificate stays independent of
the sweep (proof in :func:`associated_primes`).  A failed certificate is
a bug, not a data condition, and raises immediately.

:func:`cross_validate` is the bridge that pits those brute-force answers
against the closed-form routes (depth, localization, stable membership)
and fails hard with a minimal reproducer on any disagreement.

Complexity is exponential by nature; the entry points refuse an ideal
whose box has more cells than a configurable ceiling (default 10^7)
instead of running unbounded.

:func:`irreducible_decomposition` and :class:`IrreducibleComponent` have
no caller in the package.  They stay because the benchmark under
``bench/`` traces the decomposition for its box-cell and component
counts, and the tests check the socle sweep through it.

:func:`ass_profile`, :func:`persistence_scan` and :func:`cross_validate`
still take ``n`` as their second parameter, although it must equal
``len(u.ground)``: the benchmark under ``bench/`` passes it positionally.
Every other function reads ``n`` off the ground set of ``u``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .borel import expand_squarefree
from .localization import VariableSubset, localize_by_saturation
from .monomials import (
    GroundSet,
    Monomial,
    MonomialIdeal,
    SquarefreeMonomial,
    _powers,
)
from .quotients import quotient_profile
from .stability import DEFAULT_ENUMERATION_BOUND, lambda_of_prime

CELL_CEILING = 10_000_000


class ResourceLimitError(RuntimeError):
    """The ideal is too large for the configured brute-force budget."""


class CrossValidationError(AssertionError):
    """A closed-form result disagreed with the oracle; carries a reproducer."""


@dataclass(frozen=True)
class IrreducibleComponent:
    """An ideal generated by pure variable powers ``x_i^{e_i}``, stored as
    the vector of the ``e_i`` (0 where ``x_i`` does not occur)."""

    ground: GroundSet
    vector: tuple[int, ...]

    @property
    def powers(self) -> tuple[tuple[int, int], ...]:
        """The generators as sorted ``(label, exponent)`` pairs."""
        return tuple((i, e) for i, e in zip(self.ground.indices, self.vector) if e)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, e in zip(self.ground.indices, self.vector) if e)

    def __contains__(self, w: Monomial) -> bool:
        return any(e and x >= e for x, e in zip(w.vector, self.vector))


def _bounds(J: MonomialIdeal) -> list[int]:
    """The componentwise maximum ``b`` of the generator exponent vectors."""
    return [max(column) for column in zip(*J.vectors)]


def _cells(bounds, ceiling: int) -> int:
    """The cells prod(b_i + 1) of the box; a box over ``ceiling`` is refused."""
    cells = math.prod(b + 1 for b in bounds)
    if cells > ceiling:
        raise ResourceLimitError(
            f"{cells} box cells exceed the ceiling {ceiling}; "
            "raise the ceiling explicitly to proceed"
        )
    return cells


def _axis_mask(low: int, period: int, cells: int) -> int:
    """The cells whose offset within their ``period``-block is at least
    ``low``: one block, doubled until it covers the box, trimmed to it."""
    pattern, width = (1 << period) - (1 << low), period
    while width < cells:
        pattern |= pattern << width
        width *= 2
    return pattern >> (width - cells)


def _socle(J: MonomialIdeal, ceiling: int):
    """The socle of ``J + (x_i^{b_i+1})`` as a bitset: ``(axes, socle, interior)``.

    The box prod(b_i + 1) is one integer, one bit per cell in lex order;
    ``axes`` pairs the stride ``s_i`` of each axis with ``b_i``.  The
    generator bits are closed upward ``b_i`` times per axis by
    ``inside |= (inside << s_i) & up_i``, with ``up_i`` the cells where
    ``w_i >= 1``.  A socle cell lies outside J while every step up that
    stays in the box lands in J: ``~inside & AND_i((inside >> s_i) | top_i)``,
    with ``top_i`` the cells where ``w_i = b_i``; ``interior`` is the box
    off every ``top_i``.  Each axis mask lives only in its own loop.  The
    box is refused before allocation when it has more than ``ceiling`` cells.
    """
    bounds = _bounds(J)
    cells = _cells(bounds, ceiling)
    axes = [(math.prod(b + 1 for b in bounds[i + 1 :]), b) for i, b in enumerate(bounds)]
    bits = bytearray((cells + 7) // 8)
    for g in J.vectors:
        cell = sum(e * s for e, (s, _) in zip(g, axes))
        bits[cell >> 3] |= 1 << (cell & 7)
    inside = int.from_bytes(bits, "little")
    del bits
    for s, b in axes:
        up = _axis_mask(s, s * (b + 1), cells)
        for _ in range(b):
            inside |= (inside << s) & up
    socle = interior = (1 << cells) - 1
    for s, b in axes:
        top = _axis_mask(s * b, s * (b + 1), cells)
        socle &= (inside >> s) | top
        interior &= ~top
    return axes, socle & ~inside, interior


def _socle_cells(J: MonomialIdeal, ceiling: int):
    """``(bounds, cells)``: the socle cells as exponent vectors, in lex
    order, which is the order of their bits from the lowest up."""
    axes, socle, _ = _socle(J, ceiling)
    cells = []
    for pos, byte in enumerate(socle.to_bytes((socle.bit_length() + 7) // 8, "little")):
        while byte:
            low = byte & -byte
            cell = 8 * pos + low.bit_length() - 1
            cells.append(tuple(cell // s % (b + 1) for s, b in axes))
            byte ^= low
    return [b for _, b in axes], cells


def irreducible_decomposition(
    J: MonomialIdeal, ceiling: int = CELL_CEILING
) -> tuple[IrreducibleComponent, ...]:
    """The irredundant irreducible components of a proper nonzero ideal.

    Each socle cell ``w`` of ``J + (x_i^{b_i+1})`` gives the component
    ``(x_i^{w_i+1} : w_i < b_i)`` (Miller-Sturmfels, ch. 5).
    """
    if J.is_zero or J.is_unit:
        raise ValueError("zero and unit ideals have no irreducible decomposition")
    bounds, cells = _socle_cells(J, ceiling)
    out = [
        IrreducibleComponent(J.ground, tuple(e + 1 if e < b else 0 for e, b in zip(w, bounds)))
        for w in cells
    ]
    out.sort(key=lambda comp: (len(comp.support), comp.powers))
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


def _holds(columns, v) -> bool:
    """Whether some generator lies below ``v``: ``AND_j columns[j][v_j] != 0``."""
    common = -1
    for column, e in zip(columns, v):
        common &= column[e]
        if not common:
            return False
    return True


def _colon_is_prime(columns, bounds, w, p) -> bool:
    """Whether ``J : w = (x_i : i in p)``, ``p`` as positions, by tests (a)
    and (b) of :func:`associated_primes` on the column table of ``J``."""
    raised = (w[:i] + (w[i] + 1,) + w[i + 1 :] for i in p)
    top = tuple(e if i in p else b for i, (e, b) in enumerate(zip(w, bounds)))
    return all(_holds(columns, v) for v in raised) and not _holds(columns, top)


def associated_primes(
    J: MonomialIdeal, ceiling: int = CELL_CEILING, with_witnesses: bool = False
):
    """Associated primes of S/J as sorted label tuples.

    The primes ``{i : w_i < b_i}`` of the socle cells ``w``.  The witness
    of a prime ``P`` is its first cell in lex order.  For ``w <= b``,
    ``J : w = P`` iff (a) ``w * x_i`` is in ``J`` for each ``x_i`` in ``P``
    and (b) the cell ``v`` equal to ``w`` on ``P`` and to ``b`` off it is
    not.  Proof: (a) is ``P <= J : w``; a monomial ``m`` off ``P`` has
    ``m * w`` in ``J`` iff some generator ``g <= m + w``, and as ``g <= b``
    such an ``m`` exists iff ``v`` is in ``J``, so (b) is ``J : w <= P``.
    Each membership test is ``n`` ANDs on the column table of the generator
    vectors (:func:`_columns`): a cell ``v`` is in ``J`` iff
    ``AND_j columns[j][v_j] != 0``.  The table is indexed by generator and
    never by box cell, so it shares nothing with the sweep that found ``w``.
    With ``with_witnesses`` returns a dict ``prime -> witness``.
    """
    if J.is_zero or J.is_unit:
        raise ValueError("associated primes need a proper nonzero ideal")
    ground = J.ground
    bounds, socle_cells = _socle_cells(J, ceiling)
    cells: dict[tuple[int, ...], tuple[int, ...]] = {}
    for w in socle_cells:
        cells.setdefault(tuple(i for i, (e, b) in enumerate(zip(w, bounds)) if e < b), w)
    columns = _columns(J.vectors, bounds)
    witnesses = {}
    for p in sorted(cells, key=lambda p: (len(p), p)):
        prime, w = tuple(ground.indices[i] for i in p), Monomial(ground, cells[p])
        if not _colon_is_prime(columns, bounds, w.vector, p):
            raise AssertionError(f"J : {w} is not {prime} in {J}: the socle sweep is buggy")
        witnesses[prime] = w
    return witnesses if with_witnesses else tuple(witnesses)


def m_in_ass(J: MonomialIdeal, ceiling: int = CELL_CEILING) -> bool:
    """Depth-zero test: some ``w`` outside ``J`` has ``w * x_i`` in ``J``
    for every variable, i.e. some socle cell lies off every top face and
    the full set is an associated prime."""
    if J.is_zero or J.is_unit:
        raise ValueError("depth-zero test needs a proper nonzero ideal")
    _, socle, interior = _socle(J, ceiling)
    return socle & interior != 0


@dataclass(frozen=True)
class AssProfile:
    """Associated primes of the first ``kmax`` powers of an expansion.

    ``witnesses_by_power[k-1]`` pairs each prime of the k-th power, as a
    sorted label tuple, with a confirmed colon witness; :meth:`primes_at`
    lists the primes alone.  ``stable_from`` is the least power from which
    the sets stay constant within the scanned range (None if never
    repeated).
    """

    u: SquarefreeMonomial
    n: int
    kmax: int
    witnesses_by_power: tuple[tuple[tuple[tuple[int, ...], Monomial], ...], ...]
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
    """:func:`ass_profile` and the chain ``[I, ..., I^kmax]`` it scanned."""
    if n is None:
        n = len(u.ground)
    elif n != len(u.ground):
        raise ValueError(f"n={n} does not match ground set of size {len(u.ground)}")
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    base = expand_squarefree(u)
    # I is generated in one degree, so the bounds of I^k are k times those of I
    bounds = _bounds(base)
    for k in range(1, kmax + 1):
        _cells([k * b for b in bounds], ceiling)
    powers = _powers(base, kmax)
    witnessed = [associated_primes(J, ceiling, with_witnesses=True) for J in powers]
    stable_from = None
    for k in range(kmax - 1, 0, -1):
        if witnessed[k - 1].keys() == witnessed[k].keys():
            stable_from = k
        else:
            break
    profile = AssProfile(
        u=u,
        n=n,
        kmax=kmax,
        witnesses_by_power=tuple(tuple(w.items()) for w in witnessed),
        stable_from=stable_from,
    )
    return profile, powers


@dataclass(frozen=True)
class PersistenceReport:
    """Primes found to drop out of a later power (expected: none)."""

    u: SquarefreeMonomial
    n: int
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
    return PersistenceReport(u, profile.n, kmax, tuple(violations))


@dataclass(frozen=True)
class CrossValidationReport:
    """Tally of oracle-vs-formula checks that all passed."""

    u: SquarefreeMonomial
    n: int
    kmax: int
    depth_checks: int
    localization_checks: int
    membership_checks: int
    sharpness_checks: int


def _fail(reproducer: dict) -> None:
    raise CrossValidationError(f"oracle mismatch: {reproducer}")


def cross_validate(
    u: SquarefreeMonomial,
    n: int | None = None,
    kmax: int = 3,
    ceiling: int = CELL_CEILING,
    enumeration_bound: int = DEFAULT_ENUMERATION_BOUND,
) -> CrossValidationReport:
    """Tie every closed form to the oracle on one generator.

    Checks, for each power k up to kmax: the maximal ideal is associated
    exactly when q = n - 1; each prime ``P_A`` is associated exactly when
    the maximal ideal of the saturation-localized ideal is, and exactly
    when its index ``lambda_A`` is at most k, which is sharp.  Any
    mismatch raises :class:`CrossValidationError` with a minimal
    reproducer.  Like :func:`stable_set_enumerate`, it walks all
    2^n subsets, so an ``n`` above ``enumeration_bound`` is refused first.
    """
    if n is None:
        n = len(u.ground)
    if n > enumeration_bound:
        raise ValueError(f"n={n} exceeds the enumeration bound {enumeration_bound}")
    profile, powers = _profile_and_powers(u, n, kmax, ceiling)
    base = powers[0]
    ass_sets = [set(profile.primes_at(k)) for k in range(1, kmax + 1)]
    labels = u.ground.indices

    depth_checks = 0
    for k in range(1, kmax + 1):
        formula = quotient_profile(u, k).q == n - 1
        oracle = labels in ass_sets[k - 1]
        if formula != oracle:
            _fail({"check": "depth", "u": str(u), "k": k, "formula": formula, "oracle": oracle})
        depth_checks += 1

    localization_checks = 0
    membership_checks = 0
    sharpness_checks = 0
    for size in range(n + 1):
        for combo in itertools.combinations(labels, size):
            A = VariableSubset(u.ground, combo)
            prime = A.complement

            if prime:
                if combo:
                    localized = localize_by_saturation(base, A)
                    local_powers = [] if localized.is_unit else _powers(localized, kmax)
                else:
                    local_powers = powers
                for k in range(1, kmax + 1):
                    in_ass = prime in ass_sets[k - 1]
                    local_m = bool(local_powers) and m_in_ass(local_powers[k - 1], ceiling)
                    if in_ass != local_m:
                        _fail(
                            {
                                "check": "localization",
                                "u": str(u),
                                "A": combo,
                                "k": k,
                                "P_A in Ass(I^k)": in_ass,
                                "m in Ass(I(P_A)^k)": local_m,
                            }
                        )
                    localization_checks += 1

            lam = lambda_of_prime(u, A)
            for k in range(1, kmax + 1):
                expected = lam <= k
                observed = bool(prime) and prime in ass_sets[k - 1]
                if expected != observed:
                    _fail(
                        {
                            "check": "membership",
                            "u": str(u),
                            "A": combo,
                            "k": k,
                            "lambda": lam,
                            "expected": expected,
                            "observed": observed,
                        }
                    )
                membership_checks += 1
            if lam <= kmax:
                sharp = prime in ass_sets[int(lam) - 1] and (
                    lam == 1 or prime not in ass_sets[int(lam) - 2]
                )
                if not sharp:
                    _fail(
                        {
                            "check": "sharpness",
                            "u": str(u),
                            "A": combo,
                            "lambda": lam,
                        }
                    )
                sharpness_checks += 1

    return CrossValidationReport(
        u=u,
        n=n,
        kmax=kmax,
        depth_checks=depth_checks,
        localization_checks=localization_checks,
        membership_checks=membership_checks,
        sharpness_checks=sharpness_checks,
    )


__all__ = [
    "AssProfile",
    "CELL_CEILING",
    "CrossValidationError",
    "CrossValidationReport",
    "IrreducibleComponent",
    "PersistenceReport",
    "ResourceLimitError",
    "ass_profile",
    "associated_primes",
    "cross_validate",
    "irreducible_decomposition",
    "m_in_ass",
    "persistence_scan",
]
