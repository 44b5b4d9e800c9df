"""Linear quotients, the q-invariant and depth for powers of Borel ideals.

For the generators ``u_1 > u_2 > ...`` (decreasing lex) of the k-th power
of a squarefree principal Borel ideal, each colon ideal
``(u_1,...,u_{i-1}) : u_i`` is generated by the variables

    { x_j : j <= max(u_i) - 1 }  minus  { x_j in supp(u_i) : exponent = k }.

The largest such variable count is ``q``; the depth of the quotient ring
is then ``n - q - 1``, and the maximal ideal is associated exactly when
``q = n - 1``.  The formula's validity domain is exactly this generator
class, so the entry points here construct the generator list themselves
from a squarefree generator.  ``q``, the depth and the depth-zero flag are
read off one :func:`quotient_profile`.

:func:`depth_zero_witness` has no caller in the package.  It stays as the
explicit depth-zero generator of the construction, which the benchmark
times and the tests check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .borel import is_power_generator, power_generators
from .monomials import Monomial, MonomialIdeal, SquarefreeMonomial


def _colon_variables(labels, vec, cap: int) -> frozenset[int]:
    """The labels before the last one in the support of ``vec`` whose
    exponent is not ``cap``."""
    top = len(vec) - 1
    while not vec[top]:
        top -= 1
    return frozenset([labels[j] for j in range(top) if vec[j] != cap])


@dataclass(frozen=True)
class QuotientProfile:
    """Colon variable sets of a power, with q, depth and the depth-zero flag."""

    n: int
    k: int
    colon_sets: tuple[frozenset[int], ...]
    q: int
    depth: int
    m_in_ass: bool


def _power_profile(u: SquarefreeMonomial, k: int) -> tuple[MonomialIdeal, QuotientProfile]:
    """The k-th power, built once, and its profile."""
    ground = u.ground
    if not ground.is_contiguous:
        raise ValueError("quotient profile needs contiguous labels 1..n")
    n = len(ground)
    J = power_generators(u, k)
    sets = [frozenset()]
    sets += [_colon_variables(ground.indices, g, k) for g in J.vectors[1:]]
    q = max(len(s) for s in sets)
    if q >= n:
        raise AssertionError("colon sets live below max(u_i), so q must stay below n")
    profile = QuotientProfile(
        n=n, k=k, colon_sets=tuple(sets), q=q, depth=n - q - 1, m_in_ass=(q == n - 1)
    )
    return J, profile


def quotient_profile(u: SquarefreeMonomial, k: int) -> QuotientProfile:
    """Full linear-quotient profile of the k-th power of the expansion of ``u``."""
    return _power_profile(u, k)[1]


def depth_zero_witness(u: SquarefreeMonomial, k: int) -> Monomial:
    """A generator of the k-th power whose colon set uses all of ``1..n-1``.

    Exists for ``u = x_{i_1} ... x_{i_r} x_n`` with ``min(u) > 1``,
    ``max(u) = n`` and ``k > r`` (``r = deg(u) - 1``):

        x_1^r * x_{i_1}^{k-1} * ... * x_{i_r}^{k-1} * x_n^k

    Membership in the generator set and the size of its colon set are both
    asserted before returning.
    """
    ground = u.ground
    if not ground.is_contiguous:
        raise ValueError("witness construction needs contiguous labels 1..n")
    n = len(ground)
    if u.min_index <= 1 or u.max_index != n:
        raise ValueError(f"need min(u) > 1 and max(u) = {n}, got {u}")
    r = u.degree - 1
    if k <= r:
        raise ValueError(f"need k > deg(u) - 1 = {r}, got k={k}")
    vec = [0] * n
    for i in u.indices[:-1]:
        vec[i - 1] = k - 1
    vec[0] += r
    vec[n - 1] = k
    witness = Monomial(ground, vec)
    if not is_power_generator(witness, u, k):
        raise AssertionError("witness fails the membership test")
    if len(_colon_variables(ground.indices, witness.vector, k)) != n - 1:
        raise AssertionError("witness colon set is not of size n - 1")
    return witness


__all__ = [
    "QuotientProfile",
    "depth_zero_witness",
    "quotient_profile",
]
