"""Linear quotients, the q-invariant and depth for powers of Borel ideals.

For the generators ``u_1 > u_2 > ...`` (decreasing lex) of the k-th power
of a squarefree principal Borel ideal, each colon ideal
``(u_1,...,u_{i-1}) : u_i`` is generated by the variables

    { x_j : j <= max(u_i) - 1 }  minus  { x_j in supp(u_i) : exponent = k }.

The largest such variable count is ``q``; the depth of the quotient ring
is then ``n - q - 1``, and the maximal ideal is associated exactly when
``q = n - 1``.  Indices are positions in the ground set, so any ground
set works.  The formula's validity domain is exactly this generator class,
so the entry points here construct the generator list themselves from a
squarefree generator.  ``q``, the depth and the depth-zero flag are
read off one :func:`quotient_profile`.

One function, :func:`_colon_sets`, computes the colon sets, for
:func:`quotient_profile` and :func:`depth_zero_witness` alike.  Within one
profile the generators with equal colon sets share one frozenset, built
once from a byte key per generator: the 729 generators of
``(x2x5x7x8)^2`` over n = 8 have 94 distinct colon sets.

:func:`depth_zero_witness` has no caller in the package.  It stays as the
explicit depth-zero generator of the construction, which the benchmark
times and the tests check.
"""

from __future__ import annotations

from itertools import compress

from .borel import is_power_generator, power_generators
from .monomials import Monomial, MonomialIdeal, SquarefreeMonomial, _value


def _colon_sets(labels, vectors, cap: int) -> list[frozenset[int]]:
    """The colon set of each vector: the labels before the last one in its
    support whose exponent is not ``cap``.

    The sets are built per distinct key, not per vector, so vectors with
    equal colon sets share one frozenset.  A vector's key has the byte 1
    at each position below its top that is not at the cap and 0 elsewhere,
    with trailing zero bytes stripped: equal sets have equal keys.
    """
    if cap > 255:  # bytes() holds 0..255: keep only zero, at the cap, or neither
        vectors = [tuple(2 if e == cap else min(e, 1) for e in v) for v in vectors]
        cap = 2
    below_cap = bytearray(b"\1" * 256)
    below_cap[cap] = 0
    keys = [bytes(v).rstrip(b"\0")[:-1].translate(below_cap).rstrip(b"\0") for v in vectors]
    shared = {key: frozenset(compress(labels, key)) for key in set(keys)}
    return list(map(shared.__getitem__, keys))


@_value
class QuotientProfile:
    """Colon variable sets of a power, with q, depth and the depth-zero flag."""

    k: int
    colon_sets: tuple[frozenset[int], ...]
    q: int
    depth: int
    m_in_ass: bool


def _power_profile(u: SquarefreeMonomial, k: int) -> tuple[MonomialIdeal, QuotientProfile]:
    """The k-th power, built once, and its profile."""
    ground = u.ground
    n = len(ground)
    J = power_generators(u, k)
    sets = _colon_sets(ground.indices, J.vectors, k)
    q = max(map(len, sets))
    if q >= n:
        raise AssertionError("colon sets live below max(u_i), so q must stay below n")
    return J, QuotientProfile(k, tuple(sets), q, n - q - 1, q == n - 1)


def quotient_profile(u: SquarefreeMonomial, k: int) -> QuotientProfile:
    """Full linear-quotient profile of the k-th power of the expansion of ``u``."""
    return _power_profile(u, k)[1]


def depth_zero_witness(u: SquarefreeMonomial, k: int) -> Monomial:
    """A generator of the k-th power whose colon set uses every variable
    but the last.

    Exists for ``u = x_{i_1} ... x_{i_r} x_n`` that avoids the first
    variable ``x_1`` and contains the last ``x_n`` of its ground set, and
    ``k > r`` (``r = deg(u) - 1``):

        x_1^r * x_{i_1}^{k-1} * ... * x_{i_r}^{k-1} * x_n^k

    Membership in the generator set and the size of its colon set are both
    asserted before returning.
    """
    ground = u.ground
    n = len(ground)
    if u.min_index == ground.indices[0] or u.max_index != ground.indices[-1]:
        raise ValueError(f"need u without the first variable and with the last, got {u}")
    r = u.degree - 1
    if k <= r:
        raise ValueError(f"need k > deg(u) - 1 = {r}, got k={k}")
    vec = [0] * n
    for i in u.indices[:-1]:
        vec[ground.position(i)] = k - 1
    vec[0] += r
    vec[n - 1] = k
    witness = Monomial(ground, vec)
    if not is_power_generator(witness, u, k):
        raise AssertionError("witness fails the membership test")
    if len(_colon_sets(ground.indices, [witness.vector], k)[0]) != n - 1:
        raise AssertionError("witness colon set is not of size n - 1")
    return witness
