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

:func:`_colon_masks` reads the colon sets off the Borel walk of
:mod:`borelstab.borel` without building a generator.  It walks the same
``(position i, prefix sum s)`` rows, in the same order, joined at the same
``mid``, but a row holds the colon bitmask of each suffix (bit ``j`` for
position ``j``) where the walk holds the suffix.  With ``top`` the last
nonzero position of a vector, its colon set is the positions below
``top`` whose entry is not the cap ``k``.  The masks follow from the rows:

- A suffix ``(e,) + t`` whose tail ``t`` is not zero puts the top of every
  vector that ends with it inside ``t``.  So position ``i`` lies below the
  top, and the mask is ``t``'s plus bit ``i`` when ``e != cap``.
- When ``t`` is the zero suffix, the top is ``i`` or lies before it, and no
  position of the suffix is below it: the mask is 0.  The entries after a
  prefix sum of ``D``, the degree, are all zero, and a row of a smaller sum
  must still add up to ``D``.  So the zero suffix is the one row at
  ``s = D``, and ``t`` is zero exactly when ``s + e = D``.
- A head of sum ``s < D`` meets only nonzero tails, so each of its
  positions is below the top and counts when its entry is not the cap:
  its full mask.  A head of sum ``D`` meets only the zero suffix, and its
  top is its own last nonzero entry: it takes its mask below that top.
  An entry ``e`` at ``i`` adds bit ``i`` to the full mask when
  ``e != cap``, and when ``e > 0`` it moves the top to ``i``, so the mask
  below the top becomes the full mask before ``i``.

The walk lists the generators in decreasing lex order (the proof is in
:mod:`borelstab.borel`), so the i-th mask is the colon set of ``u_i``.
Each distinct mask becomes one frozenset, which the generators with that
colon set share, and ``q`` is the largest.

:func:`depth_zero_witness` has no caller in the package.  It stays as the
explicit depth-zero generator of the construction, which the benchmark
times and the tests check.
"""

from __future__ import annotations

from .borel import _walk_plan, is_power_generator
from .monomials import Monomial, SquarefreeMonomial, _value


def _colon_masks(w: tuple[int, ...], cap: int) -> list[int]:
    """The colon bitmask of each vector of the cap closure of ``w``, in the
    walk's order, by the rules of the module docstring."""
    bounds, degree, end = _walk_plan(w, cap)
    mid = end // 2
    tails = {degree: [0]}
    for i in range(end - 1, mid - 1, -1):
        bit = 1 << i
        # the row of each sum with bit i added, but the zero suffix's: it stays 0
        ored = {s: [m | bit for m in t] if s < degree else t for s, t in tails.items()}
        floor = bounds[i - 1] if i else 0
        tails = {
            s: [
                m
                for e in range(min(cap, degree - s), max(0, bounds[i] - s) - 1, -1)
                for m in (tails if e == cap else ored)[s + e]
            ]
            for s in range(floor, min(degree, cap * i) + 1)
        }
    heads = [(0, 0, 0)]  # full mask, mask below the top, prefix sum
    for i in range(mid):
        bit = 1 << i
        heads = [
            (full if e == cap else full | bit, full if e else below, s + e)
            for full, below, s in heads
            for e in range(min(cap, degree - s), max(0, bounds[i] - s) - 1, -1)
        ]
    return [below if s == degree else full | m for full, below, s in heads for m in tails[s]]


@_value
class QuotientProfile:
    """Colon variable sets of a power, with q, depth and the depth-zero flag."""

    k: int
    colon_sets: tuple[frozenset[int], ...]
    q: int
    depth: int
    m_in_ass: bool


def quotient_profile(u: SquarefreeMonomial, k: int) -> QuotientProfile:
    """Full linear-quotient profile of the k-th power of the expansion of ``u``."""
    if k < 1:
        raise ValueError("power must be at least 1")
    ground = u.ground
    n = len(ground)
    masks = _colon_masks(u.power_vector(k), k)
    labels = ground.indices
    shared = {m: frozenset(j for b, j in enumerate(labels) if m >> b & 1) for m in set(masks)}
    q = max(map(len, shared.values()))
    if q >= n:
        raise AssertionError("colon sets live below max(u_i), so q must stay below n")
    return QuotientProfile(k, tuple(map(shared.__getitem__, masks)), q, n - q - 1, q == n - 1)


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
    top = max(j for j, e in enumerate(vec) if e)
    if sum(e != k for e in vec[:top]) != n - 1:
        raise AssertionError("witness colon set is not of size n - 1")
    return witness
