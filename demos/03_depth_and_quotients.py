#!/usr/bin/env python3
"""Linear quotients, the q-invariant and depth.

Sorted in decreasing lex order, the generators of a power of a squarefree
principal Borel ideal have colon ideals generated by variables, countable
straight off each generator.  The largest count q gives
depth(S/I^k) = n - q - 1, and the maximal ideal is associated exactly
when the depth is zero.
"""

from borelstab import (
    GroundSet,
    SquarefreeMonomial,
    depth_zero_witness,
    power_generators,
    quotient_profile,
)

g3 = GroundSet.contiguous(3)
u = SquarefreeMonomial(g3, (2, 3))

for k in (1, 2):
    profile = quotient_profile(u, k)
    print(f"u = {u}, k = {k}:")
    gens = power_generators(u, k).generators
    for pos, (g, s) in enumerate(zip(gens, profile.colon_sets), start=1):
        print(f"  position {pos}: {str(g):12s} colon variables {sorted(s)}")
    print(f"  q = {profile.q}, depth = {profile.depth},",
          f"maximal ideal associated: {profile.m_in_ass}")
    print()

print("depth is non-increasing along powers:")
g4 = GroundSet.contiguous(4)
v = SquarefreeMonomial(g4, (2, 4))
print("  u =", v, " depths:", [quotient_profile(v, k).depth for k in (1, 2, 3)])

print()
print("once k exceeds deg(u) - 1, an explicit generator certifies depth zero:")
w = depth_zero_witness(u, 2)
print(f"  witness for u = {u}, k = 2:", w)
print("  maximal ideal associated at k = 2:", quotient_profile(u, 2).m_in_ass)
