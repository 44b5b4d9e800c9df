#!/usr/bin/env python3
"""Stability indices from interval combinatorics.

Writing the support of u (which must reach the top variable) as maximal
consecutive blocks, the least power k with the maximal ideal associated
is read off the block lengths and the gaps between them.  The index is
bounded by deg(u); the bound is attained by the generator
x_2 x_3 ... x_d x_n, and in degree two by every eligible generator.
"""

import math

from borelstab import (
    GroundSet,
    SquarefreeMonomial,
    ever_associated,
    interval_decomposition,
    lambda_max_ideal,
    lambda_value_witness,
)

for n, idx in [(3, (2, 3)), (5, (2, 4, 5)), (5, (2, 3, 4, 5)), (5, (1, 3, 4, 5)), (4, (3, 4))]:
    g = GroundSet.contiguous(n)
    u = SquarefreeMonomial(g, idx)
    lam = lambda_max_ideal(u)
    tag = "inf" if lam == math.inf else lam
    print(f"u = {str(u):10s} n = {n}:  ever associated: {ever_associated(u)!s:5s}  index = {tag}")
    if u.max_index == n:
        deco = interval_decomposition(u)
        print(f"    blocks {deco.blocks}  lengths {deco.lengths}  gaps {deco.gaps}")

print()
print("every index between 2 and the degree is realized by a constructed generator:")
for d in (3, 4):
    for i in range(2, d + 1):
        u = lambda_value_witness(d, i)
        print(f"  degree {d}, target {i}: u = {u} over 1..{len(u.ground)},",
              "index =", lambda_max_ideal(u))
