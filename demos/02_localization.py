#!/usr/bin/env python3
"""Monomial localization two ways.

Localizing at the prime P_A = (x_i : i not in A) inverts the A-variables.
For a squarefree principal Borel ideal the result is again one, living on
the complement of A with its original labels.  The closed form strikes
one support index per element of A; the saturation route divides out the
product of the A-variables until nothing changes.  They must agree.
"""

from borelstab import (
    GroundSet,
    SquarefreeMonomial,
    VariableSubset,
    expand_squarefree,
    localize_by_saturation,
    localize_closed_form,
)

g5 = GroundSet.contiguous(5)
u = SquarefreeMonomial(g5, (1, 3, 4, 5))
J = expand_squarefree(u)

for members in [(1,), (1, 5), (1, 2), (2, 3, 4, 5)]:
    A = VariableSubset(g5, members)
    local = localize_closed_form(u, A)
    sat = localize_by_saturation(J, A)
    print(f"A={members}: u_A supported on {local.indices},",
          f"ring on {local.ground.indices}")
    print(f"          saturation gives {sat}")

print()
print("a localization can swallow the generator entirely:")
g3 = GroundSet.contiguous(3)
v = SquarefreeMonomial(g3, (1, 3))
gone = localize_closed_form(v, VariableSubset(g3, (1, 3)))
print("  u =", v, " A={1,3} ->  unit ideal?", gone is None)

print()
print("localizing in two stages equals localizing once:")
A = VariableSubset(g5, (1,))
B = VariableSubset(g5, (1, 5))
first = localize_by_saturation(J, A)
staged = localize_by_saturation(first, VariableSubset(first.ground, (5,)))
print("  A={1} then B\\A={5}:", staged == localize_by_saturation(J, B))
