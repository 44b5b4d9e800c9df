"""The colon-variable formula against brute-force colons, q, depth and the
depth-zero witness."""

import pytest

from borelstab import (
    GroundSet,
    colon,
    depth_zero_witness,
    expand_squarefree,
    ideal_power,
    m_in_ass,
    minimalize,
    power_generators,
    quotient_profile,
)
from borelstab.quotients import _colon_variables
from conftest import (
    all_squarefree,
    closure_by_moves,
    linear_quotient_set,
    mono,
    power_by_all_products,
    sf,
)


class TestLinearQuotientSet:
    def test_worked_positions(self, g3):
        gens = power_generators(sf(g3, 2, 3), 1).generators
        # sorted decreasing: x_1x_2 > x_1x_3 > x_2x_3
        assert linear_quotient_set(gens, 1, 1) == frozenset()
        assert linear_quotient_set(gens, 2, 1) == frozenset({2})
        assert linear_quotient_set(gens, 3, 1) == frozenset({1})

    def test_matches_brute_force(self, g3):
        gens = power_generators(sf(g3, 2, 3), 1).generators
        for i in (2, 3):
            brute = colon(minimalize(gens[: i - 1]), gens[i - 1])
            assert {m.support[0] for m in brute.generators} == set(
                linear_quotient_set(gens, i, 1)
            )

    def test_unsorted_rejected(self, g3):
        gens = list(power_generators(sf(g3, 2, 3), 1).generators)
        gens.reverse()
        with pytest.raises(ValueError):
            linear_quotient_set(gens, 2, 1)

    def test_position_bounds(self, g3):
        gens = power_generators(sf(g3, 2, 3), 1).generators
        with pytest.raises(ValueError):
            linear_quotient_set(gens, 0, 1)
        with pytest.raises(ValueError):
            linear_quotient_set(gens, 4, 1)


class TestQInvariant:
    def test_examples(self, g3):
        assert quotient_profile(sf(g3, 2, 3), 1).q == 1
        assert quotient_profile(sf(g3, 2, 3), 2).q == 2
        g1 = GroundSet.contiguous(1)
        assert quotient_profile(sf(g1, 1), 5).q == 0

    def test_witness_generator_reaches_q(self, g3):
        profile = quotient_profile(sf(g3, 2, 3), 2)
        gens = power_generators(sf(g3, 2, 3), 2).generators
        best = max(range(len(gens)), key=lambda t: len(profile.colon_sets[t]))
        assert gens[best] == mono(g3, x1=1, x2=1, x3=2)


class TestDepth:
    def test_examples(self, g3):
        assert quotient_profile(sf(g3, 2, 3), 1).depth == 1
        assert quotient_profile(sf(g3, 2, 3), 2).depth == 0
        g2 = GroundSet.contiguous(2)
        assert quotient_profile(sf(g2, 1, 2), 1).depth == 1  # principal: q = 0

    def test_depth_non_increasing_in_k(self):
        for n in (2, 3, 4, 5):
            for u in all_squarefree(n):
                values = [quotient_profile(u, k).depth for k in (1, 2, 3)]
                assert values == sorted(values, reverse=True), (u, values)


class TestMaxIdealInAss:
    def test_examples(self, g3):
        assert not quotient_profile(sf(g3, 2, 3), 1).m_in_ass
        assert quotient_profile(sf(g3, 2, 3), 2).m_in_ass

    def test_min_one_never_associated(self, g5, worked_generator):
        J = expand_squarefree(worked_generator)
        for k in range(1, 5):
            assert not quotient_profile(worked_generator, k).m_in_ass
            assert not m_in_ass(power_by_all_products(J, k))

    def test_negative_branches(self):
        # max(u) < n or min(u) = 1: never associated (formula side, k <= 3)
        for n in (2, 3, 4):
            for u in all_squarefree(n):
                if u.min_index > 1 and u.max_index == n:
                    continue
                if n == 1:
                    continue
                for k in (1, 2, 3):
                    assert not quotient_profile(u, k).m_in_ass, (u, k)

    def test_formula_vs_oracle_small(self):
        for n in (1, 2, 3, 4):
            for u in all_squarefree(n):
                J = expand_squarefree(u)
                for k in (1, 2):
                    assert quotient_profile(u, k).m_in_ass == m_in_ass(ideal_power(J, k))


class TestDepthZeroWitness:
    def test_worked_example(self, g3):
        assert depth_zero_witness(sf(g3, 2, 3), 2) == mono(g3, x1=1, x2=1, x3=2)

    def test_sparse_example(self, g5):
        got = depth_zero_witness(sf(g5, 2, 5), 2)
        assert got == mono(g5, x1=1, x2=1, x5=2)

    def test_preconditions(self, g3, g5):
        with pytest.raises(ValueError):
            depth_zero_witness(sf(g3, 2, 3), 1)  # k <= r
        with pytest.raises(ValueError):
            depth_zero_witness(sf(g5, 1, 5), 3)  # min(u) = 1
        with pytest.raises(ValueError):
            depth_zero_witness(sf(g5, 2, 4), 3)  # max(u) < n

    def test_single_variable_generator(self):
        g2 = GroundSet.contiguous(2)
        assert depth_zero_witness(sf(g2, 2), 1) == mono(g2, x2=1)


def test_witness_checked_by_moves_and_brute_colon():
    # independent of the prefix rule that depth_zero_witness applies: the
    # witness is in the breadth-first closure of u^k, and the brute-force
    # colon of the generators before it is n - 1 variables
    checked = 0
    for n in range(1, 6):
        for u in all_squarefree(n):
            if u.min_index <= 1 or u.max_index != n:
                continue
            for k in range(u.degree, 4):
                witness = depth_zero_witness(u, k)
                gens = closure_by_moves(u.power(k), k).generators
                assert witness in gens, (u, k)
                before = minimalize(gens[: gens.index(witness)], ground=u.ground)
                brute = colon(before, witness)
                assert all(m.degree == 1 for m in brute.generators), (u, k)
                assert len(brute.generators) == n - 1, (u, k)
                checked += 1
    assert checked == 28, checked


def test_colon_formula_vs_brute_force_small():
    # acceptance covers n <= 5, k <= 2; quick n <= 4 copy here
    for n in range(1, 5):
        for u in all_squarefree(n):
            for k in (1, 2):
                gens = power_generators(u, k).generators
                for i in range(1, len(gens) + 1):
                    fast = linear_quotient_set(gens, i, k)
                    if i == 1:
                        assert fast == frozenset()
                        continue
                    brute = colon(minimalize(gens[: i - 1]), gens[i - 1])
                    assert all(m.degree == 1 for m in brute.generators)
                    assert {m.support[0] for m in brute.generators} == set(fast)


def _colon_variables_by_max(labels, vec, cap):
    """The colon-variable formula as first written: every label below the
    largest one in the support whose exponent is not the cap."""
    top = max(j for j, e in zip(labels, vec) if e)
    return frozenset(j for j, e in zip(labels, vec) if j < top and e != cap)


def test_colon_variables_equal_max_formula():
    checked = witnesses = 0
    for n in range(1, 8):
        for u in all_squarefree(n):
            labels = u.ground.indices
            for k in (1, 2, 3):
                for vec in power_generators(u, k).vectors:
                    assert _colon_variables(labels, vec, k) == _colon_variables_by_max(
                        labels, vec, k
                    ), (u, k, vec)
                    checked += 1
            if u.min_index <= 1 or u.max_index != n:
                continue
            for k in range(u.degree, 6):
                vec = depth_zero_witness(u, k).vector
                assert _colon_variables(labels, vec, k) == _colon_variables_by_max(
                    labels, vec, k
                ), (u, k)
                witnesses += 1
    assert checked == 60942 and witnesses == 186, (checked, witnesses)
