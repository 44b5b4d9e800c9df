"""Borel expansions, closures, the fast membership test and recognition."""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelstab import (
    GroundSet,
    Monomial,
    MonomialIdeal,
    NotPrincipalError,
    borel_closure,
    expand_squarefree,
    extract_borel_generator,
    ideal_power,
    is_power_generator,
    power_generators,
)
from borelstab import borel
from borelstab.borel import _dominating_vectors
from borelstab.monomials import ResourceLimitError, _minimal_vectors
from conftest import all_squarefree, closure_by_moves, ideal, is_strongly_stable, mono, sf


class TestExpandSquarefree:
    def test_single_variable(self, g5):
        assert expand_squarefree(sf(g5, 1)).generators == (mono(g5, x1=1),)

    def test_x2x3(self, g3):
        got = expand_squarefree(sf(g3, 2, 3))
        assert set(got.generators) == {
            mono(g3, x1=1, x2=1),
            mono(g3, x1=1, x3=1),
            mono(g3, x2=1, x3=1),
        }

    def test_worked_example(self, g5, worked_generator):
        got = expand_squarefree(worked_generator)
        assert set(got.generators) == {
            mono(g5, x1=1, x2=1, x3=1, x4=1),
            mono(g5, x1=1, x2=1, x3=1, x5=1),
            mono(g5, x1=1, x2=1, x4=1, x5=1),
            mono(g5, x1=1, x3=1, x4=1, x5=1),
        }
        assert got == closure_by_moves(worked_generator.power(1), 1)

    def test_general_ground_set(self):
        g = GroundSet((3, 4, 5))
        got = expand_squarefree(sf(g, 4, 5))
        assert set(got.generators) == {
            mono(g, x3=1, x4=1),
            mono(g, x3=1, x5=1),
            mono(g, x4=1, x5=1),
        }


class TestBorelClosure:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pure_power_is_fixed(self, g3, k):
        w = mono(g3, x1=k)
        assert borel_closure(w, k).generators == (w,)

    def test_matches_expansion_at_cap_one(self, g3):
        w = mono(g3, x2=1, x3=1)
        assert borel_closure(w, 1) == closure_by_moves(w, 1) == expand_squarefree(sf(g3, 2, 3))

    def test_hand_bfs_cap_two(self, g3):
        got = borel_closure(mono(g3, x2=2, x3=2), 2)
        assert got == ideal_power(closure_by_moves(mono(g3, x2=1, x3=1), 1), 2)
        assert len(got.generators) == 6

    def test_cap_violation(self, g3):
        with pytest.raises(ValueError):
            borel_closure(mono(g3, x1=3), 2)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one(self, g3, cap):
        for w in (Monomial.unit(g3), mono(g3, x2=1)):
            with pytest.raises(ValueError, match="cap must be positive"):
                borel_closure(w, cap)

    def test_walk_equals_moves_exhaustive(self):
        # every w with 1 <= deg <= 8 and entries at most the cap: 1,470
        # closures, about 0.5 s with the breadth-first referee
        grounds = [GroundSet.contiguous(n) for n in range(1, 6)] + [GroundSet((2, 5, 7))]
        count = 0
        for g in grounds:
            for cap in (1, 2, 3):
                for vec in itertools.product(range(cap + 1), repeat=len(g)):
                    if 1 <= sum(vec) <= 8:
                        w = Monomial(g, vec)
                        expected = closure_by_moves(w, cap)
                        assert borel_closure(w, cap) == expected, (g, vec, cap)
                        # the walk's own list, which an ideal takes as it is
                        walked = _dominating_vectors(vec, cap)
                        assert all(a > b for a, b in itertools.pairwise(walked)), (vec, cap)
                        assert walked == list(expected.vectors), (g, vec, cap)
                        count += 1
        assert count == 1470

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(st.data())
    def test_walk_equals_moves_wider(self, data):
        n = data.draw(st.integers(6, 9), label="n")
        cap = data.draw(st.integers(1, 3), label="cap")
        vec = [0] * n
        for p in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8)):
            vec[p] = min(cap, vec[p] + 1)
        w = Monomial(GroundSet.contiguous(n), tuple(vec))
        assert borel_closure(w, cap) == closure_by_moves(w, cap)

    def test_closures_are_strongly_stable(self):
        for n in (2, 3, 4):
            g = GroundSet.contiguous(n)
            for k in (1, 2):
                for vec in itertools.product(range(k + 1), repeat=n):
                    if not any(vec):
                        continue
                    w = Monomial(g, vec)
                    assert is_strongly_stable(closure_by_moves(w, k), k)


class TestPowerMembership:
    def test_generator_itself(self, g5):
        u = sf(g5, 2, 4)
        for k in (1, 2, 3):
            assert is_power_generator(u.power(k), u, k)

    def test_in_closure(self, g3):
        assert is_power_generator(mono(g3, x1=2, x2=2), sf(g3, 2, 3), 2)

    def test_prefix_failure(self, g3):
        # x_2 x_3 lacks weight on the first variable for u = x_1 x_3
        assert not is_power_generator(mono(g3, x2=1, x3=1), sf(g3, 1, 3), 1)

    def test_another_ground_set_refused(self, g3, g4):
        with pytest.raises(ValueError, match="^mismatched ground sets$"):
            is_power_generator(mono(g4, x1=1, x2=1), sf(g3, 2, 3), 1)

    def test_cap_and_degree_errors(self, g3):
        u = sf(g3, 1, 3)
        with pytest.raises(ValueError):
            is_power_generator(mono(g3, x1=1, x3=3), u, 2)
        with pytest.raises(ValueError):
            is_power_generator(mono(g3, x1=1), u, 1)

    def test_agrees_with_closure_small(self):
        for n in (2, 3, 4):
            g = GroundSet.contiguous(n)
            for u in all_squarefree(n):
                if u.degree > 2:
                    continue
                for k in (1, 2):
                    members = set(closure_by_moves(u.power(k), k).generators)
                    for vec in itertools.product(range(k + 1), repeat=n):
                        if sum(vec) != k * u.degree:
                            continue
                        w = Monomial(g, vec)
                        assert is_power_generator(w, u, k) == (w in members)


class TestPowerGenerators:
    def test_examples(self, g3, g5):
        assert power_generators(sf(g3, 1), 3).generators == (mono(g3, x1=3),)
        assert len(power_generators(sf(g3, 2, 3), 2).generators) == 6
        u = sf(g5, 2, 3, 5)
        assert power_generators(u, 1) == closure_by_moves(u.power(1), 1)

    def test_equals_product_route(self):
        for n in range(1, 7):
            for u in all_squarefree(n):
                J = expand_squarefree(u)
                for k in (1, 2, 3):
                    assert power_generators(u, k) == ideal_power(J, k)

    def test_walk_is_minimal_on_the_bench_rungs(self):
        # an ideal takes the walk's list with no minimality pass, so the
        # list must already be strictly decreasing and minimal: every u of
        # the powers workload's rungs (n 5-8, d 3-4, k 2-3) and its
        # frontier x2x4x6x8 at n = 8, k = 1..3: 258,315 vectors, about 0.3 s
        walks = [
            (n, u, k)
            for n in range(5, 9)
            for d in (3, 4)
            for k in (2, 3)
            for u in itertools.combinations(range(1, n + 1), d)
        ]
        walks += [(8, (2, 4, 6, 8), k) for k in (1, 2, 3)]
        count = 0
        for n, u, k in walks:
            walked = _dominating_vectors(sf(GroundSet.contiguous(n), *u).power_vector(k), k)
            assert all(a > b for a, b in itertools.pairwise(walked)), (n, u, k)
            assert _minimal_vectors(walked) == walked, (n, u, k)
            count += len(walked)
        assert count == 258315

    def test_wide_product_route(self):
        # one degree: the walk pays for no minimality pass, and the product
        # route for a set and one sort per power, never the pairwise check;
        # about 0.21 s on a 2-core x86 VM and 0.43 s when sharing one core
        # with a busy loop (a runner at half speed), so the budget leaves
        # about 11x; over a minute with the pairwise check
        u = sf(GroundSet.contiguous(12), 8, 10, 12)
        start = time.perf_counter()
        J = power_generators(u, 2)
        assert J == ideal_power(expand_squarefree(u), 2)
        assert len(J) == 7532
        assert time.perf_counter() - start < 5

    def test_zero_tail_costs_no_walk(self):
        # every generator is zero past the last variable of u: about 0.01 s
        # on a 2-core x86 VM, against 5.7 s when the walk stepped through
        # the 49,998 trailing zeros
        g = GroundSet.contiguous(50000)
        start = time.perf_counter()
        J = power_generators(sf(g, 1, 2), 1)
        K = power_generators(sf(g, 2, 3), 2)
        assert time.perf_counter() - start < 1
        assert J.vectors == ((1, 1) + (0,) * 49998,)
        head = power_generators(sf(GroundSet.contiguous(3), 2, 3), 2).vectors
        assert K.vectors == tuple(v + (0,) * 49997 for v in head)

    def test_huge_power_refused_before_the_walk(self, g3):
        # (x2x3)^k over n = 3 holds k + 1 prefix sums at positions 2 and 3,
        # so the walk of k = 10^23 would never return; the count is O(n)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as caught:
            power_generators(sf(g3, 2, 3), 10**23 - 1)
        assert time.perf_counter() - start < 1
        assert "10000000" in str(caught.value)
        assert f"{10**23} prefix sums" in str(caught.value)

    def test_sum_ceiling_is_inclusive(self, g3, monkeypatch):
        monkeypatch.setattr(borel, "_SUM_CEILING", 301)
        assert len(power_generators(sf(g3, 2, 3), 300)) == 45451  # 301 sums
        with pytest.raises(ResourceLimitError, match="302 prefix sums"):
            power_generators(sf(g3, 2, 3), 301)

    def test_rejects_zero_power(self, g3):
        with pytest.raises(ValueError):
            power_generators(sf(g3, 1), 0)


class TestIsStronglyStable:
    def test_expansions_are_stable(self):
        for n in (2, 3, 4):
            for u in all_squarefree(n):
                assert is_strongly_stable(expand_squarefree(u), 1)

    def test_missing_move(self):
        g2 = GroundSet.contiguous(2)
        assert not is_strongly_stable(ideal(mono(g2, x2=1)), 1)

    def test_powers_are_stable(self, g3):
        assert is_strongly_stable(power_generators(sf(g3, 2, 3), 2), 2)


class TestExtractBorelGenerator:
    def test_recovers_generator(self, g3):
        J = expand_squarefree(sf(g3, 2, 3))
        assert extract_borel_generator(J, 1) == mono(g3, x2=1, x3=1)

    def test_principal_single(self, g3):
        assert extract_borel_generator(ideal(mono(g3, x1=1)), 1) == mono(g3, x1=1)

    def test_not_principal(self, g4):
        J = ideal(mono(g4, x1=1, x2=1), mono(g4, x3=1, x4=1))
        with pytest.raises(NotPrincipalError):
            extract_borel_generator(J, 1)

    def test_zero_and_unit_refused(self, g3):
        for J in (MonomialIdeal(g3, ()), ideal(Monomial.unit(g3))):
            with pytest.raises(ValueError, match="^zero and unit ideals have no Borel generator$"):
                extract_borel_generator(J, 1)

    def test_over_its_cap(self, g3):
        with pytest.raises(NotPrincipalError, match="^exponent above cap 1$"):
            extract_borel_generator(ideal(mono(g3, x1=2)), 1)

    def test_mixed_degrees_rejected(self, g3):
        J = ideal(mono(g3, x1=1), mono(g3, x2=2))
        with pytest.raises(ValueError):
            extract_borel_generator(J, 1)

    def test_round_trip_over_all_small(self):
        for n in range(1, 6):
            for u in all_squarefree(n):
                J = expand_squarefree(u)
                assert extract_borel_generator(J, 1) == u.power(1)

