"""Interval combinatorics, stability indices, and the two membership routes."""

import math

import pytest

from borelstab import (
    GroundSet,
    VariableSubset,
    ever_associated,
    expand_squarefree,
    ideal_power,
    interval_decomposition,
    lambda_max_ideal,
    lambda_of_prime,
    lambda_value_witness,
    localize_closed_form,
    m_in_ass,
    stable_membership_combinatorial,
    stable_set_enumerate,
)
from borelstab import stability
from conftest import (
    WORKED_TABLE,
    all_squarefree,
    all_subsets,
    cover_positions,
    max_preserved,
    sf,
    stable_membership_direct,
)


class TestIntervalDecomposition:
    def test_two_blocks_with_short_tail(self, g5):
        deco = interval_decomposition(sf(g5, 2, 3, 5))
        assert deco.blocks == ((2, 3), (5, 5))
        assert deco.lengths == (2, 0)
        assert deco.gaps == (1, 1)

    def test_single_block(self, g5):
        deco = interval_decomposition(sf(g5, 2, 3, 4, 5))
        assert deco.blocks == ((2, 5),)
        assert deco.lengths == (3,)
        assert deco.gaps == (1,)

    def test_leading_gap_zero_signals_min_one(self, g5, worked_generator):
        deco = interval_decomposition(worked_generator)
        assert deco.blocks == ((1, 1), (3, 5))
        assert deco.lengths == (1, 2)
        assert deco.gaps == (0, 1)

    def test_blocks_are_labels_and_lengths_are_positions(self):
        g = GroundSet((2, 3, 5, 7))
        deco = interval_decomposition(sf(g, 3, 5, 7))
        assert (deco.blocks, deco.lengths, deco.gaps) == (((3, 7),), (2,), (1,))
        deco = interval_decomposition(sf(g, 3, 7))
        assert (deco.blocks, deco.lengths, deco.gaps) == (((3, 3), (7, 7)), (1, 0), (1, 1))

    def test_needs_top_variable(self, g5):
        with pytest.raises(ValueError):
            interval_decomposition(sf(g5, 2, 3))

    def test_lengths_sum_to_degree_minus_one(self):
        for n in range(1, 8):
            for u in all_squarefree(n):
                if u.max_index != n:
                    continue
                assert sum(interval_decomposition(u).lengths) == u.degree - 1


class TestLambdaMaxIdeal:
    def test_extremal_pattern_reaches_degree(self):
        for d in range(1, 6):
            for n in range(max(d + 1, 2), 8):
                idx = tuple(range(2, d + 1)) + (n,)
                u = sf(GroundSet.contiguous(n), *idx)
                assert lambda_max_ideal(u) == u.degree

    def test_worked_values(self, g3, g5, worked_generator):
        assert lambda_max_ideal(sf(g3, 2, 3)) == 2
        assert lambda_max_ideal(worked_generator) == math.inf
        assert lambda_max_ideal(sf(g5, 2, 4, 5)) == 2

    def test_one_variable_ring(self):
        g1 = GroundSet.contiguous(1)
        assert lambda_max_ideal(sf(g1, 1)) == 1

    def test_infinite_branches(self, g4):
        assert lambda_max_ideal(sf(g4, 1, 4)) == math.inf  # min = 1
        assert lambda_max_ideal(sf(g4, 2, 3)) == math.inf  # max < n


class TestEverAssociated:
    def test_examples(self, g3, g4, worked_generator):
        assert ever_associated(sf(g3, 2, 3))
        assert not ever_associated(sf(g4, 2, 3))
        assert not ever_associated(worked_generator)
        g1 = GroundSet.contiguous(1)
        assert ever_associated(sf(g1, 1))

    def test_matches_lambda_finiteness(self):
        # The oracle on I^{deg u}, built as a product: a finite lambda is at
        # most deg u (criterion 3) and primes persist (criterion 10), so
        # that one power decides whether m is ever associated.
        for n in range(1, 7):
            for u in all_squarefree(n):
                power = ideal_power(expand_squarefree(u), u.degree)
                assert ever_associated(u) == m_in_ass(power), u


class TestLambdaValueWitness:
    def test_instances(self):
        u = lambda_value_witness(3, 2)
        assert (u.indices, len(u.ground)) == ((2, 4, 5), 5)
        u = lambda_value_witness(2, 2)
        assert (u.indices, len(u.ground)) == ((2, 3), 3)
        u = lambda_value_witness(4, 4)
        assert (u.indices, len(u.ground)) == ((2, 3, 4, 5), 5)
        assert lambda_max_ideal(u) == 4

    def test_full_range(self):
        for d in range(2, 7):
            for i in range(2, d + 1):
                u = lambda_value_witness(d, i)
                assert u.degree == d and len(u.ground) == 2 * d - i + 1
                assert lambda_max_ideal(u) == i

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lambda_value_witness(3, 1)
        with pytest.raises(ValueError):
            lambda_value_witness(3, 4)


def test_degree_two_always_attains_the_bound():
    """Documented divergence from the extremal-pattern characterization:
    for degree-2 generators the index is 2 = deg(u) whenever finite, even
    off the pattern (oracle-confirmed on I and I^2 in acceptance
    criterion 3)."""
    for n in range(3, 8):
        g = GroundSet.contiguous(n)
        for a in range(2, n):
            assert lambda_max_ideal(sf(g, a, n)) == 2


def test_lambda_bound_and_equality_characterization():
    """lambda <= d always; equality holds exactly at the extremal pattern
    or in degree at most 2 (where the ceiling term cannot exceed one)."""
    for n in range(1, 8):
        for u in all_squarefree(n):
            lam = lambda_max_ideal(u)
            if lam == math.inf:
                continue
            d = u.degree
            assert lam <= d
            pattern = (tuple(range(2, d + 1)) + (n,)) if d > 1 else (n,)
            assert (lam == d) == (u.indices == pattern or d <= 2)


class TestCoverPositions:
    def test_examples(self, g5, worked_generator):
        u = worked_generator
        assert cover_positions(VariableSubset(g5, (1, 2)), u) == (1, 2)
        assert cover_positions(VariableSubset(g5, (5,)), u) == (4,)

    def test_undefined_beyond_support(self):
        g6 = GroundSet.contiguous(6)
        u = sf(g6, 1, 3, 4, 5)
        assert cover_positions(VariableSubset(g6, (6,)), u) == (None,)


class TestMaxPreserved:
    def test_examples(self, g5, worked_generator):
        u = worked_generator
        assert not max_preserved(u, VariableSubset(g5, (4, 5)))
        assert max_preserved(u, VariableSubset(g5, (1,)))
        assert max_preserved(u, VariableSubset(g5, ()))

    def test_fallback_beyond_support(self):
        g6 = GroundSet.contiguous(6)
        u = sf(g6, 1, 3, 4, 5)
        assert max_preserved(u, VariableSubset(g6, (6,)))

    def test_agrees_with_direct_everywhere(self):
        for n in range(1, 8):
            g = GroundSet.contiguous(n)
            for u in all_squarefree(n):
                for members in all_subsets(n):
                    A = VariableSubset(g, members)
                    loc = localize_closed_form(u, A)
                    direct = loc is not None and loc.max_index == u.max_index
                    assert max_preserved(u, A) == direct, (u, members)


class TestMembershipRoutes:
    def test_worked_rows(self, g5, worked_generator):
        u = worked_generator
        assert stable_membership_combinatorial(u, VariableSubset(g5, (1, 4)))
        assert not stable_membership_combinatorial(u, VariableSubset(g5, (2,)))
        assert stable_membership_combinatorial(u, VariableSubset(g5, (2, 3, 4, 5)))
        assert stable_membership_direct(u, VariableSubset(g5, (1,)))
        assert not stable_membership_direct(u, VariableSubset(g5, (4, 5)))
        assert not stable_membership_direct(u, VariableSubset(g5, ()))

    def test_one_variable_ring_is_member(self):
        # the localized ideal is the maximal ideal of a one-variable ring
        g2 = GroundSet.contiguous(2)
        u = sf(g2, 1, 2)
        assert stable_membership_direct(u, VariableSubset(g2, (1,)))
        assert stable_membership_combinatorial(u, VariableSubset(g2, (1,)))

    def test_unit_localization_is_not(self, g3):
        u = sf(g3, 1, 3)
        A = VariableSubset(g3, (1, 3))
        assert localize_closed_form(u, A) is None
        assert not stable_membership_direct(u, A)
        assert not stable_membership_combinatorial(u, A)

    def test_routes_agree_everywhere(self):
        for n in range(1, 7):
            g = GroundSet.contiguous(n)
            for u in all_squarefree(n):
                for members in all_subsets(n):
                    A = VariableSubset(g, members)
                    assert stable_membership_direct(u, A) == (
                        stable_membership_combinatorial(u, A)
                    ), (u, members)

    def test_referee_never_localizes(self, monkeypatch):
        # with the closed form broken the referee still answers, and as
        # the direct route did beforehand: a fault in localize_closed_form
        # cannot reach both routes
        cases = [
            (u, VariableSubset(u.ground, members))
            for n in range(1, 6)
            for u in all_squarefree(n)
            for members in all_subsets(n)
        ]
        expected = [lambda_of_prime(u, A) != math.inf for u, A in cases]

        def broken(u, A):
            raise AssertionError("the referee localized u")

        monkeypatch.setattr(stability, "localize_closed_form", broken)
        assert [stable_membership_combinatorial(u, A) for u, A in cases] == expected

    def test_unit_counting_rule_matches_closed_form(self):
        # u_A is the unit ideal iff at least t elements of A are at most i_t;
        # any other u_A lives on the complement of A, with index lambda_A
        for n in range(1, 8):
            for u in all_squarefree(n):
                for members in all_subsets(n):
                    A = VariableSubset(u.ground, members)
                    local = localize_closed_form(u, A)
                    assert stability._localizes_to_unit(u, A) == (local is None), (u, members)
                    if local is not None:
                        assert local.ground.indices == A.complement, (u, members)
                        assert lambda_max_ideal(local) == lambda_of_prime(u, A), (u, members)


class TestLambdaOfPrime:
    def test_worked_values(self, g5, worked_generator):
        u = worked_generator
        assert lambda_of_prime(u, VariableSubset(g5, (1,))) == 3
        assert lambda_of_prime(u, VariableSubset(g5, (1, 3))) == 2
        assert lambda_of_prime(u, VariableSubset(g5, (1, 2, 4))) == 1

    def test_unit_localization_infinite(self, g3):
        assert lambda_of_prime(sf(g3, 1, 3), VariableSubset(g3, (1, 3))) == math.inf


class TestStableSetEnumerate:
    def test_worked_table(self, worked_generator):
        entries = stable_set_enumerate(worked_generator, members_only=True)
        got = {
            (e.subset, e.generator.indices, e.stability_index) for e in entries
        }
        assert got == set(WORKED_TABLE)
        for e in entries:
            assert e.prime == tuple(
                i for i in range(1, 6) if i not in set(e.subset)
            )

    def test_one_variable(self):
        g1 = GroundSet.contiguous(1)
        entries = stable_set_enumerate(sf(g1, 1), members_only=True)
        assert len(entries) == 1
        assert entries[0].subset == ()
        assert entries[0].stability_index == 1

    def test_minimal_primes_and_maximal(self, g3):
        entries = stable_set_enumerate(sf(g3, 2, 3), members_only=True)
        by_subset = {e.subset: e.stability_index for e in entries}
        assert by_subset == {(): 2, (1,): 1, (2,): 1, (3,): 1}

    def test_enumeration_bound(self, g3):
        with pytest.raises(ValueError):
            stable_set_enumerate(sf(g3, 2, 3), enumeration_bound=2)

    def test_subset_listing_order(self, g3):
        entries = stable_set_enumerate(sf(g3, 2, 3))
        subsets = [e.subset for e in entries]
        assert subsets == sorted(subsets, key=lambda s: (len(s), s))
        assert len(entries) == 8

    def test_one_closed_form_per_subset_besides_the_referee(self, monkeypatch):
        from borelstab import stability

        g6 = GroundSet.contiguous(6)
        u = sf(g6, 2, 4, 6)
        calls = []
        real = stability.localize_closed_form

        def counting(u, A):
            calls.append(A)
            return real(u, A)

        monkeypatch.setattr(stability, "localize_closed_form", counting)
        entries = stable_set_enumerate(u)
        assert len(entries) == 2**6
        # one localization per subset: the referee never localizes
        assert len(calls) == 2**6
        for e in entries:
            A = VariableSubset(g6, e.subset)
            assert e.generator == real(u, A)
            assert e.stability_index == lambda_of_prime(u, A)

    def test_referee_disagreement_raises(self, monkeypatch, g3):
        # an explicit raise, not an assert, so it also holds under python -O
        from borelstab import stability

        monkeypatch.setattr(stability, "stable_membership_combinatorial", lambda u, A: False)
        with pytest.raises(AssertionError, match="membership routes disagree"):
            stable_set_enumerate(sf(g3, 2, 3))
