"""Monomial and ideal arithmetic: examples frozen against hand computation
and an enumeration-based colon oracle, plus the structural invariants."""

import itertools
import random

import pytest

from borelstab import (
    GroundSet,
    GroundSetMismatch,
    Monomial,
    MonomialIdeal,
    SquarefreeMonomial,
    colon,
    expand_squarefree,
    ideal_power,
    minimalize,
    parse_monomial,
    parse_squarefree,
    saturate,
)
from conftest import (
    all_squarefree,
    brute_colon_members,
    ideal,
    lex_compare,
    mono,
    power_by_all_products,
    referee_corpus,
    sf,
)


class TestGroundSet:
    def test_contiguous(self):
        assert GroundSet.contiguous(3).indices == (1, 2, 3)
        assert GroundSet.contiguous(3).is_contiguous

    def test_general_labels(self):
        g = GroundSet((2, 3, 5))
        assert not g.is_contiguous
        assert 3 in g and 4 not in g
        assert g.position(5) == 2

    @pytest.mark.parametrize("bad", [(), (0, 1), (2, 2), (3, 1)])
    def test_rejects_bad_labels(self, bad):
        with pytest.raises(ValueError):
            GroundSet(bad)

    def test_without(self):
        assert GroundSet.contiguous(5).without((1, 4)).indices == (2, 3, 5)


class TestMonomialBasics:
    def test_unit(self, g3):
        one = Monomial.unit(g3)
        assert one.is_unit and one.degree == 0 and str(one) == "1"

    def test_huge_exponents_are_exact(self, g3):
        big = 10**30
        w = parse_monomial(f"1^{big},3", g3)
        assert w.vector == (big, 0, 1) and str(w) == f"x_1^{big}x_3"
        assert ideal_power(ideal(w), 2).vectors == ((2 * big, 0, 2),)

    def test_ground_membership_enforced(self):
        g = GroundSet((2, 4))
        with pytest.raises(ValueError):
            Monomial.make(g, {3: 1})


class TestDivides:
    # w divides v exactly when v lies in the principal ideal (w)
    def test_examples(self, g3):
        assert mono(g3, x1=1, x2=1) in ideal(mono(g3, x1=1))
        assert mono(g3, x1=1, x2=1) not in ideal(mono(g3, x1=2))
        assert mono(g3, x1=1, x2=1, x3=1) in ideal(mono(g3, x2=1, x3=1))

    def test_ground_mismatch(self, g3, g4):
        with pytest.raises(GroundSetMismatch):
            mono(g4, x1=1) in ideal(mono(g3, x1=1))  # noqa: B015


class TestMinimalize:
    def test_examples(self, g3):
        assert minimalize([mono(g3, x1=1), mono(g3, x1=1, x2=1)]).generators == (
            mono(g3, x1=1),
        )
        two = minimalize([mono(g3, x1=1, x2=1), mono(g3, x2=1, x3=1)])
        assert set(two.generators) == {mono(g3, x1=1, x2=1), mono(g3, x2=1, x3=1)}
        three = minimalize(
            [mono(g3, x1=2), mono(g3, x1=2, x3=1), mono(g3, x2=1)]
        )
        assert set(three.generators) == {mono(g3, x1=2), mono(g3, x2=1)}

    def test_idempotent_and_order_free(self, g3):
        gens = [
            mono(g3, x1=2),
            mono(g3, x1=1, x2=1),
            mono(g3, x1=2, x2=1),
            mono(g3, x2=3),
            mono(g3, x1=1, x2=1, x3=2),
        ]
        expected = minimalize(gens)
        assert minimalize(expected.generators) == expected
        rng = random.Random(7)
        for _ in range(10):
            rng.shuffle(gens)
            assert minimalize(gens) == expected

    def test_zero_and_unit(self, g3):
        zero = minimalize([], ground=g3)
        assert zero.is_zero
        one = minimalize([Monomial.unit(g3), mono(g3, x1=1)])
        assert one.is_unit

    def test_constructor_rejects_nonminimal(self, g3):
        for gens in [
            (mono(g3, x1=1), mono(g3, x1=1, x2=1)),
            (mono(g3, x1=1, x2=1), mono(g3, x1=1, x2=1)),
        ]:
            with pytest.raises(ValueError, match="non-minimal generating set"):
                MonomialIdeal(g3, gens)


class TestColon:
    def test_trivial(self, g3):
        J = ideal(mono(g3, x1=1, x2=1))
        assert colon(J, mono(g3, x2=1)) == ideal(mono(g3, x1=1))

    def test_derived_against_enumeration(self, g3):
        cases = [
            (ideal(mono(g3, x1=1, x2=1), mono(g3, x1=1, x3=1)), mono(g3, x2=1, x3=1)),
            (ideal(mono(g3, x1=2), mono(g3, x2=1)), mono(g3, x1=1)),
        ]
        for J, w in cases:
            got = colon(J, w)
            oracle = brute_colon_members(J, w, bounds=(3, 3, 3))
            assert got == oracle
        assert colon(cases[0][0], cases[0][1]) == ideal(mono(g3, x1=1))
        assert colon(cases[1][0], cases[1][1]) == ideal(mono(g3, x1=1), mono(g3, x2=1))

    def test_composition_property(self, g3):
        J = ideal(mono(g3, x1=2, x2=1), mono(g3, x2=2, x3=1), mono(g3, x1=1, x3=2))
        ws = [mono(g3, x1=1), mono(g3, x2=1), mono(g3, x1=1, x3=1), mono(g3, x2=2)]
        for w1, w2 in itertools.product(ws, repeat=2):
            product = Monomial(g3, tuple(a + b for a, b in zip(w1.vector, w2.vector)))
            assert colon(J, product) == colon(colon(J, w1), w2)


class TestSaturate:
    def test_one_step(self, g3):
        J = ideal(mono(g3, x1=1, x2=1))
        assert saturate(J, mono(g3, x2=1)) == ideal(mono(g3, x1=1))

    def test_worked_value(self, g5):
        J = expand_squarefree(sf(g5, 1, 3, 4, 5))
        got = saturate(J, mono(g5, x1=1, x2=1))
        assert got == ideal(
            mono(g5, x3=1, x4=1), mono(g5, x3=1, x5=1), mono(g5, x4=1, x5=1)
        )

    def test_needs_several_steps(self, g3):
        J = ideal(mono(g3, x1=3, x2=1))
        assert saturate(J, mono(g3, x1=1)) == ideal(mono(g3, x2=1))

    def test_is_fixed_point_and_contains(self, g3):
        J = ideal(mono(g3, x1=2, x2=2), mono(g3, x2=1, x3=2))
        w = mono(g3, x2=1)
        sat = saturate(J, w)
        assert colon(sat, w) == sat
        assert all(g in sat for g in J.generators)

    def test_equals_colon_fixed_point(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(1, 5)
            g = GroundSet.contiguous(n)
            vecs = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(0, 7))]
            J = minimalize([Monomial(g, v) for v in vecs], g)
            w = Monomial(g, tuple(rng.choice((0, 0, 1, 2)) for _ in range(n)))
            current = J
            while colon(current, w) != current:
                current = colon(current, w)
            assert saturate(J, w) == current, (J, w)


class TestIdealPower:
    def test_trivial(self, g3):
        assert ideal_power(ideal(mono(g3, x1=1)), 3) == ideal(mono(g3, x1=3))
        sq = ideal_power(ideal(mono(g3, x1=1), mono(g3, x2=1)), 2)
        assert set(sq.generators) == {
            mono(g3, x1=2),
            mono(g3, x1=1, x2=1),
            mono(g3, x2=2),
        }

    def test_power_of_expansion(self, g3):
        J = expand_squarefree(sf(g3, 2, 3))
        got = ideal_power(J, 2)
        expected = {
            mono(g3, x2=2, x3=2),
            mono(g3, x1=1, x2=1, x3=2),
            mono(g3, x1=1, x2=2, x3=1),
            mono(g3, x1=2, x3=2),
            mono(g3, x1=2, x2=1, x3=1),
            mono(g3, x1=2, x2=2),
        }
        assert set(got.generators) == expected

    def test_containment_in_product(self, g4):
        J = ideal(mono(g4, x1=1, x2=1), mono(g4, x2=1, x3=1), mono(g4, x3=1, x4=1))
        for k in (1, 2, 3):
            bigger = ideal_power(J, k)
            step = ideal_power(J, k + 1)
            for g in step.vectors:
                assert any(
                    all(x + y <= z for x, y, z in zip(a, b, g))
                    for a in bigger.vectors
                    for b in J.vectors
                )

    def test_equals_all_products_referee(self):
        # J^k built from J^(k-1) equals all k-fold products at once, on the
        # seeded corpus and on every expansion with n <= 6
        expansions = [expand_squarefree(u) for n in range(1, 7) for u in all_squarefree(n)]
        for J in [*referee_corpus(), *expansions]:
            for k in (1, 2, 3, 4):
                assert ideal_power(J, k) == power_by_all_products(J, k), (J, k)

    def test_first_power_is_the_ideal_and_lower_are_refused(self, g3):
        J = ideal(mono(g3, x1=1, x2=1), mono(g3, x3=2))
        assert ideal_power(J, 1) is J
        for k in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                ideal_power(J, k)


class TestLexOrder:
    def test_examples(self, g3):
        assert lex_compare(mono(g3, x1=1, x2=1), mono(g3, x1=1, x3=1)) == 1
        assert lex_compare(mono(g3, x1=2, x3=2), mono(g3, x1=1, x2=1, x3=2)) == 1
        w = mono(g3, x1=1, x2=2)
        assert lex_compare(w, w) == 0

    def test_total_order_on_equal_degree(self, g4):
        degree3 = [
            Monomial(g4, v)
            for v in itertools.product(range(4), repeat=4)
            if sum(v) == 3
        ]
        keys = sorted(w.vector for w in degree3)
        assert len(set(keys)) == len(degree3)

    def test_ideal_generators_sorted_descending(self, g3):
        J = expand_squarefree(sf(g3, 2, 3))
        assert list(J.vectors) == sorted(J.vectors, reverse=True)
        assert [g.vector for g in J.generators] == list(J.vectors)


class TestTextFormat:
    def test_round_trip(self, g5):
        # text -> vector -> str, and a repeated label adds its exponents
        cases = {
            "1^2,3,5^4": ((2, 0, 1, 0, 4), "x_1^2x_3x_5^4"),
            "1,3,4,5": ((1, 0, 1, 1, 1), "x_1x_3x_4x_5"),
            "2": ((0, 1, 0, 0, 0), "x_2"),
            "2,2^2": ((0, 3, 0, 0, 0), "x_2^3"),
            "": ((0, 0, 0, 0, 0), "1"),
        }
        for text, (vec, shown) in cases.items():
            w = parse_monomial(text, g5)
            assert (w.vector, str(w)) == (vec, shown)

    def test_examples(self, g5):
        w = parse_monomial("1^2,3,5^4", g5)
        assert w.exps == ((1, 2), (3, 1), (5, 4))
        u = parse_squarefree("1,3,4,5", g5)
        assert u.indices == (1, 3, 4, 5)

    def test_malformed(self, g5):
        for bad in ["1^", "x1", "1,,2", "1^0"]:
            with pytest.raises(ValueError):
                parse_monomial(bad, g5)

    def test_squarefree_rejects_squares(self, g5):
        with pytest.raises(ValueError):
            parse_squarefree("1^2,3", g5)


def test_expansion_count_matches_direct_enumeration():
    for n in range(1, 7):
        g = GroundSet.contiguous(n)
        for u in all_squarefree(n):
            count = sum(
                1
                for combo in itertools.combinations(range(1, n + 1), u.degree)
                if all(j <= i for j, i in zip(combo, u.indices))
            )
            assert len(expand_squarefree(u).generators) == count


def test_relabel_contiguous():
    g = GroundSet((2, 4, 5))
    u = SquarefreeMonomial(g, (4, 5))
    v = u.relabel_contiguous()
    assert v.ground == GroundSet.contiguous(3)
    assert v.indices == (2, 3)
