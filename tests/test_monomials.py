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
    divides,
    expand_squarefree,
    format_monomial,
    ideal_power,
    lex_compare,
    lex_key,
    minimalize,
    parse_ground,
    parse_monomial,
    parse_squarefree,
    radical,
    saturate,
)
from conftest import (
    all_squarefree,
    brute_colon_members,
    ideal,
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
        assert one.is_unit and one.degree == 0
        with pytest.raises(ValueError):
            one.min_index  # noqa: B018

    def test_mul_pow_gcd(self, g3):
        w = mono(g3, x1=1, x2=2)
        v = mono(g3, x2=1, x3=1)
        assert (w * v).exps == ((1, 1), (2, 3), (3, 1))
        assert (w**3).exps == ((1, 3), (2, 6))
        assert w.gcd(v) == mono(g3, x2=1)
        assert w.lcm(v) == mono(g3, x1=1, x2=2, x3=1)

    def test_exact_division(self, g3):
        w = mono(g3, x1=2, x2=1)
        assert w.divide_by(mono(g3, x1=1)) == mono(g3, x1=1, x2=1)
        with pytest.raises(ValueError):
            w.divide_by(mono(g3, x3=1))

    def test_huge_exponents_are_exact(self, g3):
        big = 10**30
        w = mono(g3, x1=1) ** big
        assert w.exponent(1) == big
        assert (w * w).exponent(1) == 2 * big

    def test_ground_membership_enforced(self):
        g = GroundSet((2, 4))
        with pytest.raises(ValueError):
            Monomial.make(g, {3: 1})


class TestDivides:
    def test_examples(self, g3):
        assert divides(mono(g3, x1=1), mono(g3, x1=1, x2=1))
        assert not divides(mono(g3, x1=2), mono(g3, x1=1, x2=1))
        assert divides(mono(g3, x2=1, x3=1), mono(g3, x1=1, x2=1, x3=1))

    def test_ground_mismatch(self, g3, g4):
        with pytest.raises(GroundSetMismatch):
            divides(mono(g3, x1=1), mono(g4, x1=1))


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
            assert colon(J, w1 * w2) == colon(colon(J, w1), w2)


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
            for g in step.generators:
                assert any(
                    divides(a * b, g)
                    for a in bigger.generators
                    for b in J.generators
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
            Monomial.from_vector(g4, v)
            for v in itertools.product(range(4), repeat=4)
            if sum(v) == 3
        ]
        keys = sorted(lex_key(w) for w in degree3)
        assert len(set(keys)) == len(degree3)

    def test_ideal_generators_sorted_descending(self, g3):
        J = expand_squarefree(sf(g3, 2, 3))
        keys = [lex_key(g) for g in J.generators]
        assert keys == sorted(keys, reverse=True)


class TestRadical:
    def test_examples(self, g5):
        assert radical(mono(g5, x1=3, x2=1)).indices == (1, 2)
        assert radical(mono(g5, x5=1)).indices == (5,)
        assert radical(mono(g5, x2=2, x4=2)).indices == (2, 4)

    def test_unit_rejected(self, g5):
        with pytest.raises(ValueError):
            radical(Monomial.unit(g5))


class TestTextFormat:
    def test_round_trip(self, g5):
        for text in ["1^2,3,5^4", "1,3,4,5", "2", ""]:
            w = parse_monomial(text, g5)
            assert parse_monomial(format_monomial(w), g5) == w

    def test_examples(self, g5):
        w = parse_monomial("1^2,3,5^4", g5)
        assert w.exps == ((1, 2), (3, 1), (5, 4))
        u = parse_squarefree("1,3,4,5", g5)
        assert u.indices == (1, 3, 4, 5)

    def test_ground_parse(self):
        assert parse_ground("n=5") == GroundSet.contiguous(5)
        assert parse_ground("vars=2,3,5") == GroundSet((2, 3, 5))
        with pytest.raises(ValueError):
            parse_ground("five")

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
