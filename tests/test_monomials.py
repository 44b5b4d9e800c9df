"""Monomial and ideal arithmetic: examples frozen against hand computation
and an enumeration-based colon oracle, plus the structural invariants."""

import io
import itertools
import random
import re

import pytest

from borelstab import (
    GroundSet,
    GroundSetMismatch,
    Monomial,
    MonomialIdeal,
    SquarefreeMonomial,
    ass_profile,
    colon,
    cross_validate,
    expand_squarefree,
    ideal_power,
    minimalize,
    parse_monomial,
    parse_squarefree,
    persistence_scan,
    power_generators,
    saturate,
)
from borelstab.cli import run
from borelstab.monomials import vector_to_str
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


# labels that equal or look like the label 1 but are not ints
NOT_INTS = pytest.mark.parametrize("label", [1.0, True, "1"], ids=repr)


def not_an_int(label) -> str:
    return f"^variable label {re.escape(repr(label))} is not an int$"


def exactly(message: str) -> str:
    return f"^{re.escape(message)}$"


class TestGroundSet:
    def test_contiguous(self):
        assert GroundSet.contiguous(3).indices == (1, 2, 3)
        assert GroundSet.contiguous(3).is_contiguous

    def test_general_labels(self):
        g = GroundSet((2, 3, 5))
        assert not g.is_contiguous
        assert 3 in g and 4 not in g
        assert g.position(5) == 2
        assert (str(g), str(GroundSet.contiguous(3))) == ("vars=2,3,5", "n=3")

    def test_contiguous_needs_a_variable(self):
        with pytest.raises(ValueError, match=exactly("need at least one variable")):
            GroundSet.contiguous(0)

    def test_position_of_an_outside_label(self):
        with pytest.raises(ValueError, match=exactly("label 4 not in ground set (2, 3, 5)")):
            GroundSet((2, 3, 5)).position(4)

    @pytest.mark.parametrize("bad", [(), (0, 1), (2, 2), (3, 1)])
    def test_rejects_bad_labels(self, bad):
        with pytest.raises(ValueError):
            GroundSet(bad)

    @NOT_INTS
    def test_refuses_a_label_that_is_not_an_int(self, label):
        with pytest.raises(ValueError, match=not_an_int(label)):
            GroundSet((label, 2))


class TestSquarefreeMonomial:
    @NOT_INTS
    def test_refuses_a_label_that_is_not_an_int(self, g3, label):
        with pytest.raises(ValueError, match=not_an_int(label)):
            SquarefreeMonomial(g3, (label, 3))

    @pytest.mark.parametrize(
        "support, message",
        [
            ((), "squarefree monomial needs at least one variable"),
            ((3, 2), "support must be strictly increasing: (3, 2)"),
            ((9,), "x_9 not in ground set (1, 2, 3)"),
        ],
        ids=repr,
    )
    def test_refuses_a_bad_support(self, g3, support, message):
        with pytest.raises(ValueError, match=exactly(message)):
            SquarefreeMonomial(g3, support)

    def test_power_vector(self):
        u = sf(GroundSet((2, 3, 5, 7)), 3, 7)
        assert u.power_vector(2) == (0, 2, 0, 2) == u.power(2).vector

    def test_str_builds_no_monomial(self, g5, monkeypatch):
        u = sf(g5, 1, 3, 5)

        def refuse(self):
            raise AssertionError("str(u) built a Monomial")

        monkeypatch.setattr(Monomial, "__post_init__", refuse)
        assert str(u) == "x_1x_3x_5"
        assert str(sf(GroundSet((2, 7)), 7)) == "x_7"


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

    # accepted, 0.5 printed as x_1 with degree 1.5, True counted as 1 and
    # 2.0 printed as x_1^2.0; a caller's ideal takes its vectors by the
    # same rule, on its own as well as in a list with another bad entry
    @pytest.mark.parametrize("exponent", [0.5, True, 2.0], ids=repr)
    def test_refuses_an_exponent_that_is_not_an_int(self, exponent):
        with pytest.raises(ValueError, match=exactly(f"exponent {exponent!r} is not an int")):
            Monomial(GroundSet.contiguous(2), (exponent, 1))
        with pytest.raises(ValueError, match=exactly(f"exponent {exponent!r} is not an int")):
            MonomialIdeal(GroundSet.contiguous(2), [(exponent, 1)])

    def test_ideal_fallback_names_an_exponent_that_is_not_an_int(self):
        # a caller's list is checked one generator at a time, in order, so
        # the first bad generator is named, not the later negative entry
        with pytest.raises(ValueError, match=exactly("exponent 0.5 is not an int")):
            MonomialIdeal(GroundSet.contiguous(2), [(0.5, 1), (1, -1)])


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
        assert zero.is_zero and str(zero) == "(0)"
        one = minimalize([Monomial.unit(g3), mono(g3, x1=1)])
        assert one.is_unit and str(one) == "(1)"

    def test_refusals(self, g3, g4):
        message = "empty generating set needs an explicit ground set"
        with pytest.raises(ValueError, match=exactly(message)):
            minimalize([])
        message = "generators over different ground sets"
        with pytest.raises(GroundSetMismatch, match=exactly(message)):
            minimalize([mono(g3, x1=1), mono(g4, x2=1)])

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

    def test_divisor_over_another_ground_set(self, g3, g4):
        message = "colon divisor over a different ground set"
        with pytest.raises(GroundSetMismatch, match=exactly(message)):
            colon(ideal(mono(g3, x1=1)), mono(g4, x1=1))

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

    def test_divisor_over_another_ground_set(self, g3, g4):
        message = "saturating monomial over a different ground set"
        with pytest.raises(GroundSetMismatch, match=exactly(message)):
            saturate(ideal(mono(g3, x1=1)), mono(g4, x1=1))

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

    def test_vector_text_reads_labels(self):
        # labels, not positions: the vector (2, 0, 1, 0) over 2, 3, 5, 7
        assert vector_to_str((2, 3, 5, 7), (2, 0, 1, 0)) == "x_2^2x_5"
        assert vector_to_str((2, 3), (0, 0)) == "1"

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



def count_monomials(monkeypatch) -> list:
    """The vectors of the ``Monomial`` values built from now on."""
    built = []
    real = Monomial.__post_init__

    def counting(self):
        real(self)
        built.append(self.vector)

    monkeypatch.setattr(Monomial, "__post_init__", counting)
    return built


class TestMonomialOnlyAtTheEdge:
    # a Monomial is built only where one crosses the package's edge: a CLI
    # request parses --u into one, and writes its text and JSON from vectors

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            "expand --u 2,3^2 --n 4 --k 2",
            "power --u 3,7 --vars 2,3,5,7 --k 2",
            "colon-profile --u 2,4 --n 4 --k 2",
            "localize --u 1,3,4,5 --n 5 --A 1,3",
        ],
    )
    def test_one_per_request(self, monkeypatch, argv, fmt):
        built = count_monomials(monkeypatch)
        assert run([*argv.split(), "--format", fmt], out=io.StringIO()) == 0
        assert len(built) == 1

    def test_none_in_the_walk(self, monkeypatch):
        built = count_monomials(monkeypatch)
        for u in all_squarefree(4):
            expand_squarefree(u)
            for k in (1, 2, 3):
                power_generators(u, k)
        assert built == []

    def test_none_in_the_oracle_scans(self, monkeypatch):
        built = count_monomials(monkeypatch)
        u = sf(GroundSet.contiguous(5), 2, 4, 5)
        ass_profile(u, kmax=3)
        persistence_scan(u, kmax=3)
        cross_validate(u, kmax=3)
        assert built == []
