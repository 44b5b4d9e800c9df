"""Closed-form localization against the saturation route, and the
composition identity."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelstab import (
    GroundSet,
    Monomial,
    MonomialIdeal,
    VariableSubset,
    expand_squarefree,
    ideal_power,
    localize_by_saturation,
    localize_closed_form,
    localized_expansion,
    parse_subset,
    power_generators,
    saturate,
)
from conftest import (
    all_squarefree,
    all_subsets,
    assert_localizations_compose,
    ideal,
    mono,
    sf,
)


class TestVariableSubset:
    def test_complement(self, g5):
        A = VariableSubset(g5, (1, 5))
        assert A.complement == (2, 3, 4)
        assert VariableSubset(g5, (1, 2, 3, 4, 5)).complement == ()
        assert VariableSubset(g5, ()).complement == (1, 2, 3, 4, 5)
        assert VariableSubset(GroundSet((2, 3, 5, 7)), (7, 3)).complement == (2, 5)

    @pytest.mark.parametrize("label", [1.0, True, "1"], ids=repr)
    def test_refuses_a_label_that_is_not_an_int(self, g5, label):
        # 1.0 and True equal the label 1; "1" cannot be compared with it
        with pytest.raises(ValueError, match=f"^variable label {label!r} is not an int$"):
            VariableSubset(g5, (label, 3))

    def test_parse(self, g5):
        assert parse_subset("A=1,5", g5).members == (1, 5)
        assert parse_subset("1,5", g5).members == (1, 5)
        assert parse_subset("A=", g5).members == ()
        with pytest.raises(ValueError):
            parse_subset("A=1,9", g5)
        with pytest.raises(ValueError):
            parse_subset("A=one", g5)


class TestClosedForm:
    def test_table_rows(self, g5, worked_generator):
        u = worked_generator
        cases = [
            ((1, 5), (3, 4), (2, 3, 4)),
            ((2, 3, 4, 5), (1,), (1,)),
            ((), (1, 3, 4, 5), (1, 2, 3, 4, 5)),
            ((1,), (3, 4, 5), (2, 3, 4, 5)),
            ((1, 2), (4, 5), (3, 4, 5)),
        ]
        for members, indices, ground in cases:
            loc = localize_closed_form(u, VariableSubset(g5, members))
            assert (loc.indices, loc.ground.indices) == (indices, ground)

    def test_unit_flagged(self, g3):
        assert localize_closed_form(sf(g3, 1), VariableSubset(g3, (1,))) is None

    def test_full_subset_always_unit(self):
        for n in range(1, 6):
            g = GroundSet.contiguous(n)
            everything = VariableSubset(g, tuple(range(1, n + 1)))
            for u in all_squarefree(n):
                assert localize_closed_form(u, everything) is None

    def test_order_independent(self):
        # one-member localizations over the shrinking ground, in every
        # order of A, reach the u_A of localizing at all of A
        rng = random.Random(3)
        for n in (4, 5):
            g = GroundSet.contiguous(n)
            pool = [u for u in all_squarefree(n)]
            for u in rng.sample(pool, 6):
                for size in range(min(4, n) + 1):
                    for members in itertools.combinations(range(1, n + 1), size):
                        expected = localize_closed_form(u, VariableSubset(g, members))
                        for perm in itertools.permutations(members):
                            current = u
                            for k in perm:
                                if current is None:
                                    break
                                step = VariableSubset(current.ground, (k,))
                                current = localize_closed_form(current, step)
                            assert current == expected, (u, perm)


class TestSaturationRoute:
    def test_worked_row(self, g5, worked_generator):
        J = expand_squarefree(worked_generator)
        got = localize_by_saturation(J, VariableSubset(g5, (1, 2)))
        assert got.ground == GroundSet((3, 4, 5))
        assert set(got.generators) == {
            mono(got.ground, x3=1, x4=1),
            mono(got.ground, x3=1, x5=1),
            mono(got.ground, x4=1, x5=1),
        }

    def test_empty_subset_is_identity(self, g4):
        J = expand_squarefree(sf(g4, 2, 4))
        assert localize_by_saturation(J, VariableSubset(g4, ())) == J

    def test_principal(self):
        g2 = GroundSet.contiguous(2)
        J = ideal(mono(g2, x1=1, x2=1))
        got = localize_by_saturation(J, VariableSubset(g2, (2,)))
        assert got.ground == GroundSet((1,))
        assert got.generators == (mono(got.ground, x1=1),)

    def test_full_subset_rejected(self, g3):
        J = expand_squarefree(sf(g3, 2, 3))
        with pytest.raises(ValueError):
            localize_by_saturation(J, VariableSubset(g3, (1, 2, 3)))


def test_subset_over_another_ground_set_refused(g3, g4):
    u, A = sf(g3, 2, 3), VariableSubset(g4, (1,))
    with pytest.raises(ValueError, match="^subset over a different ground set$"):
        localize_closed_form(u, A)
    with pytest.raises(ValueError, match="^subset over a different ground set$"):
        localize_by_saturation(expand_squarefree(u), A)


def test_closed_form_equals_saturation_small():
    # the acceptance suite runs n <= 6; keep a quick n <= 4 copy here
    for n in range(1, 5):
        g = GroundSet.contiguous(n)
        for u in all_squarefree(n):
            J = expand_squarefree(u)
            for members in all_subsets(n):
                A = VariableSubset(g, members)
                loc = localize_closed_form(u, A)
                if not A.complement:
                    assert loc is None
                    assert saturate(J, Monomial(g, (1,) * n)).is_unit
                    continue
                if not members:
                    assert loc == u
                    continue
                sat = localize_by_saturation(J, A)
                expansion = localized_expansion(u, A)
                if loc is None:
                    assert expansion is None
                    assert sat.is_unit
                else:
                    assert sat == expansion


def test_projection_equals_saturation_rehoused():
    # the projection onto the complement positions against the saturation
    # by the product of the A-variables, re-housed on the complement: every
    # u with n <= 6, the powers k = 1, 2 and every proper A (10,428 cases)
    cases = 0
    for n in range(1, 7):
        g = GroundSet.contiguous(n)
        for u in all_squarefree(n):
            for k in (1, 2):
                J = power_generators(u, k)
                for members in all_subsets(n):
                    if len(members) == n:
                        continue
                    A = VariableSubset(g, members)
                    sat = saturate(J, Monomial(g, tuple(int(i in members) for i in g)))
                    gone = [pos for pos, i in enumerate(g) if i in members]
                    kept = [pos for pos, i in enumerate(g) if i not in members]
                    # re-housing loses nothing: no A-exponent survives saturation
                    assert not any(v[pos] for v in sat.vectors for pos in gone)
                    rehoused = MonomialIdeal(
                        GroundSet(A.complement), [tuple(v[p] for p in kept) for v in sat.vectors]
                    )
                    assert localize_by_saturation(J, A) == rehoused, (u, k, members)
                    cases += 1
    assert cases == 10428


def test_degree_drops_by_one_per_firing_step():
    # a one-member localization at k, over any ground a localization
    # leaves, strikes one support index when k is at most the maximum and
    # none otherwise
    for n in range(1, 7):
        g = GroundSet.contiguous(n)
        for u in all_squarefree(n):
            for members in all_subsets(n):
                local = localize_closed_form(u, VariableSubset(g, members))
                if local is None:
                    continue
                for k in local.ground:
                    step = localize_closed_form(local, VariableSubset(local.ground, (k,)))
                    degree = 0 if step is None else step.degree
                    fires = k <= local.max_index
                    assert degree == local.degree - fires, (u, members, k)
                    assert step is None or set(step.indices) <= set(local.indices)


def top_index(local):
    """The largest support index of ``u_A``; 0 for the whole ring."""
    return 0 if local is None else local.max_index


def test_max_monotone_under_larger_subsets():
    for n in range(1, 7):
        g = GroundSet.contiguous(n)
        for u in all_squarefree(n):
            for members in all_subsets(n):
                A = VariableSubset(g, members)
                max_a = top_index(localize_closed_form(u, A))
                for extra in range(1, n + 1):
                    if extra in members:
                        continue
                    B = VariableSubset(g, members + (extra,))
                    max_b = top_index(localize_closed_form(u, B))
                    assert max_a >= max_b


class TestComposition:
    def test_two_step_identity_instance(self, g5, worked_generator):
        A = VariableSubset(g5, (1,))
        B = VariableSubset(g5, (1, 5))
        assert_localizations_compose(worked_generator, A, B)

    def test_empty_chain(self, g4):
        A = VariableSubset(g4, ())
        assert_localizations_compose(sf(g4, 2, 4), A, A)

    def test_derived_instance(self, g4):
        u = sf(g4, 2, 4)
        A = VariableSubset(g4, (2,))
        B = VariableSubset(g4, (2, 3))
        assert_localizations_compose(u, A, B)

    def test_sampled_pairs(self):
        rng = random.Random(11)
        n = 5
        g = GroundSet.contiguous(n)
        pool = list(all_squarefree(n))
        for _ in range(60):
            u = rng.choice(pool)
            b_members = tuple(
                sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
            )
            a_members = tuple(
                sorted(rng.sample(b_members, rng.randint(0, len(b_members))))
            )
            assert_localizations_compose(
                u, VariableSubset(g, a_members), VariableSubset(g, b_members)
            )


@st.composite
def wide_cases(draw):
    """A squarefree ``u`` of degree 2..4 over n = 9..12 variables, a proper
    subset ``A`` and a power k <= 2."""
    n = draw(st.integers(9, 12))
    labels = draw(st.lists(st.integers(1, n), min_size=2, max_size=4, unique=True))
    A = draw(st.lists(st.integers(1, n), max_size=n - 1, unique=True))
    return sf(GroundSet.contiguous(n), *sorted(labels)), A, draw(st.integers(1, 2))


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(wide_cases())
def test_localized_power_beyond_exhaustive_range(case):
    u, members, k = case
    A = VariableSubset(u.ground, tuple(members))
    local = localize_by_saturation(power_generators(u, k), A)
    expansion = localized_expansion(u, A)
    if expansion is None:
        assert local.is_unit
    else:
        assert local == ideal_power(expansion, k)
