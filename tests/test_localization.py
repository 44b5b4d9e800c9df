"""Closed-form localization against the saturation route, and the
composition identity."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelstab import (
    GroundSet,
    VariableSubset,
    compose_localizations_check,
    expand_squarefree,
    ideal_power,
    localize_by_saturation,
    localize_closed_form,
    localized_expansion,
    parse_subset,
    power_generators,
    saturate,
)
from conftest import all_squarefree, all_subsets, ideal, mono, sf


class TestVariableSubset:
    def test_complement(self, g5):
        A = VariableSubset(g5, (1, 5))
        assert A.complement == (2, 3, 4)
        assert not A.is_everything
        assert VariableSubset(g5, (1, 2, 3, 4, 5)).is_everything

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
            assert (loc.indices, loc.ground) == (indices, ground)

    def test_unit_flagged(self, g3):
        loc = localize_closed_form(sf(g3, 1), VariableSubset(g3, (1,)))
        assert loc.is_unit_ideal
        with pytest.raises(ValueError):
            loc.as_squarefree()

    def test_full_subset_always_unit(self):
        for n in range(1, 6):
            g = GroundSet.contiguous(n)
            everything = VariableSubset(g, tuple(range(1, n + 1)))
            for u in all_squarefree(n):
                assert localize_closed_form(u, everything).is_unit_ideal

    def test_order_independent(self):
        rng = random.Random(3)
        for n in (4, 5):
            g = GroundSet.contiguous(n)
            pool = [u for u in all_squarefree(n)]
            for u in rng.sample(pool, 6):
                for size in range(min(4, n) + 1):
                    for members in itertools.combinations(range(1, n + 1), size):
                        expected = localize_closed_form(u, VariableSubset(g, members))
                        for perm in itertools.permutations(members):
                            current = u.indices
                            from borelstab.localization import _strike_once

                            for k in perm:
                                current = _strike_once(current, k)
                            assert current == expected.indices


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


def test_closed_form_equals_saturation_small():
    # the acceptance suite runs n <= 6; keep a quick n <= 4 copy here
    for n in range(1, 5):
        g = GroundSet.contiguous(n)
        for u in all_squarefree(n):
            J = expand_squarefree(u)
            for members in all_subsets(n):
                A = VariableSubset(g, members)
                loc = localize_closed_form(u, A)
                if A.is_everything:
                    assert loc.is_unit_ideal
                    assert saturate(J, A.product()).is_unit
                    continue
                if not members:
                    assert loc.indices == u.indices
                    continue
                sat = localize_by_saturation(J, A)
                expansion = localized_expansion(u, A)
                if loc.is_unit_ideal:
                    assert expansion is None
                    assert sat.is_unit
                else:
                    assert sat == expansion


def test_degree_drops_by_one_per_firing_step(g5, worked_generator):
    u = worked_generator
    # firing steps: k at most the current maximum; otherwise a no-op
    current = u.indices
    for k in (2, 3, 4, 5):
        from borelstab.localization import _strike_once

        before = len(current)
        nxt = _strike_once(current, k)
        if k <= (current[-1] if current else 0):
            assert len(nxt) == before - 1
        else:
            assert nxt == current
        current = nxt


def test_max_monotone_under_larger_subsets():
    for n in range(1, 7):
        g = GroundSet.contiguous(n)
        for u in all_squarefree(n):
            for members in all_subsets(n):
                A = VariableSubset(g, members)
                max_a = (localize_closed_form(u, A).indices or (0,))[-1]
                for extra in range(1, n + 1):
                    if extra in members:
                        continue
                    B = VariableSubset(g, members + (extra,))
                    max_b = (localize_closed_form(u, B).indices or (0,))[-1]
                    assert max_a >= max_b


class TestComposition:
    def test_two_step_identity_instance(self, g5, worked_generator):
        A = VariableSubset(g5, (1,))
        B = VariableSubset(g5, (1, 5))
        assert compose_localizations_check(worked_generator, A, B)

    def test_empty_chain(self, g4):
        A = VariableSubset(g4, ())
        assert compose_localizations_check(sf(g4, 2, 4), A, A)

    def test_derived_instance(self, g4):
        u = sf(g4, 2, 4)
        A = VariableSubset(g4, (2,))
        B = VariableSubset(g4, (2, 3))
        assert compose_localizations_check(u, A, B)

    def test_requires_containment(self, g4):
        with pytest.raises(ValueError):
            compose_localizations_check(
                sf(g4, 2, 4), VariableSubset(g4, (1,)), VariableSubset(g4, (2,))
            )

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
            assert compose_localizations_check(
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
