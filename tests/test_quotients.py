"""The colon-variable formula against brute-force colons, q, depth and the
depth-zero witness."""

import itertools
import random
import time
import tracemalloc

import pytest

from borelstab import (
    INFINITE,
    GroundSet,
    Monomial,
    ResourceLimitError,
    colon,
    depth_zero_witness,
    expand_squarefree,
    ideal_power,
    m_in_ass,
    minimalize,
    power_generators,
    quotient_profile,
    stable_set_enumerate,
)
from borelstab.borel import _dominating_vectors
from borelstab.quotients import _colon_masks
from conftest import (
    _colon_variables_by_max,
    all_squarefree,
    closure_by_moves,
    integer_rank,
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


def test_witness_on_relabeled_ground():
    # on any ground set the witness is the one over 1..n with labels mapped:
    # the same exponent vector, aligned with the relabeled ground set
    rng = random.Random(16)
    checked = 0
    for n in range(2, 6):
        labels = GroundSet(tuple(sorted(rng.sample(range(2, 3 * n), n))))
        for u in all_squarefree(n):
            if u.min_index <= 1 or u.max_index != n:
                continue
            v = sf(labels, *(labels.indices[i - 1] for i in u.indices))
            for k in range(u.degree, 4):
                expected = Monomial(labels, depth_zero_witness(u, k).vector)
                assert depth_zero_witness(v, k) == expected, (u, k)
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


def test_colon_variables_equal_max_formula():
    """The production path, ``quotient_profile``, gives the first-written
    formula, generator by generator, and equal colon sets within one
    profile are one shared object.  The formula gives each depth-zero
    witness the n - 1 colon variables that the witness counts itself."""
    checked = witnesses = 0
    for n in range(1, 8):
        for u in all_squarefree(n):
            labels = u.ground.indices
            for k in (1, 2, 3):
                vecs = power_generators(u, k).vectors
                expected = [_colon_variables_by_max(labels, vec, k) for vec in vecs]
                sets = quotient_profile(u, k).colon_sets
                assert list(sets) == expected, (u, k)
                assert len(set(map(id, sets))) == len(set(sets)), (u, k)
                checked += len(vecs)
            if u.min_index <= 1 or u.max_index != n:
                continue
            for k in range(u.degree, 6):
                vec = depth_zero_witness(u, k).vector
                assert len(_colon_variables_by_max(labels, vec, k)) == n - 1, (u, k)
                witnesses += 1
    assert checked == 60942 and witnesses == 186, (checked, witnesses)


@pytest.mark.parametrize("k", [255, 256, 300])
def test_colon_sets_with_exponents_past_a_byte(k):
    """Caps far above every exponent but the cap's own: an entry counts
    exactly when it is not the cap."""
    g = GroundSet((2, 5, 7))
    for u in (sf(g, 5), sf(g, 2, 7)):
        vecs = power_generators(u, k).vectors
        expected = [_colon_variables_by_max(g.indices, vec, k) for vec in vecs]
        assert list(quotient_profile(u, k).colon_sets) == expected, (u, k)


def test_colon_masks_on_every_small_walk():
    """The mask rules hold on the cap closure of any ``w``, not only of a
    power of ``u``: the walk's masks equal the formula on the walk's own
    vectors for every ``w`` with n <= 5, 1 <= deg <= 8 and entries at most
    the cap, with positions for labels."""
    count = 0
    for n in range(1, 6):
        positions = tuple(range(n))
        for cap in (1, 2, 3):
            for vec in itertools.product(range(cap + 1), repeat=n):
                if not 1 <= sum(vec) <= 8:
                    continue
                expected = [
                    sum(1 << j for j in _colon_variables_by_max(positions, v, cap))
                    for v in _dominating_vectors(vec, cap)
                ]
                assert _colon_masks(vec, cap) == expected, (vec, cap)
                count += 1
    assert count == 1375, count


def test_depth_past_zero_is_the_limit_depth():
    """A referee for depth >= 1.  The ideals here are polymatroidal, so
    their Rees algebras are normal (Herzog and Hibi, 2002) and Cohen-
    Macaulay (Hochster), and so is the associated graded ring.  Then the
    limit depth of ``S/I^k`` is ``n - l(I)`` (Eisenbud and Huneke, 1983),
    and for an ideal generated in one degree the analytic spread ``l(I)``
    is the rank of the generator exponent matrix.  Past the largest finite
    stability index ``a`` of the stable set the depth has reached it."""
    checks = 0
    for n in range(1, 9):
        for u in all_squarefree(n):
            indices = [e.stability_index for e in stable_set_enumerate(u)]
            a = max((i for i in indices if i != INFINITE), default=1)
            limit = n - integer_rank(expand_squarefree(u).vectors)
            for k in (a + 1, a + 2):
                assert quotient_profile(u, k).depth == limit, (u, k)
                checks += 1
    assert checks == 1004, checks


def test_wide_power_refused_on_its_count(g3):
    # (x2x3)^4471 over n = 3 holds only 4,472 prefix sums at one position
    # but has 10,001,628 generators: the exact count refuses it, for the
    # walk and the profile alike, before either builds a row
    message = "would build 10001628 generators, above the ceiling of 10000000"
    for build in (power_generators, quotient_profile):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=message):
            build(sf(g3, 2, 3), 4471)
        assert time.perf_counter() - start < 1, build


def test_profile_peak_is_under_half_the_walks():
    # the profile walks masks, not vectors: on (x2x4x6x8x10)^4 over n = 10
    # (256,624 generators) its traced peak is about 0.3 times that of
    # power_generators, where a profile built on the vectors read 1.4
    u = sf(GroundSet.contiguous(10), 2, 4, 6, 8, 10)
    peaks = []
    for build in (power_generators, quotient_profile):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = build(u, 4)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        del result
    assert peaks[1] < 0.5 * peaks[0], peaks
