"""The brute-force oracle: decomposition soundness, witnessed primes,
profiles, persistence and cross-validation."""

import itertools
import math
import random
import time

import pytest

from borelstab import (
    GroundSet,
    Monomial,
    ResourceLimitError,
    VariableSubset,
    ass_profile,
    associated_primes,
    colon,
    cross_validate,
    expand_squarefree,
    ideal_power,
    irreducible_decomposition,
    lambda_of_prime,
    lambda_value_witness,
    localize_by_saturation,
    m_in_ass,
    minimalize,
    persistence_scan,
    power_generators,
    stable_set_enumerate,
)
from borelstab import assprimes
from conftest import (
    all_squarefree,
    all_subsets,
    box_vectors,
    ideal,
    mono,
    referee_corpus,
    sf,
)


class TestIrreducibleDecomposition:
    def test_single_squarefree_generator(self):
        g2 = GroundSet.contiguous(2)
        comps = irreducible_decomposition(ideal(mono(g2, x1=1, x2=1)))
        assert {c.powers for c in comps} == {((1, 1),), ((2, 1),)}

    def test_embedded_example(self):
        g2 = GroundSet.contiguous(2)
        comps = irreducible_decomposition(
            ideal(mono(g2, x1=2), mono(g2, x1=1, x2=1))
        )
        assert {c.powers for c in comps} == {((1, 1),), ((1, 2), (2, 1))}

    def test_triangle(self, g3):
        comps = irreducible_decomposition(
            ideal(
                mono(g3, x1=1, x2=1), mono(g3, x1=1, x3=1), mono(g3, x2=1, x3=1)
            )
        )
        assert {c.powers for c in comps} == {
            ((1, 1), (2, 1)),
            ((1, 1), (3, 1)),
            ((2, 1), (3, 1)),
        }

    def test_zero_unit_rejected(self, g3):
        with pytest.raises(ValueError):
            irreducible_decomposition(minimalize([], ground=g3))
        with pytest.raises(ValueError):
            irreducible_decomposition(ideal(Monomial.unit(g3)))

    def test_intersection_equals_ideal(self):
        # membership agreement on the bounding box plus a margin of one
        samples = []
        g3 = GroundSet.contiguous(3)
        samples.append(ideal(mono(g3, x1=2), mono(g3, x1=1, x2=1), mono(g3, x2=3)))
        samples.append(ideal_power(expand_squarefree(sf(g3, 2, 3)), 2))
        g4 = GroundSet.contiguous(4)
        samples.append(ideal_power(expand_squarefree(sf(g4, 2, 4)), 2))
        samples.append(ideal(mono(g4, x1=1, x2=2, x3=1), mono(g4, x2=1, x4=2)))
        for J in samples:
            comps = irreducible_decomposition(J)
            bounds = [max(column) + 1 for column in zip(*J.vectors)]
            for vec in box_vectors(bounds):
                w = Monomial(J.ground, vec)
                assert (w in J) == all(w in c for c in comps), (J, w)

    def test_components_are_irredundant(self):
        g3 = GroundSet.contiguous(3)
        J = ideal_power(expand_squarefree(sf(g3, 2, 3)), 2)
        comps = irreducible_decomposition(J)
        # dropping any single component must strictly enlarge the intersection
        bounds = [max(column) + 1 for column in zip(*J.vectors)]
        for skip in range(len(comps)):
            rest = [c for t, c in enumerate(comps) if t != skip]
            witness_found = False
            for vec in box_vectors(bounds):
                w = Monomial(J.ground, vec)
                if all(w in c for c in rest) and w not in comps[skip]:
                    witness_found = True
                    break
            assert witness_found, f"component {comps[skip]} is redundant"


class TestAssociatedPrimes:
    def test_worked_minimal_primes(self, worked_generator):
        primes = associated_primes(expand_squarefree(worked_generator))
        assert set(primes) == {
            (1,),
            (3, 4),
            (2, 5),
            (2, 4),
            (2, 3),
            (4, 5),
            (3, 5),
        }

    def test_embedded_with_witnesses(self):
        g2 = GroundSet.contiguous(2)
        J = ideal(mono(g2, x1=2), mono(g2, x1=1, x2=1))
        witnessed = associated_primes(J, with_witnesses=True)
        assert set(witnessed) == {(1,), (1, 2)}
        for prime, w in witnessed.items():
            got = colon(J, w)
            assert {m.support[0] for m in got.generators} == set(prime)
            assert all(m.degree == 1 for m in got.generators)

    def test_principal_prime(self, g3):
        assert associated_primes(ideal(mono(g3, x1=1))) == ((1,),)

    def test_witness_soundness_across_small_ideals(self):
        for n in (2, 3):
            for u in all_squarefree(n):
                J = ideal_power(expand_squarefree(u), 2)
                for prime, w in associated_primes(J, with_witnesses=True).items():
                    got = colon(J, w)
                    assert all(m.degree == 1 for m in got.generators)
                    assert {m.support[0] for m in got.generators} == set(prime)


class TestMInAss:
    def test_examples(self, g3):
        J = expand_squarefree(sf(g3, 2, 3))
        assert m_in_ass(ideal_power(J, 2))
        assert not m_in_ass(J)
        g2 = GroundSet.contiguous(2)
        assert not m_in_ass(ideal(mono(g2, x1=1, x2=1)))

    def test_agrees_with_full_prime_list(self):
        for n in (1, 2, 3, 4):
            everything = tuple(range(1, n + 1))
            for u in all_squarefree(n):
                for k in (1, 2):
                    J = ideal_power(expand_squarefree(u), k)
                    assert m_in_ass(J) == (everything in associated_primes(J))

    def test_rejects_improper(self, g3):
        with pytest.raises(ValueError):
            m_in_ass(ideal(Monomial.unit(g3)))


class TestAssProfile:
    def test_worked_sizes(self, worked_generator):
        profile = ass_profile(worked_generator, kmax=3)
        assert [len(profile.primes_at(k)) for k in (1, 2, 3)] == [7, 11, 12]
        chain = [set(profile.primes_at(k)) for k in (1, 2, 3)]
        assert chain[0] < chain[1] < chain[2]
        assert profile.stable_from is None  # growth up to the scanned edge

    def test_stable_immediately(self):
        g1 = GroundSet.contiguous(1)
        profile = ass_profile(sf(g1, 1), kmax=3)
        assert all(profile.primes_at(k) == ((1,),) for k in (1, 2, 3))
        assert profile.stable_from == 1

    def test_maximal_appears_at_two(self, g3):
        profile = ass_profile(sf(g3, 2, 3), kmax=2)
        assert (1, 2, 3) not in profile.primes_at(1)
        assert (1, 2, 3) in profile.primes_at(2)

    def test_frontier_rung_matches_stable_set(self):
        u = sf(GroundSet.contiguous(6), 2, 4, 5, 6)
        start = time.perf_counter()
        profile = ass_profile(u, kmax=3)
        assert time.perf_counter() - start < 5
        assert [len(profile.primes_at(k)) for k in (1, 2, 3)] == [17, 38, 39]
        entries = stable_set_enumerate(u, members_only=True)
        for k in (1, 2, 3):
            predicted = {e.prime for e in entries if e.stability_index <= k}
            assert set(profile.primes_at(k)) == predicted, k

    def test_witnesses_recorded(self, g3):
        profile = ass_profile(sf(g3, 2, 3), kmax=2)
        for k in (1, 2):
            J = ideal_power(expand_squarefree(sf(g3, 2, 3)), k)
            for prime, w in profile.witnesses_by_power[k - 1]:
                got = colon(J, w)
                assert {m.support[0] for m in got.generators} == set(prime)


class TestPersistence:
    def test_worked_example(self, worked_generator):
        assert persistence_scan(worked_generator, kmax=3).ok

    def test_exhaustive_tiny(self):
        for n in (1, 2, 3):
            for u in all_squarefree(n):
                assert persistence_scan(u, kmax=3).ok

    def test_trivial(self):
        g1 = GroundSet.contiguous(1)
        assert persistence_scan(sf(g1, 1), kmax=3).ok


class TestCrossValidate:
    def test_index_two_case(self, g5):
        report = cross_validate(sf(g5, 2, 4, 5), kmax=2)
        assert report.depth_checks == 2
        assert report.sharpness_checks > 0

    def test_bound_case(self, g4):
        # u = x_2 x_3 x_4: the index reaches the degree, sharp at k = 3
        report = cross_validate(sf(g4, 2, 3, 4), kmax=3)
        assert report.membership_checks == 3 * 2**4

    def test_exhaustive_sweep(self):
        for n in (1, 2, 3, 4):
            for u in all_squarefree(n):
                cross_validate(u, kmax=3)

    def test_sampled_width_five(self, g5):
        for idx in [(2, 3), (2, 4, 5), (3, 4, 5), (1, 2, 5)]:
            cross_validate(sf(g5, *idx), kmax=2)

    def test_sampled_width_eight(self):
        # beyond the exhaustive sweeps: six generators of degree 2-5 over n=8;
        # about 2 s on a 2-core x86 VM, 4.4 s when sharing one core with a
        # busy loop, so the budget leaves room for a runner at half speed
        rng = random.Random(2013)
        g8 = GroundSet.contiguous(8)
        start = time.perf_counter()
        for _ in range(6):
            idx = sorted(rng.sample(range(1, 9), rng.randint(2, 5)))
            cross_validate(sf(g8, *idx), kmax=2)
        assert time.perf_counter() - start < 10

    @pytest.mark.parametrize(
        "n", [1, 2, 3, 4, 5, 6, 7, pytest.param(8, marks=pytest.mark.oracle_n8)]
    )
    def test_exhaustive_full_depth(self, n):
        # kmax = astab(u) + 1, astab the largest finite lambda_A: the closed
        # form only picks how deep to look, cross_validate checks every power
        # up to one past the last change with the oracle alone.  On a 2-core
        # x86 VM n = 6 takes about 1.8 s (3.6 s at half speed, budget 15 s)
        # and n = 7 about 13 s (26 s at half speed, budget 45 s).  n = 8 is
        # opt-in (``-m oracle_n8``): its largest box has about 4.3 x 10^7
        # cells, so it needs ceiling=10**8; about 150 s (300 s at half
        # speed, budget 600 s)
        budget = {7: 45, 8: 600}.get(n, 15)
        ceiling = 10**8 if n == 8 else assprimes.CELL_CEILING
        start = time.perf_counter()
        for u in all_squarefree(n):
            finite = [
                lam
                for members in all_subsets(n)
                if (lam := lambda_of_prime(u, VariableSubset(u.ground, members)))
                != math.inf
            ]
            report = cross_validate(u, kmax=max(finite) + 1, ceiling=ceiling)
            # every index was reached, so every one was checked for sharpness
            assert report.sharpness_checks == len(finite), u
        assert time.perf_counter() - start < budget

    def test_worked_example_full_depth(self, worked_generator):
        report = cross_validate(worked_generator, kmax=3)
        assert report.depth_checks == 3
        assert report.sharpness_checks == 12  # one per stable-set member


class TestLocalizationCommutesWithAss:
    def test_exhaustive(self):
        for n in (2, 3, 4, 5):
            g = GroundSet.contiguous(n)
            for u in all_squarefree(n):
                J = expand_squarefree(u)
                for k in (1, 2):
                    Jk = ideal_power(J, k)
                    primes = set(associated_primes(Jk))
                    for size in range(1, n):
                        for members in itertools.combinations(range(1, n + 1), size):
                            A = VariableSubset(g, members)
                            local = localize_by_saturation(J, A)
                            if local.is_unit:
                                inside = False
                            else:
                                inside = m_in_ass(ideal_power(local, k))
                            assert (A.complement in primes) == inside, (u, members, k)


def _colon_cells(J):
    """Every cell ``w`` of the box with ``J : w`` an exact monomial prime,
    in lex order, paired with that prime as a sorted label tuple."""
    ground = J.ground
    bounds = [max(column) for column in zip(*J.vectors)]
    for vec in box_vectors(bounds):
        q = colon(J, Monomial(ground, vec))
        if q.generators and all(m.degree == 1 for m in q.generators):
            yield vec, tuple(sorted(m.support[0] for m in q.generators))


def _primes_by_colon_enumeration(J):
    """Every monomial prime arising as an exact colon J : w over the box.

    The most literal reading of the definition; stronger than per-prime
    witness confirmation because it would also expose primes the
    decomposition route missed.
    """
    return {prime for _, prime in _colon_cells(J)}


def test_decomposition_route_equals_colon_enumeration():
    rng = random.Random(99)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 4)
        g = GroundSet.contiguous(n)
        gens = []
        for _ in range(rng.randint(1, 5)):
            vec = tuple(rng.randint(0, 3) for _ in range(n))
            if any(vec):
                gens.append(Monomial(g, vec))
        if not gens:
            continue
        J = minimalize(gens)
        if J.is_unit:
            continue
        assert set(associated_primes(J)) == _primes_by_colon_enumeration(J), J
        checked += 1


def test_sweep_agrees_with_colon_referee():
    # the socle cells are the colon cells w with w_i = b_i off the prime
    seen = {"n=1": 0, "b_i=0": 0, "vars 2,5,7": 0}
    for J in referee_corpus():
        ground = J.ground
        bounds = [max(column) for column in zip(*J.vectors)]
        colon_cells = list(_colon_cells(J))
        socle = [
            (vec, prime)
            for vec, prime in colon_cells
            if all(e == b for i, e, b in zip(ground, vec, bounds) if i not in prime)
        ]
        expected = {}
        for vec, prime in socle:
            expected.setdefault(prime, vec)
        assert set(expected) == {prime for _, prime in colon_cells}, J

        witnessed = associated_primes(J, with_witnesses=True)
        assert list(witnessed) == sorted(expected, key=lambda p: (len(p), p)), J
        assert {p: w.vector for p, w in witnessed.items()} == expected, J
        components = sorted(c.vector for c in irreducible_decomposition(J))
        assert components == sorted(
            tuple(e + 1 if i in prime else 0 for i, e in zip(ground, vec))
            for vec, prime in socle
        ), J
        assert m_in_ass(J) == (ground.indices in expected), J

        seen["n=1"] += len(ground) == 1
        seen["b_i=0"] += 0 in bounds
        seen["vars 2,5,7"] += ground.indices == (2, 5, 7)
    assert all(count >= 5 for count in seen.values()), seen


def test_certificate_equals_colon_referee():
    # tests (a) and (b) decide J : w = P exactly as the built colon ideal
    # does, for every in-box w and every position set p; the cases where
    # only (a) fails and where only (b) fails both occur, so neither test
    # can be dropped
    seen = {"prime": 0, "only (a) fails": 0, "only (b) fails": 0}
    for J in referee_corpus():
        n = len(J.ground)
        bounds = [max(column) for column in zip(*J.vectors)]
        unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        position_sets = [p for r in range(n + 1) for p in itertools.combinations(range(n), r)]
        columns = assprimes._columns(J.vectors, bounds)
        for w in box_vectors(bounds):
            got = set(colon(J, Monomial(J.ground, w)).vectors)
            for p in position_sets:
                expected = got == {unit[i] for i in p}
                assert assprimes._colon_is_prime(columns, bounds, w, p) == expected, (J, w, p)
                raised = [w[:i] + (w[i] + 1,) + w[i + 1 :] for i in p]
                top = tuple(e if i in p else c for i, (e, c) in enumerate(zip(w, bounds)))
                holds_a = all(Monomial(J.ground, v) in J for v in raised)
                holds_b = Monomial(J.ground, top) not in J
                seen["prime"] += expected
                seen["only (a) fails"] += holds_b and not holds_a
                seen["only (b) fails"] += holds_a and not holds_b
    assert all(count >= 100 for count in seen.values()), seen


def _scan_certificate(J, bounds, w, p):
    """Tests (a) and (b) by a linear scan of the generators for each cell."""
    raised = [w[:i] + (w[i] + 1,) + w[i + 1 :] for i in p]
    top = tuple(e if i in p else b for i, (e, b) in enumerate(zip(w, bounds)))
    holds_a = all(Monomial(J.ground, v) in J for v in raised)
    return holds_a and Monomial(J.ground, top) not in J


def test_column_certificate_equals_generator_scan():
    # the witness of every prime gets the same verdict from the column table
    # as from scanning the generators, on the corpus and on the lambda-witness
    # powers I^(i-1) and I^i with d <= 5 (up to 2,522 generators); on the
    # corpus so does every one-step move of a witness inside the box, which
    # the certificate must refuse or accept exactly as the scan does
    witness_powers = [
        power_generators(lambda_value_witness(d, i)[0], k)
        for d in range(2, 6)
        for i in range(2, d + 1)
        for k in (i - 1, i)
    ]
    cases = [(J, True) for J in referee_corpus()] + [(J, False) for J in witness_powers]
    verdicts = {True: 0, False: 0}
    for J, with_moves in cases:
        bounds = [max(column) for column in zip(*J.vectors)]
        columns = assprimes._columns(J.vectors, bounds)
        for prime, witness in associated_primes(J, with_witnesses=True).items():
            w, p = witness.vector, tuple(J.ground.position(i) for i in prime)
            moves = [
                w[:j] + (e + step,) + w[j + 1 :]
                for j, (e, b) in enumerate(zip(w, bounds))
                for step in (1, -1)
                if with_moves and 0 <= e + step <= b
            ]
            for v in (w, *moves):
                verdict = assprimes._colon_is_prime(columns, bounds, v, p)
                assert verdict == _scan_certificate(J, bounds, v, p), (J, v, p)
                verdicts[verdict] += 1
    assert min(verdicts.values()) >= 1000, verdicts


@pytest.mark.parametrize("step", [1, -1], ids=["raised", "lowered"])
def test_forged_witness_fails_the_certificate(step, monkeypatch):
    # a socle cell moved one step on an axis inside the box: raised below
    # its bound it lands in J, which (b) catches; lowered it leaves w * x_j
    # outside J, which (a) catches
    J = ideal_power(expand_squarefree(sf(GroundSet.contiguous(4), 2, 4)), 2)
    real = assprimes._socle_cells

    def forged(*args):
        bounds, cells = real(*args)
        for w in cells:
            for j, (e, b) in enumerate(zip(w, bounds)):
                if 0 <= e + step <= b:
                    moved = w[:j] + (e + step,) + w[j + 1 :]
                    # first in the list, so it is the witness of its prime
                    return bounds, [moved] + [c for c in cells if c != w]
        raise AssertionError("no cell can be moved")

    associated_primes(J)
    monkeypatch.setattr(assprimes, "_socle_cells", forged)
    with pytest.raises(AssertionError, match="the socle sweep is buggy"):
        associated_primes(J)


def test_generator_ceiling(g3):
    J = expand_squarefree(sf(g3, 2, 3))
    with pytest.raises(ResourceLimitError):
        irreducible_decomposition(J, ceiling=2)
    with pytest.raises(ResourceLimitError):
        m_in_ass(J, ceiling=2)


@pytest.mark.parametrize("scan", [ass_profile, persistence_scan, cross_validate])
def test_over_ceiling_power_refused_before_any_work(scan, monkeypatch):
    from borelstab import assprimes

    # I = (x_1, ..., x_6): the box of I has 2^6 = 64 cells, that of I^2 3^6 = 729
    calls = []

    def counting(name):
        real = getattr(assprimes, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        return wrapper

    for name in ("_socle", "_powers"):
        monkeypatch.setattr(assprimes, name, counting(name))
    with pytest.raises(ResourceLimitError, match="729 box cells"):
        scan(sf(GroundSet.contiguous(6), 6), kmax=2, ceiling=100)
    assert calls == []
