"""The brute-force oracle: decomposition soundness, witnessed primes,
profiles, persistence and cross-validation."""

import itertools
import math
import random
import time
import tracemalloc
from types import SimpleNamespace

import pytest

from borelstab import (
    CrossValidationError,
    GroundSet,
    Monomial,
    ResourceLimitError,
    SquarefreeMonomial,
    StableSetEntry,
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
from borelstab import assprimes, stability
from conftest import (
    all_squarefree,
    all_subsets,
    box_vectors,
    ideal,
    mono,
    referee_corpus,
    sf,
)


def forge_indices(monkeypatch, forged):
    """Make :func:`cross_validate` read ``forged(lambda_A)`` as the index of
    each row of the stable-set table it checks."""
    real = assprimes.stable_set_enumerate

    def rows(u, **options):
        return [
            StableSetEntry(e.subset, e.generator, e.prime, forged(e.stability_index))
            for e in real(u, **options)
        ]

    monkeypatch.setattr(assprimes, "stable_set_enumerate", rows)


def in_component(vec, component):
    """Whether the monomial ``vec`` lies in the irreducible component given
    by its exponent vector: ``x_j >= e_j`` for some ``e_j > 0``."""
    return any(e and x >= e for x, e in zip(vec, component))


class TestIrreducibleDecomposition:
    # components are exponent vectors, by support size and then by their
    # nonzero (position, exponent) pairs
    def test_single_squarefree_generator(self):
        g2 = GroundSet.contiguous(2)
        comps = irreducible_decomposition(ideal(mono(g2, x1=1, x2=1)))
        assert comps == ((1, 0), (0, 1))

    def test_embedded_example(self):
        g2 = GroundSet.contiguous(2)
        comps = irreducible_decomposition(
            ideal(mono(g2, x1=2), mono(g2, x1=1, x2=1))
        )
        assert comps == ((1, 0), (2, 1))

    def test_triangle(self, g3):
        comps = irreducible_decomposition(
            ideal(
                mono(g3, x1=1, x2=1), mono(g3, x1=1, x3=1), mono(g3, x2=1, x3=1)
            )
        )
        assert comps == ((1, 1, 0), (1, 0, 1), (0, 1, 1))

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
                assert (w in J) == all(in_component(vec, c) for c in comps), (J, w)

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
                if all(in_component(vec, c) for c in rest) and not in_component(vec, comps[skip]):
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
        witnessed = associated_primes(J)
        assert set(witnessed) == {(1,), (1, 2)}
        for prime, w in witnessed.items():
            got = colon(J, w)
            assert {m.support[0] for m in got.generators} == set(prime)
            assert all(m.degree == 1 for m in got.generators)

    def test_principal_prime(self, g3):
        assert list(associated_primes(ideal(mono(g3, x1=1)))) == [(1,)]

    def test_witness_soundness_across_small_ideals(self):
        for n in (2, 3):
            for u in all_squarefree(n):
                J = ideal_power(expand_squarefree(u), 2)
                for prime, w in associated_primes(J).items():
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
        # the m-test returns False unswept when a variable is unused (a
        # bound b_i = 0); held against the full sweep on the powers of each
        # expansion, over 1..n and over vars 2,3,5,7,11 (labels past max(u)
        # are unused), and of each proper localization of it.  The m-test,
        # the m-verdict of _witnesses and the certified primes read one
        # split of the socle, so the referee is the decoded socle: some
        # cell is below b on every axis.  The powers i - 1 and i of each
        # lambda_value_witness(d, i) with d <= 5 have many primes, with and
        # without the maximal ideal among them
        ideals = []
        grounds = [GroundSet.contiguous(n) for n in (1, 2, 3, 4)]
        grounds.append(GroundSet((2, 3, 5, 7, 11)))
        for g in grounds:
            subsets = [
                VariableSubset(g, A) for r in range(1, len(g)) for A in itertools.combinations(g, r)
            ]
            for r in range(1, len(g) + 1):
                for support in itertools.combinations(g, r):
                    expansion = expand_squarefree(SquarefreeMonomial(g, support))
                    local = [localize_by_saturation(expansion, A) for A in subsets]
                    for base in [expansion, *(ideal_A for ideal_A in local if not ideal_A.is_unit)]:
                        ideals += [ideal_power(base, k) for k in (1, 2)]
        for d in range(2, 6):
            for i in range(2, d + 1):
                u = lambda_value_witness(d, i)
                ideals += [power_generators(u, k) for k in (i - 1, i)]
        unused, verdicts = 0, {True: 0, False: 0}
        for J in ideals:
            bounds, cells = assprimes._socle_cells(J.vectors, assprimes.CELL_CEILING)
            below = any(all(e < b for e, b in zip(w, bounds)) for w in cells)
            witnesses, maximal = assprimes._witnesses(J.ground, J.vectors, assprimes.CELL_CEILING)
            assert m_in_ass(J) == maximal == below == (J.ground.indices in witnesses), J
            unused += not all(map(any, zip(*J.vectors)))
            verdicts[below] += 1
        assert unused >= 500, unused
        assert min(verdicts.values()) >= 100, verdicts

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
                got = colon(J, Monomial(g3, w))
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
        # x86 VM n = 6 takes about 0.5 s (1 s at half speed, budget 15 s)
        # and n = 7 about 3.5 s (7 s at half speed, budget 45 s).  n = 8 is
        # opt-in (``-m oracle_n8``): its largest box has about 4.3 x 10^7
        # cells, so it needs ceiling=10**8; about 27 s and a 140 MiB peak
        # (55 s at half speed, budget 600 s)
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

    def test_localization_failure_names_first_subset(self, monkeypatch):
        # the m-test kernel forged to negate its verdict on every localized
        # ideal (fewer than 5 coordinates): the first proper subset, A = {1},
        # localizes x2x3x4 to the proper ideal of x3x4 over 2..5, so it
        # fails there at k = 1
        real = assprimes._m_in_ass

        def negated(vectors, *args):
            return real(vectors, *args) != (len(vectors[0]) < 5)

        monkeypatch.setattr(assprimes, "_m_in_ass", negated)
        with pytest.raises(CrossValidationError) as failure:
            cross_validate(sf(GroundSet.contiguous(5), 2, 3, 4), n=5, kmax=2)
        message = str(failure.value)
        assert "'check': 'localization'" in message, message
        assert "'A': (1,), 'k': 1," in message, message

    # the other three reproducers, each forged on x2x3x4 over 1..5, whose
    # first subset with a finite index is A = {5} with lambda_A = 3

    def test_depth_failure_names_first_power(self, monkeypatch):
        # the depth-zero flag (q = n - 1) forged at every power: the formula
        # claims the maximal ideal at k = 1, where the oracle does not find it
        monkeypatch.setattr(
            assprimes, "quotient_profile", lambda u, k: SimpleNamespace(m_in_ass=True)
        )
        with pytest.raises(CrossValidationError) as failure:
            cross_validate(sf(GroundSet.contiguous(5), 2, 3, 4), 5, 3)
        assert str(failure.value) == (
            "oracle mismatch: {'check': 'depth', 'u': 'x_2x_3x_4', 'k': 1, "
            "'formula': True, 'oracle': False}"
        )

    def test_membership_failure_names_first_subset(self, monkeypatch):
        # every index forged infinite: A = {5} is associated to I^3 anyway
        forge_indices(monkeypatch, lambda lam: math.inf)
        with pytest.raises(CrossValidationError) as failure:
            cross_validate(sf(GroundSet.contiguous(5), 2, 3, 4), 5, 3)
        assert str(failure.value) == (
            "oracle mismatch: {'check': 'membership', 'u': 'x_2x_3x_4', 'A': (5,), "
            "'k': 3, 'lambda': inf, 'expected': False, 'observed': True}"
        )

    def test_sharpness_failure_names_first_subset(self, monkeypatch):
        # every finite index forged half a power early: lambda_A = 2.5
        # passes membership at each k, but P_A is not associated to I^2
        forge_indices(monkeypatch, lambda lam: lam - 0.5)
        with pytest.raises(CrossValidationError) as failure:
            cross_validate(sf(GroundSet.contiguous(5), 2, 3, 4), 5, 3)
        assert str(failure.value) == (
            "oracle mismatch: {'check': 'sharpness', 'u': 'x_2x_3x_4', 'A': (5,), "
            "'lambda': 2.5}"
        )

    @pytest.mark.parametrize(
        "kmax, A, lam", [(1, (1,), 0.5), (2, (), 1.5)], ids=["kmax1", "kmax2"]
    )
    def test_sharpness_failure_below_two(self, monkeypatch, kmax, A, lam):
        # indices forged half a power early on x2x3 over 1..3: an index
        # below 1 at kmax = 1 still yields a reproducer, not an IndexError
        forge_indices(monkeypatch, lambda lam: lam - 0.5)
        with pytest.raises(CrossValidationError) as failure:
            cross_validate(sf(GroundSet.contiguous(3), 2, 3), kmax=kmax)
        assert str(failure.value) == (
            f"oracle mismatch: {{'check': 'sharpness', 'u': 'x_2x_3', 'A': {A}, "
            f"'lambda': {lam}}}"
        )

    def test_membership_referee_runs_on_every_subset(self, monkeypatch):
        # cross_validate reads the rows of stable_set_enumerate, so the
        # combinatorial referee there checks every verdict it validates
        real = stability.stable_membership_combinatorial
        monkeypatch.setattr(
            stability, "stable_membership_combinatorial", lambda u, A: not real(u, A)
        )
        with pytest.raises(AssertionError, match="membership routes disagree"):
            cross_validate(sf(GroundSet.contiguous(3), 2, 3), kmax=2)

    def test_n_mismatch_reported_before_enumeration_bound(self):
        # the bound reads the ground set of u, so a wrong n is named as such
        u = sf(GroundSet.contiguous(3), 2, 3)
        for scan in (cross_validate, ass_profile):
            with pytest.raises(ValueError, match="^n=99 does not match ground set of size 3$"):
                scan(u, 99)

    def test_every_subset_checked_oracle_once_per_ideal(self, monkeypatch):
        # every subset runs its comparisons, while the m-test kernel runs
        # kmax times per distinct projection of I off a nonempty A, a unit
        # localization included (its zero bounds answer at once); the
        # verdicts for A = {} (the powers of I itself) come from the splits
        # that found their primes, so no power of I is split twice
        calls = []
        real = assprimes._m_in_ass

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(assprimes, "_m_in_ass", counting)
        kmax = 3
        for n in range(1, 7):
            for u in all_squarefree(n):
                base = expand_squarefree(u)
                projections = set()
                for members in all_subsets(n):
                    kept = [i for i in range(n) if i + 1 not in members]
                    if members and kept:
                        projections.add(frozenset(tuple(g[i] for i in kept) for g in base.vectors))
                calls.clear()
                report = cross_validate(u, kmax=kmax)
                assert report.localization_checks == (2**n - 1) * kmax, u
                assert report.membership_checks == 2**n * kmax, u
                assert len(calls) == kmax * len(projections), u


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

        witnessed = associated_primes(J)
        assert list(witnessed) == sorted(expected, key=lambda p: (len(p), p)), J
        assert {p: w.vector for p, w in witnessed.items()} == expected, J
        components = sorted(irreducible_decomposition(J))
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
                assert assprimes._colon_is_prime(columns, w, p) == expected, (J, w, p)
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
        power_generators(lambda_value_witness(d, i), k)
        for d in range(2, 6)
        for i in range(2, d + 1)
        for k in (i - 1, i)
    ]
    cases = [(J, True) for J in referee_corpus()] + [(J, False) for J in witness_powers]
    verdicts = {True: 0, False: 0}
    for J, with_moves in cases:
        bounds = [max(column) for column in zip(*J.vectors)]
        columns = assprimes._columns(J.vectors, bounds)
        for prime, witness in associated_primes(J).items():
            w, p = witness.vector, tuple(J.ground.position(i) for i in prime)
            moves = [
                w[:j] + (e + step,) + w[j + 1 :]
                for j, (e, b) in enumerate(zip(w, bounds))
                for step in (1, -1)
                if with_moves and 0 <= e + step <= b
            ]
            for v in (w, *moves):
                verdict = assprimes._colon_is_prime(columns, v, p)
                assert verdict == _scan_certificate(J, bounds, v, p), (J, v, p)
                verdicts[verdict] += 1
    assert min(verdicts.values()) >= 1000, verdicts


@pytest.mark.parametrize("step", [1, -1], ids=["raised", "lowered"])
def test_forged_witness_fails_the_certificate(step, monkeypatch):
    # each prime's decoded cell moved one step inside the box, on an axis
    # of the prime: raised it makes the cell of (b) a multiple of w * x_j,
    # which is in J, so (b) catches it; lowered it makes w itself the (a)
    # test of axis j, and w is outside J, so (a) catches it
    J = ideal_power(expand_squarefree(sf(GroundSet.contiguous(4), 2, 4)), 2)
    real, moved = assprimes._decode, []

    def forged(cell, axes):
        w = real(cell, axes)
        for j, (e, (_, b)) in enumerate(zip(w, axes)):
            if e < b and 0 <= e + step <= b:
                moved.append(w)
                return w[:j] + (e + step,) + w[j + 1 :]
        return w

    associated_primes(J)
    monkeypatch.setattr(assprimes, "_decode", forged)
    with pytest.raises(AssertionError, match="the socle sweep is buggy"):
        associated_primes(J)
    assert moved


def test_witness_is_first_socle_cell_of_its_prime():
    # the per-prime split of the bitset against the decoder of every
    # socle cell: the witness of each prime is the first cell of that
    # prime in lex order.  The last case has 27,295 socle cells on 374 primes
    cases = [
        ideal_power(expand_squarefree(u), k)
        for n in range(1, 6)
        for u in all_squarefree(n)
        for k in (1, 2, 3)
    ]
    cases.append(power_generators(lambda_value_witness(6, 3), 3))
    for J in cases:
        bounds, cells = assprimes._socle_cells(J.vectors, assprimes.CELL_CEILING)
        first = {}
        for w in cells:
            prime = tuple(i for i, e, b in zip(J.ground, w, bounds) if e < b)
            first.setdefault(prime, w)
        witnessed = associated_primes(J)
        assert {p: w.vector for p, w in witnessed.items()} == first, J


def test_split_keeps_few_box_sized_parts():
    # x2...x7 over n = 7 at k = 6: 823,543 cells and 120 primes.  The sweep
    # keeps inside, the socle and one top mask per axis, and the depth-first
    # split at most n + 1 parts; the bound of 4(n + 1) box-sized integers
    # leaves room for temporaries; a split that keeps one part per prime
    # reads 187 here
    n, k = 7, 6
    J = power_generators(SquarefreeMonomial(GroundSet.contiguous(n), tuple(range(2, 8))), k)
    box = (k + 1) ** n / 8
    for run in (associated_primes, m_in_ass):
        tracemalloc.start()
        try:
            run(J)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * (n + 1) * box, (run.__name__, peak / box)


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
