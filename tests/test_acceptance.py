"""Acceptance suite: one test per criterion, each printing a PASS line and
holding to its stated time budget.

Criterion 3 carries an erratum settled by the oracle: the index of the
maximal ideal reaches deg(u) at the extremal generator x_2...x_d x_n and,
in degree 2, at every generator where it is finite.  The criterion asserts
the corrected statement and confirms each degree-2 off-pattern case with
the brute-force depth-zero test on I and I^2.
"""

import io
import itertools
import json
import math
import random
import time

from borelstab import (
    GroundSet,
    Monomial,
    SquarefreeMonomial,
    VariableSubset,
    ass_profile,
    associated_primes,
    colon,
    expand_squarefree,
    ideal_power,
    is_power_generator,
    lambda_max_ideal,
    lambda_of_prime,
    lambda_value_witness,
    localize_by_saturation,
    localize_closed_form,
    m_in_ass,
    minimalize,
    persistence_scan,
    power_generators,
    quotient_profile,
    saturate,
    stable_membership_combinatorial,
    stable_set_enumerate,
)
from borelstab.cli import run
from conftest import (
    WORKED_TABLE,
    all_squarefree,
    all_subsets,
    assert_localizations_compose,
    closure_by_moves,
    cover_positions,
    linear_quotient_set,
    max_preserved,
    power_by_all_products,
    stable_membership_direct,
)


class _Criterion:
    """Context manager that prints the one-line verdict and enforces the budget."""

    def __init__(self, number: int, description: str, budget_seconds: float):
        self.number = number
        self.description = description
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        over_budget = exc_type is None and elapsed >= self.budget
        verdict = "PASS" if exc_type is None and not over_budget else "FAIL"
        print(
            f"ACCEPTANCE {self.number} {verdict} ({elapsed:.1f}s): {self.description}"
        )
        if over_budget:
            raise AssertionError(
                f"criterion {self.number} exceeded its {self.budget}s budget "
                f"({elapsed:.1f}s)"
            )
        return False


def test_criterion_1_stable_set_table_reproduction(worked_generator):
    with _Criterion(1, "stable-set table reproduction with oracle adjudication", 30):
        out = io.StringIO()
        code = run(
            ["stable-set", "--u", "1,3,4,5", "--n", "5", "--format", "json"], out=out
        )
        assert code == 0
        entries = json.loads(out.getvalue())["entries"]
        assert len(entries) == 12
        got = {
            (
                tuple(e["A"]),
                tuple(sorted(int(i) for i in e["uA"])),
                e["lambda"],
            )
            for e in entries
        }
        assert got == set(WORKED_TABLE)
        # the emitted prime is the complement of A on every row
        for e in entries:
            assert tuple(e["prime"]) == tuple(
                i for i in range(1, 6) if i not in set(e["A"])
            )
        # adjudicate the A = {1} row: the complement prime appears at k = 3
        # and not before, while the published non-complement one never does
        profile = ass_profile(worked_generator, kmax=3)
        complement_prime = (2, 3, 4, 5)
        published_prime = (1, 2, 3, 4)
        assert complement_prime in profile.primes_at(3)
        assert complement_prime not in profile.primes_at(2)
        for k in (1, 2, 3):
            assert published_prime not in profile.primes_at(k)


def test_criterion_2_oracle_profile_sizes(worked_generator):
    with _Criterion(2, "oracle profile sizes 7 / 11 / 12 equal the stable set", 120):
        profile = ass_profile(worked_generator, kmax=3)
        sets = [set(profile.primes_at(k)) for k in (1, 2, 3)]
        assert [len(s) for s in sets] == [7, 11, 12]
        assert sets[0] < sets[1] < sets[2]
        members = stable_set_enumerate(worked_generator, members_only=True)
        assert sets[2] == {e.prime for e in members}


def test_criterion_3_lambda_bound_and_equality():
    with _Criterion(
        3, "index bounded by degree, equality at the pattern or in degree <= 2", 5
    ):
        off_pattern = set()
        for n in range(1, 8):
            for u in all_squarefree(n):
                lam = lambda_max_ideal(u)
                d = u.degree
                pattern = (tuple(range(2, d + 1)) + (n,)) if d > 1 else (n,)
                at_pattern = u.indices == pattern
                if at_pattern:
                    assert lam == d, (u.indices, n, lam)
                if lam == math.inf:
                    continue
                assert lam <= d, (u.indices, n, lam)
                if d >= 3:
                    assert (lam == d) == at_pattern, (u.indices, n, lam)
                else:
                    # degree 2: lambda in {2, inf}; degree 1: lambda = 1
                    assert lam == d, (u.indices, n, lam)
                if lam == d and not at_pattern:
                    off_pattern.add((n, u.indices))
        # the erratum: equality off the pattern is exactly x_a x_n, 3 <= a < n
        expected = {(n, (a, n)) for n in range(4, 8) for a in range(3, n)}
        assert off_pattern == expected, sorted(off_pattern ^ expected)
        # the oracle, independently of the closed form: m enters Ass at k = 2
        for n, indices in sorted(expected):
            J = expand_squarefree(SquarefreeMonomial(GroundSet.contiguous(n), indices))
            assert not m_in_ass(J), (n, indices, 1)
            assert m_in_ass(ideal_power(J, 2)), (n, indices, 2)


def test_criterion_4_constructed_generators_hit_every_index():
    with _Criterion(4, "constructed generators realize every index, sharply", 300):
        for d in range(2, 7):
            for i in range(2, d + 1):
                u = lambda_value_witness(d, i)
                assert lambda_max_ideal(u) == i, (d, i)
        for d in (2, 3):
            for i in range(2, d + 1):
                u = lambda_value_witness(d, i)
                base = expand_squarefree(u)
                for k in range(1, i + 1):
                    assert m_in_ass(power_by_all_products(base, k)) == (k == i), (d, i, k)


def test_criterion_4_sharp_by_the_oracle():
    # every witness with d <= 6: m is not associated to I^(i-1) and is to
    # I^i, by the brute-force sweep alone; about 2.3 s on a 2-core x86 VM,
    # most of it building the powers, so a runner at half speed (4.6 s)
    # still has twice that within the budget
    with _Criterion(4, "the oracle confirms every witness index is sharp, d <= 6", 10):
        for d in range(2, 7):
            for i in range(2, d + 1):
                u = lambda_value_witness(d, i)
                assert not m_in_ass(power_generators(u, i - 1)), (d, i, i - 1)
                assert m_in_ass(power_generators(u, i)), (d, i, i)


def test_criterion_4_witness_primes_by_the_oracle():
    # Ass(I^k) at k = i-1 and k = i for every witness with d <= 6 is the
    # closed form's {P_A : A in the stable set, lambda_A <= k}; the largest
    # power is (6,3)^3 with 30,747 generators.  About 2.1 s on a 2-core x86
    # VM, so a runner at half speed (4.2 s) still fits the 6 s budget
    with _Criterion(4, "the oracle finds exactly the predicted primes, d <= 6", 6):
        for d in range(2, 7):
            for i in range(2, d + 1):
                u = lambda_value_witness(d, i)
                members = stable_set_enumerate(u, members_only=True)
                for k in (i - 1, i):
                    predicted = {e.prime for e in members if e.stability_index <= k}
                    found = set(associated_primes(power_generators(u, k)))
                    assert found == predicted, (d, i, k)


def test_criterion_5_depth_formula_equals_oracle():
    with _Criterion(5, "q = n-1 iff the oracle sees the maximal ideal", 600):
        for n in range(1, 6):
            for u in all_squarefree(n):
                base = expand_squarefree(u)
                for k in (1, 2, 3):
                    formula = quotient_profile(u, k).m_in_ass
                    oracle = m_in_ass(power_by_all_products(base, k))
                    assert formula == oracle, (u.indices, n, k, formula, oracle)


def test_criterion_6_colon_formula_soundness():
    with _Criterion(6, "colon-variable formula equals brute-force colons", 300):
        for n in range(1, 6):
            for u in all_squarefree(n):
                for k in (1, 2):
                    gens = power_generators(u, k).generators
                    for i in range(1, len(gens) + 1):
                        fast = linear_quotient_set(gens, i, k)
                        if i == 1:
                            assert fast == frozenset()
                            continue
                        brute = colon(minimalize(gens[: i - 1]), gens[i - 1])
                        assert all(
                            m.degree == 1 for m in brute.generators
                        ), "colon not variable-generated"
                        assert {
                            m.support[0] for m in brute.generators
                        } == set(fast), (u.indices, n, k, i)


def test_criterion_7_localization_equivalence():
    with _Criterion(7, "closed-form localization equals saturation", 120):
        for n in range(1, 7):
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
                    if loc is None:
                        assert sat.is_unit, (u.indices, members)
                    else:
                        assert sat == expand_squarefree(loc), (
                            u.indices,
                            members,
                        )
        # a thousand sampled proper chains A strictly inside B
        rng = random.Random(20240214)
        n = 6
        g = GroundSet.contiguous(n)
        pool = list(all_squarefree(n))
        for _ in range(1000):
            u = rng.choice(pool)
            b = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
            a = tuple(sorted(rng.sample(b, rng.randint(0, len(b) - 1))))
            assert_localizations_compose(u, VariableSubset(g, a), VariableSubset(g, b))


def test_criterion_8_power_membership_predicate():
    with _Criterion(8, "partial-sum membership equals closure membership", 300):
        for n in range(1, 6):
            g = GroundSet.contiguous(n)
            for u in all_squarefree(n):
                if u.degree > 3:
                    continue
                for k in (1, 2, 3):
                    members = {
                        m.exponent_vector()
                        for m in closure_by_moves(u.power(k), k).generators
                    }
                    target = k * u.degree
                    for vec in itertools.product(range(k + 1), repeat=n):
                        if sum(vec) != target:
                            continue
                        w = Monomial(g, vec)
                        assert is_power_generator(w, u, k) == (vec in members), (
                            u.indices,
                            n,
                            k,
                            vec,
                        )


def test_criterion_9_top_index_equivalences():
    with _Criterion(9, "three-way equivalence for losing the top index", 120):
        for n in range(1, 8):
            g = GroundSet.contiguous(n)
            for u in all_squarefree(n):
                idx = u.indices
                d = len(idx)
                for members in all_subsets(n):
                    if members and members[-1] > idx[-1]:
                        continue  # outside the standing hypothesis of the criterion
                    A = VariableSubset(g, members)
                    s = len(members)
                    loc = localize_closed_form(u, A)
                    dropped = loc is None or loc.max_index < idx[-1]
                    index_cond = False  # some k_{s-j} exceeds i_{d-j-1}
                    for j in range(s):
                        below = d - j - 1
                        threshold = idx[below - 1] if below >= 1 else 0
                        if members[s - j - 1] > threshold:
                            index_cond = True
                            break
                    covers = cover_positions(A, u)
                    cover_cond = any(
                        covers[s - j - 1] is not None and covers[s - j - 1] >= d - j
                        for j in range(s)
                    )
                    assert dropped == index_cond == cover_cond, (idx, members)
                    assert max_preserved(u, A) == (not dropped)


def test_criterion_10_persistence(worked_generator):
    with _Criterion(10, "persistence of associated primes", 600):
        for u in all_squarefree(4):
            report = persistence_scan(u, kmax=3)
            assert report.ok, (u.indices, report.violations)
        report = persistence_scan(worked_generator, kmax=3)
        assert report.ok, report.violations


def test_criterion_11_membership_double_route():
    with _Criterion(11, "combinatorial membership equals the direct route", 60):
        for n in range(1, 7):
            g = GroundSet.contiguous(n)
            for u in all_squarefree(n):
                for members in all_subsets(n):
                    A = VariableSubset(g, members)
                    direct = stable_membership_direct(u, A)
                    assert direct == stable_membership_combinatorial(u, A), (
                        u.indices,
                        n,
                        members,
                    )
