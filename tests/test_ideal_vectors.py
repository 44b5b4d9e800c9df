"""``MonomialIdeal`` stores its generators' exponent vectors: the
constructor accepts vectors, each ideal runs the minimality rule once, and
the kernels build no ``Monomial`` per generator or per Borel move."""

import itertools
import random

import pytest

from borelstab import (
    GroundSet,
    GroundSetMismatch,
    Monomial,
    MonomialIdeal,
    VariableSubset,
    borel_closure,
    colon,
    expand_squarefree,
    ideal_power,
    localize_by_saturation,
    minimalize,
    power_generators,
    saturate,
)
from borelstab import monomials
from borelstab.monomials import _minimal_vectors, _powers
from conftest import mono, ref_minimal_vectors, sf


def test_constructor_accepts_vectors():
    g = GroundSet((2, 5, 7))
    J = MonomialIdeal(g, [(0, 1, 0), (1, 0, 3)])
    assert J.vectors == ((1, 0, 3), (0, 1, 0))
    assert J == MonomialIdeal(g, (Monomial(g, (0, 1, 0)), Monomial(g, (1, 0, 3))))
    assert J.generators == (Monomial(g, (1, 0, 3)), Monomial(g, (0, 1, 0)))
    assert MonomialIdeal(g, [(0, 1, 0), Monomial(g, (1, 0, 3))]) == J


@pytest.mark.parametrize("vec", [(1, 2), (1, 2, 3, 4), (1, -1, 0)])
def test_constructor_rejects_bad_vectors(vec):
    with pytest.raises(ValueError):
        MonomialIdeal(GroundSet.contiguous(3), [vec])


# (generators, message) pairs over n = 3: the exact messages a direct
# construction gives, the first bad generator in order deciding
BAD_GENERATOR_LISTS = [
    ([(1, 0, 0), (1, 0, 0)], "non-minimal generating set: 1 of 2 generators redundant"),
    ([(1, 0, 0), (1, 1, 0)], "non-minimal generating set: 1 of 2 generators redundant"),
    (
        [(1, 1, 0), (0, 1, 0), (0, 1, 0), (2, 1, 0)],
        "non-minimal generating set: 3 of 4 generators redundant",
    ),
    ([(0, 0, 0), (1, 0, 0)], "non-minimal generating set: 1 of 2 generators redundant"),
    ([(1, 0)], "(1, 0) does not match the ground set (1, 2, 3)"),
    ([(1, 0, 0), (1, 0, 0, 0)], "(1, 0, 0, 0) does not match the ground set (1, 2, 3)"),
    ([(1, -1, 0)], "negative exponent in (1, -1, 0)"),
    ([(1, 0, 0), (1, -1, 0), (1, 0)], "negative exponent in (1, -1, 0)"),
    ([[1, 0], (1, -1, 0)], "(1, 0) does not match the ground set (1, 2, 3)"),
]


@pytest.mark.parametrize("gens, message", BAD_GENERATOR_LISTS)
def test_direct_construction_messages(gens, message):
    with pytest.raises(ValueError) as caught:
        MonomialIdeal(GroundSet.contiguous(3), gens)
    assert type(caught.value) is ValueError
    assert str(caught.value) == message


def test_direct_construction_rejects_other_ground():
    g3 = GroundSet.contiguous(3)
    with pytest.raises(GroundSetMismatch, match="generator over a different ground set"):
        MonomialIdeal(g3, [(1, 0, 0), Monomial(GroundSet.contiguous(2), (0, 1))])
    assert MonomialIdeal(g3, [[0, 1, 0], [1, 0, 0]]).vectors == ((1, 0, 0), (0, 1, 0))


@pytest.fixture
def minimality_passes(monkeypatch):
    """Counts the calls of the minimality rule while the test runs."""
    calls = []
    real = monomials._minimal_vectors

    def counting(vecs):
        calls.append(1)
        return real(vecs)

    monkeypatch.setattr(monomials, "_minimal_vectors", counting)
    return calls


def test_one_minimality_pass_per_ideal(minimality_passes):
    g = GroundSet.contiguous(6)
    u = sf(g, 2, 4, 6)
    J = expand_squarefree(u)
    one_ideal = {
        "power_generators": lambda: power_generators(u, 3),
        "expand_squarefree": lambda: expand_squarefree(u),
        "borel_closure": lambda: borel_closure(mono(g, x2=2, x5=1), 2),
        "minimalize": lambda: minimalize(J.generators + J.generators),
        "colon": lambda: colon(J, mono(g, x1=1, x2=1)),
        "saturate": lambda: saturate(J, mono(g, x1=1)),
    }
    for name, build in one_ideal.items():
        minimality_passes.clear()
        assert len(build()) > 0, name
        assert len(minimality_passes) == 1, name
    for kmax in (1, 2, 4):
        minimality_passes.clear()
        chain = _powers(J, kmax)
        assert len(chain) == kmax and chain[0] is J
        assert len(minimality_passes) == kmax - 1  # J itself is reused


def _one_degree_vectors(rng, n, degree, count):
    """``count`` random vectors over ``n`` variables, all of one degree."""
    vecs = []
    for _ in range(count):
        cuts = sorted(rng.randint(0, degree) for _ in range(n - 1))
        vecs.append(tuple(b - a for a, b in zip([0] + cuts, cuts + [degree])))
    return vecs


def test_minimal_vectors_equal_pairwise_referee():
    rng = random.Random(2013)
    seen = {"one degree": 0, "mixed": 0}
    for _ in range(400):
        n = rng.randint(1, 5)
        if rng.random() < 0.5:
            vecs = _one_degree_vectors(rng, n, rng.randint(0, 4), rng.randint(1, 12))
            kind = "one degree"
        else:
            vecs = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 12))]
            kind = "mixed" if len(set(map(sum, vecs))) > 1 else "one degree"
        vecs += rng.choices(vecs, k=rng.randint(1, 3))  # always some duplicates
        rng.shuffle(vecs)
        kept = _minimal_vectors(vecs)
        assert kept == sorted(ref_minimal_vectors(vecs), reverse=True), vecs
        assert all(a > b for a, b in itertools.pairwise(kept))
        seen[kind] += 1
    assert min(seen.values()) >= 100, seen


@pytest.fixture
def monomials_built(monkeypatch):
    """Counts every ``Monomial`` constructed while the test runs."""
    built = []
    real = Monomial.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(Monomial, "__post_init__", counting)
    return built


def test_kernels_build_no_monomial_per_generator(monomials_built):
    g = GroundSet.contiguous(8)
    u = sf(g, 2, 4, 6, 8)
    assert len(power_generators(u, 3)) == 3225
    assert len(monomials_built) <= 1  # u^3, the seed of the closure
    monomials_built.clear()
    J = ideal_power(expand_squarefree(u), 2)
    assert len(J) == 509
    assert len(monomials_built) <= 1  # u, the seed of the expansion
    monomials_built.clear()
    local = localize_by_saturation(J, VariableSubset(g, (1, 3)))
    assert len(local) == 81 and not monomials_built
