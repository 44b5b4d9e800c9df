"""``MonomialIdeal`` stores its generators' exponent vectors: the
constructor accepts vectors, the Borel walk's ideals run no minimality
pass and every other kernel's run one, and the kernels build no
``Monomial`` per generator or per Borel move."""

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
from borelstab import assprimes, localization, monomials
from borelstab.monomials import _minimal_vectors, _powers
from conftest import mono, ref_minimal_vectors, sf


def test_constructor_accepts_vectors():
    g = GroundSet((2, 5, 7))
    J = MonomialIdeal(g, [(0, 1, 0), (1, 0, 3)])
    assert J.vectors == ((1, 0, 3), (0, 1, 0))
    assert J == MonomialIdeal(g, (Monomial(g, (0, 1, 0)), Monomial(g, (1, 0, 3))))
    assert J.generators == (Monomial(g, (1, 0, 3)), Monomial(g, (0, 1, 0)))
    assert MonomialIdeal(g, [(0, 1, 0), Monomial(g, (1, 0, 3))]) == J
    assert MonomialIdeal(g, (v for v in [(0, 1, 0), (1, 0, 3)])) == J  # read once


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


LONG_N8 = "(1, 2, 3, 4, 5, 6, 7, 8)"
# the messages of BAD_GENERATOR_LISTS, each bad list lifted to n = 8 by
# five trailing zeros and appended to the 3,225 generators of
# (x2x4x6x8)^3 over n = 8
LONG_LIST_MESSAGES = [
    "non-minimal generating set: 2934 of 3227 generators redundant",
    "non-minimal generating set: 2934 of 3227 generators redundant",
    "non-minimal generating set: 2936 of 3229 generators redundant",
    "non-minimal generating set: 3226 of 3227 generators redundant",
    f"(1, 0, 0, 0, 0, 0, 0) does not match the ground set {LONG_N8}",
    f"(1, 0, 0, 0, 0, 0, 0, 0, 0) does not match the ground set {LONG_N8}",
    "negative exponent in (1, -1, 0, 0, 0, 0, 0, 0)",
    "negative exponent in (1, -1, 0, 0, 0, 0, 0, 0)",
    f"(1, 0, 0, 0, 0, 0, 0) does not match the ground set {LONG_N8}",
]


@pytest.fixture(scope="module")
def long_vectors():
    return list(power_generators(sf(GroundSet.contiguous(8), 2, 4, 6, 8), 3).vectors)


@pytest.mark.parametrize(
    "bad, message",
    [(gens, message) for (gens, _), message in zip(BAD_GENERATOR_LISTS, LONG_LIST_MESSAGES)],
)
def test_long_list_messages(long_vectors, bad, message):
    """A bad generator after a long valid list is named as it is in a
    short one: the check goes one generator at a time, in order."""
    assert len(long_vectors) == 3225
    lifted = [v + type(v)((0,) * 5) for v in bad]
    with pytest.raises(ValueError) as caught:
        MonomialIdeal(GroundSet.contiguous(8), long_vectors + lifted)
    assert type(caught.value) is ValueError
    assert str(caught.value) == message


def test_long_list_repeat_and_other_ground(long_vectors):
    g8 = GroundSet.contiguous(8)
    with pytest.raises(ValueError) as caught:
        MonomialIdeal(g8, long_vectors + long_vectors[-1:])
    assert str(caught.value) == "non-minimal generating set: 1 of 3226 generators redundant"
    other = Monomial(GroundSet((1, 2, 3, 4, 5, 6, 7, 9)), (1,) * 8)
    with pytest.raises(GroundSetMismatch, match="generator over a different ground set"):
        MonomialIdeal(g8, long_vectors + [other])
    as_monomials = [Monomial(g8, v) for v in long_vectors]
    with pytest.raises(ValueError, match=r"^\(1, 1, 1, 1, 1, 1, 1\) does not match"):
        MonomialIdeal(g8, as_monomials + [(1,) * 7])
    assert MonomialIdeal(g8, as_monomials).vectors == tuple(long_vectors)


def test_direct_construction_rejects_other_ground():
    g3 = GroundSet.contiguous(3)
    with pytest.raises(GroundSetMismatch, match="generator over a different ground set"):
        MonomialIdeal(g3, [(1, 0, 0), Monomial(GroundSet.contiguous(2), (0, 1))])
    assert MonomialIdeal(g3, [[0, 1, 0], [1, 0, 0]]).vectors == ((1, 0, 0), (0, 1, 0))


@pytest.fixture
def minimality_passes(monkeypatch):
    """Counts the calls of the minimality rule, in every module that
    imports it, while the test runs."""
    calls = []
    real = monomials._minimal_vectors

    def counting(vecs):
        calls.append(1)
        return real(vecs)

    for module in (assprimes, localization, monomials):
        monkeypatch.setattr(module, "_minimal_vectors", counting)
    return calls


def test_minimality_passes_per_ideal(minimality_passes):
    # the walk's list is minimal by its proof and enters as it is; a kernel
    # whose vectors can repeat or divide runs the rule once; a power runs
    # it once per product step
    g = GroundSet.contiguous(6)
    u = sf(g, 2, 4, 6)
    J = expand_squarefree(u)
    passes = {
        "power_generators": (lambda: power_generators(u, 3), 0),
        "expand_squarefree": (lambda: expand_squarefree(u), 0),
        "borel_closure": (lambda: borel_closure(mono(g, x2=2, x5=1), 2), 0),
        "minimalize": (lambda: minimalize(J.generators + J.generators), 1),
        "colon": (lambda: colon(J, mono(g, x1=1, x2=1)), 1),
        "saturate": (lambda: saturate(J, mono(g, x1=1)), 1),
        "localize_by_saturation": (
            lambda: localize_by_saturation(J, VariableSubset(g, (1, 3))),
            1,
        ),
    }
    for name, (build, expected) in passes.items():
        minimality_passes.clear()
        assert len(build()) > 0, name
        assert len(minimality_passes) == expected, name
    for kmax in (1, 2, 4):
        minimality_passes.clear()
        chain = _powers(J.vectors, kmax)
        assert len(chain) == kmax and chain[0] is J.vectors
        assert len(minimality_passes) == kmax - 1  # the vectors of J are reused
        minimality_passes.clear()
        assert ideal_power(J, kmax).vectors == tuple(chain[-1])
        assert len(minimality_passes) == kmax - 1  # the last list enters as it is


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
def vectors_checked(monkeypatch):
    """Counts the calls of ``Monomial``'s vector rule while the test runs."""
    calls = []
    real = monomials._checked_vector

    def counting(ground, vec):
        calls.append(vec)
        return real(ground, vec)

    monkeypatch.setattr(monomials, "_checked_vector", counting)
    return calls


def test_kernels_check_no_vector(vectors_checked):
    # the kernels hand their vectors in as a _Minimal list, which is taken
    # as it is; a caller's list is checked entry by entry
    g = GroundSet.contiguous(8)
    u = sf(g, 2, 4, 6, 8)
    assert len(power_generators(u, 3)) == 3225
    J = ideal_power(expand_squarefree(u), 2)
    assert len(localize_by_saturation(J, VariableSubset(g, (1, 3)))) == 81
    assert not vectors_checked
    assert MonomialIdeal(g, J.vectors) == J
    assert len(vectors_checked) == 509


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
