"""``MonomialIdeal`` stores its generators' exponent vectors: the
constructor accepts vectors, and the kernels build no ``Monomial`` per
generator or per Borel move."""

import pytest

from borelstab import (
    GroundSet,
    Monomial,
    MonomialIdeal,
    VariableSubset,
    expand_squarefree,
    ideal_power,
    localize_by_saturation,
    power_generators,
)
from conftest import sf


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
    assert len(J) == 509 and not monomials_built
    local = localize_by_saturation(J, VariableSubset(g, (1, 3)))
    assert len(local) == 81
    assert len(monomials_built) <= 1  # the product of the A-variables
