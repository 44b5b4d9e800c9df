"""Property tests: ``Monomial`` against the dict-of-pairs reference, and
``minimalize`` and ``MonomialIdeal`` against the pairwise minimality rule.

Ground sets are drawn with non-contiguous labels, so positions in the
exponent vector and variable labels differ.  The reference functions live
in ``conftest`` and do not use the library.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelstab import (
    GroundSet,
    Monomial,
    MonomialIdeal,
    divides,
    format_monomial,
    lex_key,
    minimalize,
    parse_monomial,
)
from conftest import (
    ref_divide,
    ref_divides,
    ref_format,
    ref_gcd,
    ref_is_minimal,
    ref_lcm,
    ref_lex_greater,
    ref_minimal_vectors,
    ref_mul,
    ref_pairs,
    ref_pow,
)

PROPERTY = settings(derandomize=True, deadline=None, database=None)


@st.composite
def ground_and_dicts(draw, count: int = 2):
    """Labels of a ground set (at most 6 out of 1..12) and ``count``
    ``{label: exponent}`` dicts over them, zeros included."""
    labels = tuple(sorted(draw(st.sets(st.integers(1, 12), min_size=1, max_size=6))))
    exps = st.dictionaries(st.sampled_from(labels), st.integers(0, 4))
    return labels, [draw(exps) for _ in range(count)]


def build(labels, dicts):
    ground = GroundSet(labels)
    return ground, [Monomial.make(ground, d) for d in dicts]


@PROPERTY
@given(ground_and_dicts())
def test_view_matches_reference(case):
    labels, dicts = case
    ground, (w, _) = build(labels, dicts)
    a = dicts[0]
    assert w.exps == ref_pairs(a)
    assert w.vector == tuple(a.get(i, 0) for i in labels)
    assert w.degree == sum(a.values())
    assert w.support == tuple(i for i, _ in ref_pairs(a))
    assert w.is_unit == (not ref_pairs(a))
    for label in range(1, 14):
        assert w.exponent(label) == a.get(label, 0)


@PROPERTY
@given(ground_and_dicts(), st.integers(0, 3))
def test_arithmetic_matches_reference(case, k):
    labels, (a, b) = case
    ground, (w, v) = build(labels, (a, b))
    assert (w * v).exps == ref_pairs(ref_mul(a, b))
    assert (w**k).exps == ref_pairs(ref_pow(a, k))
    assert w.gcd(v).exps == ref_pairs(ref_gcd(a, b))
    assert w.lcm(v).exps == ref_pairs(ref_lcm(a, b))


@PROPERTY
@given(ground_and_dicts())
def test_divisibility_matches_reference(case):
    labels, (a, b) = case
    ground, (w, v) = build(labels, (a, b))
    assert divides(w, v) == ref_divides(a, b)
    if ref_divides(b, a):
        assert w.divide_by(v).exps == ref_pairs(ref_divide(a, b))
    else:
        with pytest.raises(ValueError):
            w.divide_by(v)


@PROPERTY
@given(ground_and_dicts())
def test_lex_order_matches_reference(case):
    labels, (a, b) = case
    ground, (w, v) = build(labels, (a, b))
    assert (lex_key(w) > lex_key(v)) == ref_lex_greater(a, b)
    assert (lex_key(w) == lex_key(v)) == (ref_pairs(a) == ref_pairs(b))


@PROPERTY
@given(ground_and_dicts(count=1))
def test_text_round_trip(case):
    labels, (a,) = case
    ground, (w,) = build(labels, (a,))
    text = format_monomial(w)
    assert text == ref_format(a)
    assert parse_monomial(text, ground) == w
    shown = "".join(f"x_{i}^{e}" if e > 1 else f"x_{i}" for i, e in ref_pairs(a))
    assert str(w) == (shown or "1")


@st.composite
def vectors_with_repeats(draw):
    """Exponent vectors of mixed degree over 1..4 variables, some repeated."""
    n = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(0, 3)] * n)
    base = draw(st.lists(vec, min_size=1, max_size=6, unique=True))
    repeats = draw(st.lists(st.sampled_from(base), max_size=2)) if draw(st.booleans()) else []
    return n, base + repeats


@PROPERTY
@given(vectors_with_repeats())
def test_one_minimality_rule(case):
    n, vecs = case
    ground = GroundSet.contiguous(n)
    gens = tuple(Monomial(ground, v) for v in vecs)
    kept = [g.vector for g in minimalize(gens).generators]
    assert len(kept) == len(set(kept)) and set(kept) == ref_minimal_vectors(vecs)
    if ref_is_minimal(vecs):
        assert MonomialIdeal(ground, gens).generator_vectors() == kept
    else:
        with pytest.raises(ValueError, match="non-minimal generating set"):
            MonomialIdeal(ground, gens)


@pytest.mark.parametrize("vec", [(1, 2), (1, 2, 3, 4), ()])
def test_from_vector_rejects_wrong_length(vec):
    with pytest.raises(ValueError):
        Monomial.from_vector(GroundSet.contiguous(3), vec)


def test_constructor_takes_the_vector():
    g = GroundSet((2, 5, 7))
    w = Monomial(g, (1, 0, 3))
    assert w == Monomial.make(g, {2: 1, 7: 3}) == Monomial.from_vector(g, [1, 0, 3])
    assert w.exps == ((2, 1), (7, 3))
    with pytest.raises(ValueError):
        Monomial(g, (1, -1, 0))
    with pytest.raises(ValueError):
        Monomial(g, ((2, 1), (2, 3)))
