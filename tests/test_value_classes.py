"""The semantics the 11 value classes had as frozen dataclasses, kept by
``monomials._value``: construction, equality, hash, repr and immutability."""

import pytest

from borelstab.assprimes import AssProfile, CrossValidationReport, PersistenceReport
from borelstab.localization import VariableSubset
from borelstab.monomials import GroundSet, Monomial, MonomialIdeal, SquarefreeMonomial, _value
from borelstab.quotients import QuotientProfile
from borelstab.stability import IntervalDecomposition, StableSetEntry

G = GroundSet((1, 2, 3))
U = SquarefreeMonomial(G, (2, 3))
LOCAL = SquarefreeMonomial(GroundSet((2, 3)), (2, 3))  # a u_A over the complement of {1}

# class -> field values, in field order
FIELDS = {
    GroundSet: {"indices": (1, 2, 3)},
    Monomial: {"ground": G, "vector": (1, 0, 2)},
    SquarefreeMonomial: {"ground": G, "indices": (2, 3)},
    MonomialIdeal: {"ground": G, "vectors": ((1, 0, 0), (0, 1, 0))},
    VariableSubset: {"ambient": G, "members": (1, 3)},
    QuotientProfile: {
        "k": 2, "colon_sets": (frozenset(), frozenset({1})),
        "q": 1, "depth": 1, "m_in_ass": False,
    },
    IntervalDecomposition: {"blocks": ((2, 3),), "lengths": (1,), "gaps": (1,)},
    StableSetEntry: {
        "subset": (1,), "generator": LOCAL, "prime": (2, 3), "member": True,
        "stability_index": 2,
    },
    AssProfile: {"u": U, "kmax": 1, "witnesses_by_power": ((),), "stable_from": None},
    PersistenceReport: {"u": U, "kmax": 2, "violations": ()},
    CrossValidationReport: {
        "u": U, "kmax": 2, "depth_checks": 1, "localization_checks": 2,
        "membership_checks": 3, "sharpness_checks": 4,
    },
}  # fmt: skip

CLASSES = pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)


@CLASSES
def test_keyword_and_positional_agree(cls):
    fields = FIELDS[cls]
    assert list(fields) == list(cls.__annotations__)
    by_name, by_position = cls(**fields), cls(*fields.values())
    assert by_name == by_position
    assert {f: getattr(by_position, f) for f in fields} == fields


@CLASSES
def test_equal_fields_equal_objects_equal_hashes(cls):
    a, b = cls(**FIELDS[cls]), cls(**FIELDS[cls])
    assert a is not b and a == b and not a != b
    # the hash of the field tuple, as dataclasses computes it
    assert hash(a) == hash(b) == hash(tuple(FIELDS[cls].values()))
    assert len({a, b}) == 1


@CLASSES
def test_another_class_is_never_equal(cls):
    twin = _value(type("Twin", (), {"__annotations__": dict(cls.__annotations__)}))
    obj = cls(**FIELDS[cls])
    other = twin(**FIELDS[cls])
    assert obj != other and other != obj
    assert obj.__eq__(other) is NotImplemented
    assert obj.__eq__(tuple(FIELDS[cls].values())) is NotImplemented


@CLASSES
def test_assignment_and_deletion_raise(cls):
    obj = cls(**FIELDS[cls])
    for field, value in FIELDS[cls].items():
        with pytest.raises(AttributeError):
            setattr(obj, field, value)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert {f: getattr(obj, f) for f in FIELDS[cls]} == FIELDS[cls]


@CLASSES
def test_repr_names_every_field(cls):
    text = repr(cls(**FIELDS[cls]))
    assert text.startswith(f"{cls.__qualname__}(") and text.endswith(")")
    for field, value in FIELDS[cls].items():
        assert f"{field}={value!r}" in text


def test_post_init_normalizes_and_validates():
    with pytest.raises(ValueError, match="positive integers"):
        GroundSet((0, 1))
    assert GroundSet([1, 2]).indices == (1, 2)
    A = VariableSubset(G, (3, 1, 3))
    assert (A.members, A.complement) == ((1, 3), (2,))
    # the complement is not a field: the repr, like == and hash, omits it
    assert repr(A) == f"VariableSubset(ambient={G!r}, members=(1, 3))"
    with pytest.raises(ValueError, match="not in ambient"):
        VariableSubset(G, (4,))
    with pytest.raises(ValueError, match="^7 not in ambient ground set"):
        VariableSubset(G, (9, 1, 7))


def test_cached_property_still_caches():
    ideal = MonomialIdeal(G, ((1, 0, 0), (0, 1, 0)))
    assert ideal.generators is ideal.generators
    assert ideal == MonomialIdeal(G, ((1, 0, 0), (0, 1, 0)))
