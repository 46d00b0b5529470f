"""The package's frozen value classes: construction, equality, hashing,
repr and immutability, as ``dataclass(frozen=True)`` gave them."""

import pytest

from comblevy import inference
from comblevy.levy import (
    ExplicitFinite,
    LevyIntensity,
    LocalComponent,
    LoopComponent,
    MixtureAtom,
    PairComponent,
    VertexComponent,
    _COMPONENT_KINDS,
    _component_from_payload,
)
from comblevy.limits import DensityVector
from comblevy.measures import FiniteMeasure, OrbitWeights
from comblevy.orbits import OrbitId, OrbitTable
from comblevy.structures import Permutation, Signature, Structure

SIG = Signature((1, 2))
MU = FiniteMeasure(SIG, 2, {Structure(SIG, 2, (1, 0)): 0.5})
# a membership and a loop flip at one label
LOCAL_MU = FiniteMeasure(SIG, 1, {Structure(SIG, 1, (1, 1)): 0.5})

# each class with the values of every field, in field order and in the form
# the class keeps them
VALUES = [
    (Signature, {"arities": (1, 2)}),
    (Structure, {"signature": SIG, "n": 2, "relations": (1, 6)}),
    (Permutation, {"n": 3, "image": (2, 3, 1)}),
    (OrbitId, {"canonical": "L=(1)|n=2|R1={(1)}"}),
    (OrbitTable, {"signature": SIG, "n": 1, "entries": ((OrbitId("L=(1,2)|n=1|R1={}|R2={}"), 1),)}),
    (OrbitWeights, {"signature": SIG, "n": 2, "p": {OrbitId("x"): 0.25}}),
    (MixtureAtom, {"weight": 1.5, "probs": (0.1, 0.2)}),
    (VertexComponent, {"rate": 1.0, "rho": 0.5, "member_prob": 0.25, "include_loop": True}),
    (LocalComponent, {"rate": 1.0, "measure": LOCAL_MU}),
    (ExplicitFinite, {"measure": MU}),
    (LevyIntensity, {"signature": SIG, "components": (PairComponent(1.0),)}),
    (DensityVector, {"m": 2, "values": {Structure(SIG, 2, (0, 0)): 1.0}}),
    (inference.TestReport, {"statistic": 1.5, "df": 2, "p_value": 0.25, "cells_used": 3,
                            "pooled_cells": 0, "alphas": {0.05: False}, "inconclusive": False}),
]
IDS = [cls.__name__ for cls, _ in VALUES]


@pytest.mark.parametrize("cls, fields", VALUES, ids=IDS)
def test_values(cls, fields):
    a, b = cls(**fields), cls(*fields.values())
    assert a == b and not a != b and a is not b
    assert {name: getattr(a, name) for name in fields} == fields
    assert repr(a) == f"{cls.__qualname__}(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
    # equal field values in another class: never equal
    other = type(f"Other{cls.__name__}", (cls,), {})(**fields)
    assert a != other and other != a
    try:
        hash(tuple(fields.values()))
    except TypeError:  # a dict or a FiniteMeasure field: unhashable, as before
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    name, value = next(iter(fields.items()))
    with pytest.raises(AttributeError):
        setattr(a, name, value)
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.unknown = 1
    assert a == b


def test_pair_and_loop_with_equal_fields_differ():
    assert PairComponent(1.0, (0.0, 1.0, 0.0)) != LoopComponent(1.0, (0.0, 1.0, 0.0))


def test_construction_errors():
    with pytest.raises(TypeError, match="missing argument 'rho'"):
        VertexComponent(1.0)
    with pytest.raises(TypeError, match="takes 4 arguments, got 5"):
        VertexComponent(1.0, 0.5, 0.0, False, 1)
    with pytest.raises(TypeError, match=r"unexpected arguments \['speed'\]"):
        VertexComponent(rate=1.0, rho=0.5, speed=2)
    # checks run whether fields are given by position or keyword
    for build in (lambda: VertexComponent(1.0, 0.0), lambda: VertexComponent(rate=1.0, rho=0.0)):
        with pytest.raises(ValueError, match="rho must lie in"):
            build()


def test_defaults():
    v = VertexComponent(rate=1.0, rho=0.5)
    assert (v.member_prob, v.include_loop) == (0.0, False)
    assert PairComponent(1.0) == PairComponent(1.0, (1 / 3, 1 / 3, 1 / 3))
    assert LoopComponent(1.0) == LoopComponent(1.0, (0.0, 1.0, 0.0))
    # a fresh dict per instance
    w1, w2 = OrbitWeights(SIG, 2), OrbitWeights(SIG, 2)
    assert w1.p == w2.p == {} and w1.p is not w2.p
    r1, r2 = (inference.TestReport(0.0, 0, 1.0, 1, 0) for _ in range(2))
    assert r1.alphas == r2.alphas == {} and r1.alphas is not r2.alphas
    assert r1.inconclusive is False


def test_orbit_ids_order_by_canonical_text():
    texts = ["b", "a", "c", "ab"]
    assert [oid.canonical for oid in sorted(map(OrbitId, texts))] == sorted(texts)
    a, b = OrbitId("a"), OrbitId("b")
    assert a < b and a <= b and b > a and b >= a and a <= OrbitId("a")
    with pytest.raises(TypeError):
        a < "b"


# the fields, in JSON form, that each builder of the local kind reads
BUILDER_FIELDS = {
    "set_singleton": {"rate": 2.0},
    "pair": {"rate": 1.0, "pattern": [0.5, 0.25, 0.25]},
    "loop": {"rate": 1.0, "pattern": [0.5, 0.25, 0.25]},
}


@pytest.mark.parametrize("kind", sorted(_COMPONENT_KINDS))
def test_component_payload_rejects_unknown_keys(kind):
    build = _COMPONENT_KINDS[kind]
    if kind in BUILDER_FIELDS:  # a builder's tag reads as the local component it builds
        payload = {"type": kind, **BUILDER_FIELDS[kind]}
        component = build(**BUILDER_FIELDS[kind])
        assert component.to_payload()["type"] == "local"
    else:
        component = build(**dict(next(f for c, f in VALUES if c is build)))
        payload = component.to_payload()
    assert _component_from_payload(payload) == component
    with pytest.raises(ValueError, match=rf"{kind} component has unknown keys: \['extra'\]"):
        _component_from_payload({**payload, "extra": 1})
