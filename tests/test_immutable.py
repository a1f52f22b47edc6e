"""Every value type is immutable: no field can be set or deleted."""

from fractions import Fraction

import pytest

from igc import (
    ChartSpec,
    CupFactorization,
    FreeLRElem,
    KField,
    Poly,
    Polyvector,
    RelativeSpec,
    VField,
    WeilElem,
    kfield_to_weil,
)
from igc.chart_algebra import _compiled, _Record
from igc.cli import CommandOutcome
from igc.parsing import Session

CHART = ChartSpec(2, 3)
X0, ONE = Poly.var(2, 0), Poly.const(2, 1)


def cup_factorization():
    return CupFactorization(2, 2, [WeilElem.generator(2, 2, 0), WeilElem(2, 2, {frozenset({0, 1}): ONE})])


VALUES = {
    "ChartSpec": lambda: ChartSpec(2, 3),
    "RelativeSpec": lambda: RelativeSpec(CHART, {1}),
    "Poly": lambda: Poly(2, {(2, 0): 1, (0, 0): Fraction(1, 2)}),
    "VField": lambda: VField([X0, ONE]),
    "FreeLRElem": lambda: FreeLRElem(CHART, {(0,): X0, (0, 1): ONE}),
    "Polyvector": lambda: Polyvector(2, {(0, 1): X0}),
    "WeilElem": lambda: WeilElem(2, 2, {frozenset(): X0, frozenset({1}): ONE}),
    "KField": lambda: KField(CHART, 2, {frozenset({0}): FreeLRElem.generator(CHART, 1)}),
    "WeilMorphism": lambda: kfield_to_weil(KField.from_vfields(CHART, 1, {frozenset({0}): VField([X0, ONE])})),
    "CupFactorization": cup_factorization,
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_fields_cannot_be_set_or_deleted(name):
    value = VALUES[name]()
    assert type(value).__name__ == name
    fields = type(value).__slots__
    before = [getattr(value, field) for field in fields]
    for field in fields:
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            delattr(value, field)
    assert all(getattr(value, field) is old for field, old in zip(fields, before))
    assert value == VALUES[name]()


def test_cup_factorizations_compare_and_hash_by_value():
    a, b = cup_factorization(), cup_factorization()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != CupFactorization.canonical(2)
    assert repr(CupFactorization.canonical(2)) == "CupFactorization(arity=1, dim=2, images=(WeilElem((1)*e0),))"


def test_kfields_compare_and_hash_by_value_whatever_the_insertion_order():
    parts = {frozenset({0}): FreeLRElem.generator(CHART, 1), frozenset({0, 1}): FreeLRElem.generator(CHART, 0)}
    a = KField(CHART, 2, parts)
    b = KField(CHART, 2, dict(reversed(parts.items())))
    assert list(a.components) != list(b.components)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1


def test_only_frozen_records_are_given_generated_constructors():
    # the mutable records set plain attributes, so nothing is compiled for them
    for cls in (Session, CommandOutcome):
        assert not hasattr(cls, "_make") and not hasattr(cls, "_set")
    slots = tuple(f"f{i}" for i in range(17))  # no other record has as many fields
    misses = _compiled.cache_info().misses

    class Mutable(_Record):
        __slots__ = slots

    assert _compiled.cache_info().misses == misses

    class Frozen(_Record, frozen=True):
        __slots__ = slots

    assert _compiled.cache_info().misses == misses + 1
    assert Frozen._make(*range(17)) == Frozen._make(*range(17)) and not hasattr(Mutable, "_make")
