"""The frozen-record base: fields, construction, equality, hashing and immutability."""

from fractions import Fraction
from functools import cached_property
from typing import Optional

import pytest

from partialmetric import MapSpec, catalog_space
from partialmetric.analysis import NetReport
from partialmetric.core import SeparationClass
from partialmetric.points import FSet, Frozen, FrozenError, Record, fields, replace


class Pair(Frozen):
    left: int
    right: Optional[int] = None


class Twin(Frozen):  # the same fields as Pair, another class
    left: int
    right: Optional[int] = None


class Triple(Pair):
    label: str = "t"


class Cached(Frozen):
    base: int
    calls = []  # a class attribute, not a field

    @cached_property
    def doubled(self) -> int:
        self.calls.append(self.base)
        return 2 * self.base


def test_fields_are_read_in_order_after_the_base():
    assert fields(Pair) == ("left", "right")
    assert fields(Triple) == ("left", "right", "label")
    assert fields(Triple(1)) == fields(Triple)
    assert fields(Cached) == ("base",)


def test_equality_holds_within_one_class_only():
    assert Pair(1, 2) == Pair(1, 2)
    assert Pair(1, 2) != Pair(1, 3)
    assert Pair(1, 2) != Twin(1, 2)
    assert Pair(1, 2) != (1, 2)
    assert Pair(1, 2).__eq__(Twin(1, 2)) is NotImplemented


def test_hash_is_the_hash_of_the_field_tuple():
    assert hash(Pair(1, 2)) == hash((1, 2))
    assert hash(Cached(5)) == hash((5,))
    assert hash(FSet(("a", "b"), 3)) == hash((("a", "b"), 3))
    assert len({Pair(1, 2), Pair(1, 2), Pair(2, 1)}) == 2
    with pytest.raises(TypeError):  # a dict field is unhashable, so is its record
        hash(Pair({}, 1))


def test_repr_names_the_class_and_every_field():
    assert repr(Pair(1)) == "Pair(left=1, right=None)"
    assert repr(Triple(1, 2, "x")) == "Triple(left=1, right=2, label='x')"
    assert repr(SeparationClass(True, False, False)) == \
        "SeparationClass(t0=True, t1=False, hausdorff=False)"
    assert repr(catalog_space("ex3.4")) == "CatalogSpace(ex3.4)"  # its own repr


@pytest.mark.parametrize("name", ["left", "right", "other"])
def test_assigning_or_deleting_an_attribute_raises(name):
    pair = Pair(1, 2)
    with pytest.raises(FrozenError):
        setattr(pair, name, 3)
    with pytest.raises(AttributeError):
        delattr(pair, name)
    assert issubclass(FrozenError, AttributeError)
    assert pair == Pair(1, 2)


def test_defaults_fill_the_fields_not_given():
    assert Pair(1).right is None
    assert Triple(1) == Triple(1, None, "t") == Triple(left=1)
    assert Triple(1, label="u") == Triple(1, None, "u")
    assert MapSpec("m", abs).table is None


@pytest.mark.parametrize("args, kwargs, message", [
    ((), {}, "missing required argument 'left'"),
    ((), {"right": 2}, "missing required argument 'left'"),
    ((1,), {"middle": 2}, "unexpected keyword argument 'middle'"),
    ((1,), {"left": 2}, "multiple values for argument 'left'"),
    ((1, 2, 3), {}, "takes 2 arguments but 3 were given"),
])
def test_a_missing_unknown_or_repeated_argument_is_a_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Pair(*args, **kwargs)


def test_a_field_without_a_default_may_not_follow_one_with_a_default():
    with pytest.raises(TypeError, match="non-default argument 'late' follows default argument"):
        class Broken(Frozen):
            early: int = 0
            late: int
    with pytest.raises(TypeError, match="non-default argument 'extra'"):
        class Extended(Pair):
            extra: int


@pytest.mark.parametrize("mask", [-1, 4])
def test_fset_checks_its_mask_however_it_is_built(mask):
    with pytest.raises(ValueError, match=f"mask {mask} out of range"):
        FSet(("a", "b"), mask)
    with pytest.raises(ValueError, match=f"mask {mask} out of range"):
        FSet(ground=("a", "b"), mask=mask)
    with pytest.raises(ValueError, match=f"mask {mask} out of range"):
        replace(FSet(("a", "b"), 1), mask=mask)


def test_replace_changes_the_named_fields_only():
    net = NetReport((Fraction(0),), 1, Fraction(1, 2))
    wider = replace(net, eps=Fraction(1))
    assert wider == NetReport((Fraction(0),), 1, Fraction(1)) and net.eps == Fraction(1, 2)
    assert replace(net) == net and replace(net) is not net
    assert type(replace(Triple(1), label="u")) is Triple
    with pytest.raises(TypeError, match="unexpected keyword argument 'size_'"):
        replace(net, size_=2)


def test_a_cached_property_caches_on_a_frozen_record():
    Cached.calls.clear()
    record = Cached(4)
    assert record.doubled == record.doubled == 8
    assert Cached.calls == [4]
    assert record == Cached(4) and hash(record) == hash(Cached(4))  # the cache is no field


def test_a_replaced_catalog_space_builds_its_own_table():
    space = catalog_space("ex3.4")
    fresh = replace(space)
    assert fresh == space and fresh.finite_sample() is not space.finite_sample()


def test_a_record_serializes_its_fields_in_order():
    class Report(Record):
        value: Fraction
        points: tuple = ()

    assert list(Report(Fraction(1, 2), (FSet(("a",), 1),)).to_dict().items()) == \
        [("value", "1/2"), ("points", ["{a}"])]
