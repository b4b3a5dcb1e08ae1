"""Point values, their canonical string ids, and the text boundary.

Three kinds of domain elements occur across the spaces in this package:
exact rationals (``fractions.Fraction``), symbolic tags (plain strings),
and subsets of a declared finite ground set (``FSet``, a bitmask).
Equality is decidable for all three, and every point has a canonical id.

This module alone turns text into values and back. :func:`read_points`
reads every point id, in files and on the command line, :func:`read_list`
splits an id list, and :func:`read_ratio` reads rational text by one
regular expression (``Fraction``'s grammar less digit separators and
exponents). :func:`write_json` writes every report's and table's JSON, and
:func:`format_value` every value the command line prints, at any length.

:class:`Frozen` is the base of every immutable record in the package, and
:class:`Record` of those whose JSON keys are their field names.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal
from fractions import Fraction
from operator import attrgetter
from typing import Optional, Sequence, Union

from .errors import StructureError

_set = object.__setattr__  # writes a field past the raising __setattr__, as __init__ must


class FrozenError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a frozen record."""


class Frozen:
    """Base of an immutable record: named fields, compared and hashed by value.

    A subclass declares its fields as annotated class attributes, after
    those of its base; a field given a value has that default, and a field
    without one may not follow a field with one. The fields are read once,
    when the subclass is made, and every method below serves every class:

    - ``__init__`` takes the fields by position or keyword, fills in the
      defaults, refuses a missing, unknown or repeated argument with a
      ``TypeError``, and then calls the class's ``__post_init__``, if any;
    - ``==`` holds between two records of one class whose field tuples are
      equal, ``hash`` is the hash of that tuple, and ``repr`` reads
      ``Name(field=value, ...)``;
    - assigning or deleting an attribute raises :class:`FrozenError`.

    An instance's fields are ordinary instance attributes, so reading one
    costs what it costs on any object, and ``functools.cached_property``
    still caches on it.
    """

    _fields: tuple = ()      # the field names, in order
    _defaults: dict = {}     # field name -> default
    _checked = False         # does the class define __post_init__?

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [name for name in cls.__dict__.get("__annotations__", ()) if name not in cls._fields]
        names = cls._fields + tuple(own)
        defaults = dict(cls._defaults)
        defaults.update((name, cls.__dict__[name]) for name in own if name in cls.__dict__)
        for before, name in zip(names, names[1:]):
            if before in defaults and name not in defaults:
                raise TypeError(f"non-default argument {name!r} follows default argument")
        cls._fields, cls._defaults = names, defaults
        cls._checked = hasattr(cls, "__post_init__")
        # The field tuple that == and hash read; a tuple even for one field.
        cls._values = (attrgetter(*names) if len(names) > 1 else
                       staticmethod(lambda record: tuple(getattr(record, n) for n in names)))

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        i = 0
        for name in names:  # by index: with zip() the whole call took about 25% longer
            _set(self, name, args[i])
            i += 1
        if self._checked:
            self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """Every field's value, in order, from arguments that are not all the fields by position."""
        names, label = self._fields, f"{type(self).__name__}()"
        if len(args) > len(names):
            raise TypeError(f"{label} takes {len(names)} arguments but {len(args)} were given")
        for name in kwargs:
            if name not in names:
                raise TypeError(f"{label} got an unexpected keyword argument {name!r}")
            if names.index(name) < len(args):
                raise TypeError(f"{label} got multiple values for argument {name!r}")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs[name])
            elif name in self._defaults:
                values.append(self._defaults[name])
            else:
                raise TypeError(f"{label} missing required argument {name!r}")
        return values

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise FrozenError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenError(f"cannot delete field {name!r}")


def fields(record) -> tuple[str, ...]:
    """The field names of a record or of a record class, in order."""
    return record._fields


def replace(record, **changes):
    """A new record of ``record``'s class, with ``changes`` to some of its fields."""
    return type(record)(**{**{name: getattr(record, name) for name in record._fields}, **changes})


class FSet(Frozen):
    """Subset of a finite ground set, stored as a bitmask over ``ground``."""

    ground: tuple[str, ...]
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << len(self.ground)):
            raise ValueError(f"mask {self.mask} out of range for ground {self.ground}")

    @classmethod
    def of(cls, ground: Sequence[str], *members: str) -> "FSet":
        ground = tuple(ground)
        return cls(ground, sum({1 << ground.index(m) for m in members}))

    def union_size(self, other: "FSet") -> int:
        return (self.mask | other.mask).bit_count()

    def members(self) -> tuple[str, ...]:
        return tuple(g for i, g in enumerate(self.ground) if self.mask >> i & 1)

    def __str__(self) -> str:
        return "{" + ",".join(self.members()) + "}"


Point = Union[Fraction, str, FSet]


# Fraction's own string grammar (Python 3.11) without digit separators and
# exponents: a sign, then an integer, "num/den" or a decimal, with optional
# whitespace around the whole. Unicode decimal digits count, as in int().
_RATIO = re.compile(r"\s*([-+]?)(?=\.?\d)(\d*)(?:/(\d+)|(?:\.(\d*))?)\s*")


def read_ratio(text: str) -> tuple[int, int]:
    """Read an integer, "num/den" or decimal string as a pair of ints.

    The pair is (numerator, denominator) as written, not reduced; the
    denominator is positive, and a decimal with k fractional digits is
    read over 10**k. This is the only reader of rational text: exponent
    notation is refused by the grammar (``Fraction`` would build
    ``10**exp`` first, so "1e99999999" alone takes minutes), and so are
    digit separators ("1_000"). An integer past Python's digit limit and
    a zero denominator are refused too.
    """
    match = _RATIO.fullmatch(text)
    if match is None:
        raise ValueError(f"not a rational: {text!r}")
    sign, whole, den, frac = match.groups()
    try:
        num = int(whole) if whole else 0
        if den is not None:
            den = int(den)
        elif frac:
            den = 10 ** len(frac)
            num = num * den + int(frac)
        else:
            den = 1
    except ValueError as exc:  # past the digit limit
        raise ValueError(f"not a rational: {text!r}") from exc
    if den == 0:
        raise ValueError(f"not a rational: {text!r}")
    return (-num if sign == "-" else num), den


def parse_rational(text: str) -> Fraction:
    """Parse an integer, "num/den" or decimal string into an exact rational."""
    return Fraction(*read_ratio(text))


def _digits(n: int) -> str:
    """Decimal digits of an int of any length; ``str(int)`` stops at Python's digit limit."""
    return str(Decimal(n))


def format_rational(value: Fraction) -> str:
    """Canonical "num/den" form; the denominator is always spelled out."""
    return f"{_digits(value.numerator)}/{_digits(value.denominator)}"


def format_value(value: Fraction) -> str:
    """Text form of an exact value, as ``str(Fraction)``: "n" for an integer, else "n/d"."""
    return _digits(value.numerator) if value.denominator == 1 else format_rational(value)


def format_point(point: Point) -> str:
    """A point's canonical id: a rational as "num/den", a set as "{a,b}", a tag as itself."""
    return format_rational(point) if isinstance(point, Fraction) else str(point)


def _members(text: str) -> Optional[tuple[str, ...]]:
    """The stripped members of a braced id such as "{b, a}"; None for any other id."""
    if not (text.startswith("{") and text.endswith("}")):
        return None
    inner = text[1:-1].strip()
    return tuple(part.strip() for part in inner.split(",")) if inner else ()


def read_points(texts: Sequence, points: Sequence[Point] = ()) -> list[Point]:
    """Read point ids (strings, or JSON numbers by their text) in O(len(points) + len(texts)).

    An id that spells one of ``points`` names that point. Any other braced
    id, in any member order or spacing, is a set over the ground of the sets
    among ``points``, or where there are none (a table file) over every
    member the braced ``texts`` name; with a member outside the ground it is
    a tag. A rational id is a ``Fraction``, and the rest are tags.
    """
    for t in texts:
        if isinstance(t, bool) or not isinstance(t, (str, int, float)):
            raise StructureError(f"a point id is a string or a number, not {json.dumps(t)}")
    texts = [str(t) for t in texts]
    by_id = {format_point(p): p for p in points}
    braced = {t: m for t in texts if (m := _members(t)) is not None}
    ground = next((p.ground for p in points if isinstance(p, FSet)),
                  tuple(sorted({m for members in braced.values() for m in members})))
    return [by_id[t] if t in by_id
            else FSet.of(ground, *braced[t]) if t in braced and set(braced[t]).issubset(ground)
            else _point_of(t) for t in texts]


# A comma followed by a closing brace before any opening one is inside a set id;
# so a list without braces splits as ``str.split(",")`` does.
_LIST_COMMA = re.compile(r",(?![^{]*})")


def read_list(text: str) -> list[str]:
    """Split an id list at its commas, but not inside a set id: "{a,b},{}" is two ids."""
    return _LIST_COMMA.split(text)


def _point_of(text: str) -> Point:
    """A rational id's value; any other id is kept as a symbolic tag."""
    try:
        return parse_rational(text)
    except ValueError:
        return text


def read_json(text: str):
    """Decode a table or sequence file.

    Text that is not JSON, is nested past the decoder's depth limit or
    holds an integer past Python's digit limit is a StructureError.
    """
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise StructureError(f"bad JSON: {exc}") from exc


def to_json(value):
    """The JSON form of a value: rationals as "num/den", points as their ids,
    tuples and lists as lists, dict values mapped, reports as their ``to_dict()``
    and tables as their ``to_json_dict()``."""
    if isinstance(value, (Fraction, FSet)):
        return format_point(value)
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if hasattr(value, "to_json_dict"):  # a table
        return value.to_json_dict()
    return value


def write_json(value) -> str:
    """The JSON text of a report, a table or a plain document of them."""
    return json.dumps(to_json(value), indent=2)


class Record(Frozen):
    """A frozen record whose JSON form is its fields by name, each value by :func:`to_json`."""

    def to_dict(self) -> dict:
        return {name: to_json(getattr(self, name)) for name in self._fields}
