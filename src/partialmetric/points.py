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
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from decimal import Decimal
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import StructureError


@dataclass(frozen=True)
class FSet:
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


class Record:
    """Base of the dataclass reports whose JSON keys are their field names."""

    def to_dict(self) -> dict:
        return {f.name: to_json(getattr(self, f.name)) for f in fields(self)}
