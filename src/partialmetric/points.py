"""Point values and their canonical string ids.

Three kinds of domain elements occur across the spaces in this package:
exact rationals (``fractions.Fraction``), symbolic tags (plain strings),
and subsets of a declared finite ground set (``FSet``, a bitmask).
Equality is decidable for all three, and every point has a canonical id
used in JSON tables and on the command line.

This module is the only one that knows the text form of exact values:
it reads rationals, point ids and JSON documents, and writes every
report's JSON through :func:`to_json`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Sequence, Union

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
        mask = 0
        for m in members:
            mask |= 1 << tuple(ground).index(m)
        return cls(tuple(ground), mask)

    def union_size(self, other: "FSet") -> int:
        return (self.mask | other.mask).bit_count()

    def size(self) -> int:
        return self.mask.bit_count()

    def members(self) -> tuple[str, ...]:
        return tuple(g for i, g in enumerate(self.ground) if self.mask >> i & 1)

    def __str__(self) -> str:
        return "{" + ",".join(self.members()) + "}"


Point = Union[Fraction, str, FSet]


def parse_rational(text: str) -> Fraction:
    """Parse an integer, "num/den" or decimal string into an exact rational.

    Exponent notation is refused before ``Fraction`` sees it: it would
    build ``10**exp`` first, so "1e99999999" alone takes minutes. Text
    with a "/" cannot carry an exponent in ``Fraction``'s grammar, so the
    common "num/den" form costs one scan for "/".
    """
    if "/" not in text and ("e" in text or "E" in text):
        raise ValueError(f"not a rational: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Canonical "num/den" form; the denominator is always spelled out."""
    return f"{value.numerator}/{value.denominator}"


def format_point(point: Point) -> str:
    if isinstance(point, Fraction):
        return format_rational(point)
    return str(point)


def _brace_members(text: str) -> tuple[str, ...]:
    inner = text[1:-1].strip()
    return tuple(part.strip() for part in inner.split(",")) if inner else ()


def parse_point_ids(ids: Sequence[str]) -> tuple[Point, ...]:
    """Decode JSON point ids.

    "{a,b}" is a subset of the ground set collected from all braced ids,
    anything that parses as a rational becomes a ``Fraction``, and the
    rest are kept as symbolic tags.
    """
    braced = [s for s in ids if s.startswith("{") and s.endswith("}")]
    ground: tuple[str, ...] = ()
    if braced:
        ground = tuple(sorted({e for s in braced for e in _brace_members(s)}))
    return tuple(FSet.of(ground, *_brace_members(s)) if s.startswith("{") and s.endswith("}")
                 else _point_of(s) for s in ids)


def resolve_point(points: Sequence[Point], text: str) -> Point:
    """Match a command-line id against a space's points, else parse it."""
    by_id = {format_point(p): p for p in points}
    return by_id[text] if text in by_id else _point_of(text)


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
    tuples and lists as lists, dict values mapped, reports as their ``to_dict()``."""
    if isinstance(value, (Fraction, FSet)):
        return format_point(value)
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    if hasattr(value, "to_dict"):
        return value.to_dict()
    return value


class Record:
    """Base of the dataclass reports whose JSON keys are their field names."""

    def to_dict(self) -> dict:
        return {f.name: to_json(getattr(self, f.name)) for f in fields(self)}
