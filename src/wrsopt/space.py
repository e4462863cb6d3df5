"""Search space definitions: typed dimensions, validation, sampling, serialization.

A candidate is a plain tuple of values, one entry per dimension in declaration
order.  Integer dimensions produce ints, real dimensions floats, categorical
dimensions one of their listed values.

This module alone decides what a valid value is (``values_in_dimension``);
``triallog`` decides what a valid record is and asks it.  It alone also
places a candidate on the number line that Nelder-Mead, particle swarm and
the importance fit move in (``ordinal_bounds``, ``to_ordinal``,
``from_ordinal``).
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import numbers
import sys
from dataclasses import dataclass, fields
from typing import Any, Iterator, Sequence

import numpy as np


class SpaceError(ValueError):
    """Raised when a space definition or candidate fails validation."""


_KIND_ALIASES = {
    "int": "int",
    "integer": "int",
    "integer-range": "int",
    "real": "real",
    "float": "real",
    "real-range": "real",
    "cat": "cat",
    "categorical": "cat",
    "choice": "cat",
}


def printable_name(name: str) -> str:
    """name, escaped as repr(name)[1:-1] if it is not str.isprintable() (a
    newline, a CR), so that a line the command line prints stays one line;
    the messages of this package's exceptions hold names and paths as given."""
    return name if name.isprintable() else repr(name)[1:-1]


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise SpaceError(msg)


@dataclass(frozen=True)
class Dimension:
    """One axis of the search space.

    kind is "int", "real", or "cat".  Range kinds use low/high (inclusive on
    both ends); categorical kinds use values and optionally weights, which are
    normalized at sampling time.
    """

    name: str
    kind: str
    low: float | int | None = None
    high: float | int | None = None
    values: tuple[Any, ...] | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        _check(isinstance(self.name, str) and self.name != "", "dimension name must be a non-empty string")
        _check_utf8(self.name, "dimension name")
        name = self.name
        kind = _KIND_ALIASES.get(self.kind) if isinstance(self.kind, str) else None
        _check(kind is not None, f"{name}: unknown kind {self.kind!r}")
        object.__setattr__(self, "kind", kind)

        if kind == "cat":
            _check(self.low is None and self.high is None, f"{name}: categorical dimensions take values, not bounds")
            for key in ("values", "weights"):
                _check(isinstance(getattr(self, key), (list, tuple, type(None))), f"{name}: {key} must be a list")
            _check(self.values is not None and len(self.values) > 0, f"{name}: categorical dimension needs at least one value")
            object.__setattr__(self, "values", tuple(self.values))
            seen = set()
            for v in self.values:
                # what a JSON log can write; every one of these is hashable
                _check(v is None or isinstance(v, (str, int, float)), f"{name}: categorical value {v!r} is not a string, number, boolean or null")
                _check(v not in seen, f"{name}: duplicate categorical value {v!r}")
                seen.add(v)
                if isinstance(v, str):
                    _check_utf8(v, f"{name}: categorical value")
            if self.weights is not None:
                w = _floats(self.weights, f"{name}: weights must be finite numbers")
                _check(len(w) == len(self.values), f"{name}: weights length must match values length")
                _check(all(math.isfinite(x) and x > 0 for x in w), f"{name}: weights must be finite and positive")
                # value_at searches the running totals; an infinite total would pick only the last value
                _check(math.isfinite(sum(w)), f"{name}: weights must have a finite sum")
                object.__setattr__(self, "weights", w)
            # running totals that value_at searches, summed once per dimension;
            # an unweighted categorical weighs each value 1
            cum = np.cumsum(self.weights or [1.0] * len(self.values)).tolist()
            if cum[-1] < sys.float_info.min:  # u * a subnormal total rounds to a few values; 2**1022 scales exactly
                cum = [math.ldexp(c, 1022) for c in cum]
            object.__setattr__(self, "_cum_weights", cum)
            return

        _check(self.values is None and self.weights is None, f"{name}: range dimensions take bounds, not values")
        _check(self.low is not None and self.high is not None, f"{name}: range dimension needs low and high")
        if kind == "int":
            for side, v in (("low", self.low), ("high", self.high)):
                # bool, YAML's yes and no, is an Integral; np.bool_ is not
                integral = isinstance(v, numbers.Integral) and not isinstance(v, bool)
                _check(integral or (isinstance(v, float) and v.is_integer()), f"{name}: integer bound {side}={v!r} is not integral")
            object.__setattr__(self, "low", int(self.low))
            object.__setattr__(self, "high", int(self.high))
            # sampling and the importance fit take the bounds and the count
            # of values as floats
            _floats((self.low, self.high, self.high - self.low + 1), f"{name}: integer bounds and their span must lie within float range")
        else:
            low, high = _floats((self.low, self.high), f"{name}: real bounds must be finite numbers")
            object.__setattr__(self, "low", low)
            object.__setattr__(self, "high", high)
            _check(math.isfinite(self.low) and math.isfinite(self.high), f"{name}: real bounds must be finite")
            # value_at scales the width; an infinite one would draw only inf
            _check(math.isfinite(self.high - self.low), f"{name}: real bounds must lie within float range of each other")
        _check(self.low <= self.high, f"{name}: low must not exceed high")


def _check_utf8(text: str, what: str) -> None:
    """SpaceError unless text encodes as UTF-8, as a log must write it: a
    lone surrogate, such as YAML's "\\ud800", does not."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise SpaceError(f"{what} {text!r} is not UTF-8 text (it holds a lone surrogate)") from None


def _floats(xs: Sequence[Any], msg: str) -> tuple[float, ...]:
    """xs as floats; SpaceError(msg) for an entry that is no number, a
    boolean (YAML's yes and no) included, or lies beyond float range."""
    if any(isinstance(x, (bool, np.bool_)) for x in xs):
        raise SpaceError(msg)
    try:
        return tuple(float(x) for x in xs)
    except (TypeError, ValueError, OverflowError):
        raise SpaceError(msg) from None


def value_at(dim: Dimension, u: float) -> Any:
    """The value a uniform u in [0, 1) selects on dim."""
    if dim.kind == "real":
        return dim.low + u * (dim.high - dim.low)
    if dim.kind == "int":
        v = dim.low + int(u * (dim.high - dim.low + 1))
        return min(v, dim.high)  # u == 1.0 cannot occur, but stay safe
    cum = dim._cum_weights
    idx = bisect.bisect_right(cum, u * cum[-1])
    return dim.values[min(idx, len(dim.values) - 1)]


@dataclass(frozen=True)
class SearchSpace:
    """An ordered, immutable collection of dimensions with unique names."""

    dimensions: tuple[Dimension, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dimensions", tuple(self.dimensions))
        _check(len(self.dimensions) > 0, "search space must contain at least one dimension")
        names = [d.name for d in self.dimensions]
        _check(len(set(names)) == len(names), "dimension names must be unique")

    def __len__(self) -> int:
        return len(self.dimensions)

    def __iter__(self) -> Iterator[Dimension]:
        return iter(self.dimensions)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dimensions)

    def sample(self, rng: np.random.Generator) -> tuple:
        """Draw an independent uniform candidate from one rng.random(d) call,
        the same stream as one rng.random() per dimension."""
        return tuple(map(value_at, self.dimensions, rng.random(len(self.dimensions)).tolist()))


def values_in_dimension(dim: Dimension, column: Sequence[Any]) -> bool:
    """Whether every value of a non-empty column is a value of dim; the one
    rule, which read_log applies per log column and validate_candidate per
    value.  An int axis takes an int (not a bool) within its bounds, a real
    axis an int or float (not a bool) within its bounds, a categorical axis
    one of its listed values of the same type (1, not true or 1.0).  Python
    compares an int with a float exactly, so no int rounds onto a bound it
    lies beyond, and NaN lies within no bounds."""
    if dim.kind == "cat":
        try:
            return set(zip(map(type, column), column)) <= set(zip(map(type, dim.values), dim.values))
        except TypeError:  # an unhashable value, such as a JSON list
            return False
    types = set(map(type, column))
    return types <= ({int} if dim.kind == "int" else {int, float}) and all(dim.low <= v <= dim.high for v in column)


def validate_candidate(space: SearchSpace, values: Sequence[Any]) -> tuple:
    """values as a tuple of Python values, each numpy scalar by the value it
    holds; SpaceError unless it holds one value of each dimension."""
    _check(len(values) == len(space), f"{len(values)} values, but the space has {len(space)} dimensions")
    out = tuple(v.item() if isinstance(v, np.generic) else v for v in values)
    for dim, v in zip(space.dimensions, out):
        if not values_in_dimension(dim, (v,)):
            raise SpaceError(f"{dim.name}={v!r} is not a value of the space")
    return out


def ordinal_bounds(space: SearchSpace) -> tuple[tuple, tuple, np.ndarray]:
    """Each axis's low and high on the number line, and a mask of its
    counting axes (int and categorical), whose points are whole numbers.  A
    categorical axis runs from 0 to n - 1, the list indices of its values.
    The bounds are the Python numbers the space holds, so an int bound past
    2**53 stays exact; a caller that moves in floats converts them."""
    low = tuple(0 if dim.kind == "cat" else dim.low for dim in space)
    high = tuple(len(dim.values) - 1 if dim.kind == "cat" else dim.high for dim in space)
    return low, high, np.array([dim.kind != "real" for dim in space])


def to_ordinal(space: SearchSpace, values: Sequence[Any]) -> tuple:
    """A candidate's point on the number line: an int or real value as it
    is, a categorical value as its list index."""
    return tuple(dim.values.index(v) if dim.kind == "cat" else v for dim, v in zip(space.dimensions, values))


def from_ordinal(space: SearchSpace, x: np.ndarray) -> tuple:
    """The candidate at a point x of the number line: each coordinate
    clamped to its axis, int and categorical ones rounded half to even
    first; a categorical index becomes its value."""
    out = []
    for dim, v in zip(space.dimensions, x.tolist()):
        if dim.kind == "real":
            out.append(min(max(v, dim.low), dim.high))
        elif dim.kind == "int":
            out.append(int(min(max(round(v), dim.low), dim.high)))
        else:
            idx = int(min(max(round(v), 0), len(dim.values) - 1))
            out.append(dim.values[idx])
    return tuple(out)


def candidate_key(space: SearchSpace, values: Sequence[Any]) -> tuple:
    """Key for caching and duplicate detection: the candidate tuple itself.

    Tuple equality is exact: two candidates share a key iff every coordinate
    compares equal.  So 0.1 + 0.2 and 0.3 stay apart, while 0.0 and -0.0 on
    a real axis are one key.  Categorical values are hashable by
    construction (Dimension checks them).
    """
    return tuple(values)


def _fields_to_dict(obj: Any) -> dict:
    """The fields of a dataclass instance in declaration order, tuples as
    lists, those that are None left out: a dimension's entry in a space
    file."""
    return {f.name: list(v) if type(v) is tuple else v for f in fields(obj) if (v := getattr(obj, f.name)) is not None}


def space_to_dict(space: SearchSpace) -> dict:
    return {"dimensions": [_fields_to_dict(d) for d in space.dimensions]}


def _dimension_from_dict(d: dict) -> Dimension:
    """The dimension an entry of exactly Dimension's fields declares; a
    missing name or kind reads as ""."""
    if not isinstance(d, dict):
        raise SpaceError(f"dimension entry must be a mapping, got {type(d).__name__}")
    extra = set(d) - {f.name for f in fields(Dimension)}
    _check(not extra, f"unknown dimension fields: {sorted(extra, key=str)}")
    return Dimension(**{"name": "", "kind": "", **d})


def space_from_dict(payload: dict) -> SearchSpace:
    if not isinstance(payload, dict) or "dimensions" not in payload:
        raise SpaceError("space definition must be a mapping with a 'dimensions' list")
    dims = payload["dimensions"]
    if not isinstance(dims, list):
        raise SpaceError("'dimensions' must be a list")
    return SearchSpace(tuple(_dimension_from_dict(d) for d in dims))


def _parse(text: str, path: str) -> Any:
    """JSON text by JSON's rules, so 1e+300 is a number and not YAML 1.1's
    string; any other text, a BOM or an empty file included, as YAML.  A
    YAML error is "PATH: not valid YAML: PROBLEM (line L, column C)", L and
    C counted from 1, or PyYAML's own text, which spans lines, when it marks
    no problem."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        import yaml  # only a YAML space pays for the import
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        problem, mark = getattr(exc, "problem", None), getattr(exc, "problem_mark", None)
        detail = str(exc) if problem is None or mark is None else f"{problem} (line {mark.line + 1}, column {mark.column + 1})"
        raise SpaceError(f"{path}: not valid YAML: {detail}") from exc


def load_space(path: str) -> SearchSpace:
    """Load a space from a JSON or YAML file, parsed by ``_parse``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = _parse(fh.read(), path)
    except (OSError, UnicodeDecodeError) as exc:
        raise SpaceError(f"cannot read space file: {exc}") from None
    except SpaceError:
        raise
    except ValueError as exc:
        # a scalar that parses but Python cannot build: an integer of more
        # digits than int() converts, a YAML date such as 2020-13-01
        raise SpaceError(f"{path}: cannot read a value: {exc}") from None
    if payload is None:
        raise SpaceError(f"{path}: file is empty")
    return space_from_dict(payload)


def space_digest(space: SearchSpace) -> str:
    """Stable sha256 over the canonical JSON form, for log headers."""
    blob = json.dumps(space_to_dict(space), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
