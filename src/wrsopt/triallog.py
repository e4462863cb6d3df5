"""Trial log reading and writing.

A log is a JSON Lines file: one header record on the first line, then one
trial record per line in iteration order.  Field order is fixed so that a
replayed run reproduces the file byte for byte, with one documented
exception: wall_time measures real elapsed seconds and is excluded from any
replay comparison (record_fingerprint drops it).

Failed trials store their score as -Infinity, which is the standard Python
json extension of JSON number syntax; any reader using Python's json module
(or a parser with the same extension) round-trips it unchanged.

This module alone decides what a valid trial record is (``read_log``) and
what a failed trial is (``TrialRecord.failed``); every other module trusts
the records it is given.  What a valid value is, ``space`` decides.  What
settings a run takes, ``validate_settings`` alone decides, for
``RunConfig.validate`` and for a log's header in ``read_log`` alike.

The dataclasses ``TrialRecord`` and ``RunHeader`` declare the fields of a
line, their order and their types; the field tables that reading checks
against are derived from them.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, field, fields
from typing import Any, Sequence, get_type_hints

from .space import (
    SearchSpace,
    SpaceError,
    fields_to_dict,
    space_digest,
    space_from_dict,
    validate_candidate,
    values_in_dimension,
)
from .sobol import BITS as SOBOL_BITS, MAX_DIM as SOBOL_MAX_DIM

_SCHEMA_VERSION = 1
# the strategies a run writes in its header, in the order compare lists them
STRATEGIES = ("wrs", "rs", "sobol", "nelder-mead", "pso")
FAILED_SCORE = float("-inf")


class LogError(ValueError):
    """Malformed, inconsistent, or unreadable trial log."""


class ConfigError(ValueError):
    """Invalid run configuration (caller mistake, not a runtime failure)."""


# the groups of RunConfig.settings, which a header's options hold
SETTINGS_GROUPS = ("sampler", "prob_overrides", "kmin_overrides")
# each strategy's sampler options and the range a value must lie in; swarm
# must also be a whole number
_SAMPLER_OPTIONS = {
    "nelder-mead": {"alpha": "(0, 10]", "gamma": "(0, 10]", "rho": "(0, 1)", "sigma": "(0, 1)", "init_step": "(0, 1]"},
    "pso": {"swarm": "[2, inf)", "omega": "[0, 1)", "c1": "[0, 4]", "c2": "[0, 4]"},
}


def _in_interval(x: float, interval: str) -> bool:
    """Whether x lies in an interval written as "(0, 1]": a bracket is a
    closed end, a parenthesis an open one."""
    low, high = map(float, interval[1:-1].split(","))
    return (low <= x if interval[0] == "[" else low < x) and (x <= high if interval[-1] == "]" else x < high)


def resolve_overrides(space: SearchSpace, settings: dict[str, float]) -> dict[int, float]:
    """One group of a run's settings, keyed by dimension index.  '*'
    covers every dimension and a named value replaces it whatever the flag
    order; for a name given twice, '*' included, the last value wins."""
    out = dict.fromkeys(range(len(space)), settings["*"]) if "*" in settings else {}
    out.update((space.index_of(name), v) for name, v in settings.items() if name != "*")
    return out


def validate_settings(space: SearchSpace, strategy: str, budget: int, init: int, seed: int, settings: dict) -> None:
    """Raise ConfigError, or SpaceError for an override naming no dimension,
    unless a run on space takes these settings (RunConfig.settings() or a
    header's options).  A bool is a number, as RunConfig takes True."""
    if strategy not in STRATEGIES:
        raise ConfigError(f"strategy {strategy!r}; a run's strategy is one of {', '.join(STRATEGIES)}")
    if budget < 1:
        raise ConfigError(f"budget {budget}; a run holds at least 1 trial")
    if not 0 <= init < budget:
        raise ConfigError(f"init {init} at budget {budget}; a run needs 0 <= init < budget")
    if seed < 0:
        raise ConfigError(f"seed {seed}; a run's seed is at least 0")
    if init and strategy != "wrs":
        raise ConfigError(f"init {init} for strategy {strategy}; only wrs takes an init")
    for group, values in settings.items():
        if group not in SETTINGS_GROUPS or type(values) is not dict:
            raise ConfigError(f"options group {group!r}; a run's options are objects named {', '.join(SETTINGS_GROUPS)}")
    prob_over, kmin_over = settings.get("prob_overrides", {}), settings.get("kmin_overrides", {})
    if (prob_over or kmin_over) and strategy != "wrs":
        raise ConfigError(f"overrides for strategy {strategy}; only wrs takes overrides")
    probs = resolve_overrides(space, prob_over)  # both raise SpaceError for a name the space lacks
    resolve_overrides(space, kmin_over)
    for over, label, interval in ((prob_over, "probability", "(0, 1]"), (kmin_over, "k-min", "[0, inf)")):
        for name, value in over.items():
            if not isinstance(value, numbers.Real) or not _in_interval(value, interval):
                raise ConfigError(f"{label} override for {name!r} must lie in {interval}, got {value!r}")
    for name, value in kmin_over.items():
        if value != int(value):
            raise ConfigError(f"k-min override for {name!r} must be a whole number, got {value!r}")
    if len(probs) == len(space) and max(probs.values()) != 1.0:  # full coverage: no fitted weight can supply the 1
        raise ConfigError("override produces an invalid profile: at least one change probability must be exactly 1")
    if strategy == "sobol" and len(space) > SOBOL_MAX_DIM:
        raise ConfigError(f"sobol supports at most {SOBOL_MAX_DIM} dimensions; the space has {len(space)}")
    if strategy == "sobol" and budget > 1 << SOBOL_BITS:
        raise ConfigError(f"sobol yields at most {1 << SOBOL_BITS} points; the budget is {budget}")
    if strategy in ("nelder-mead", "pso"):  # float64 holds every whole number up to 2**53 and no further
        for dim in space:
            if dim.kind == "int" and max(-dim.low, dim.high) > 2**53:
                raise ConfigError(
                    f"int dimension {dim.name!r} has a bound of magnitude above 2**53 for strategy {strategy}; "
                    "nelder-mead and pso move in floats, which skip whole numbers there"
                )
    ranges = _SAMPLER_OPTIONS.get(strategy, {})
    for key, value in settings.get("sampler", {}).items():
        if key not in ranges:
            raise ConfigError(f"option {key!r} does not apply to strategy {strategy!r}")
        if not isinstance(value, numbers.Real) or not _in_interval(value, ranges[key]):  # nan lies in none
            raise ConfigError(f"option {key!r} must lie in {ranges[key]}, got {value!r}")
        if key == "swarm" and value != int(value):
            raise ConfigError(f"option 'swarm' must be a whole number of particles, got {value}")


# The JSON types write_log writes for a field of each annotated type, and
# their name.  json.loads yields exactly these classes, so a type() test keeps
# bools out of the int and number fields.  A field whose types include null
# may also be absent.
_JSON_TYPES = {
    int: ((int,), "an int"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    tuple: ((list,), "a list"),
    dict: ((dict,), "an object"),
    str | None: ((str, type(None)), "a string"),
    dict | None: ((dict, type(None)), "an object or null"),
}
# the two type tuples TrialRecord.from_dict tests on every line
_NUMBER_TYPES = _JSON_TYPES[float][0]
_STR_OR_NONE_TYPES = _JSON_TYPES[str | None][0]


def _field_table(cls: type) -> tuple:
    """Each field of the dataclass cls, in declaration order, with the JSON
    types of its annotation."""
    hints = get_type_hints(cls)
    return tuple((f.name, _JSON_TYPES[hints[f.name]]) for f in fields(cls))


def _field(d: dict, key: str, kind: tuple[tuple[type, ...], str], where: str) -> Any:
    """d[key] if it has one of the types of kind; LogError naming where
    otherwise."""
    types, name = kind
    if key not in d:
        if type(None) in types:
            return None
        raise LogError(f"{where}: missing {key!r}")
    v = d[key]
    if type(v) not in types:
        raise LogError(f"{where}: {key} must be {name}, got {v!r}")
    return v


@dataclass(slots=True)
class TrialRecord:
    """One budget unit of a run.

    score follows the engine's maximization convention; failed trials carry
    -inf and an error token, and so does a cached repeat of a failed
    candidate.  wall_time is wall-clock seconds for this trial (volatile;
    excluded from reproducibility comparisons).
    """

    iteration: int
    values: tuple
    score: float
    phase: str
    status: str
    wall_time: float
    error: str | None = None

    # the fields in declaration order, values as a list, error only when set
    to_dict = fields_to_dict

    @property
    def failed(self) -> bool:
        """The trial produced no score: the objective failed, or this is a
        cached repeat of a candidate whose evaluation failed."""
        return self.score == FAILED_SCORE

    @classmethod
    def from_dict(cls, d: dict, where: str = "bad trial record") -> "TrialRecord":
        """The record d holds; LogError, prefixed with where, unless each
        field has the JSON type write_log gives it."""
        if type(d) is not dict:
            raise LogError(f"{where}: not an object")
        get = d.get
        iteration, values, score, phase = get("iteration"), get("values"), get("score"), get("phase")
        status, wall_time, error = get("status"), get("wall_time"), get("error")
        # one test for the common case; _field names the first bad field
        if not (
            type(iteration) is int and type(values) is list and type(score) in _NUMBER_TYPES and type(phase) is str
            and type(status) is str and type(wall_time) in _NUMBER_TYPES and type(error) in _STR_OR_NONE_TYPES
        ):
            for key, kind in _TRIAL_FIELDS:
                _field(d, key, kind, where)
        if status not in ("evaluated", "cached-hit", "failed"):
            raise LogError(f"{where}: unknown status {status!r}")
        return cls(iteration, tuple(values), score, phase, status, wall_time, error)


@dataclass
class RunHeader:
    """First line of every log: enough to replay and to interpret the trials.

    profile is present only for WRS runs: the computed importance weights
    (null when every probability was overridden), the change probabilities,
    and the minimum fresh-sample counts actually used.
    """

    strategy: str
    budget: int
    init: int
    seed: int
    objective: str
    space: dict
    space_digest: str
    profile: dict | None = None
    options: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"schema": _SCHEMA_VERSION, "kind": "header", **{key: getattr(self, key) for key, _ in _HEADER_FIELDS}}

    @classmethod
    def from_dict(cls, d: dict) -> "RunHeader":
        """The header d holds; LogError unless each field has the JSON type
        write_log gives it."""
        if type(d) is not dict or d.get("kind") != "header":
            raise LogError("first line is not a header record")
        schema = d.get("schema")
        if type(schema) is not int or schema != _SCHEMA_VERSION:
            raise LogError(f"unsupported log schema {schema!r}")
        return cls(**{key: _field(d, key, kind, "bad header record") for key, kind in _HEADER_FIELDS})


# a trial's fields, and a header's after "schema" and "kind", in the order
# write_log writes them
_TRIAL_FIELDS = _field_table(TrialRecord)
_HEADER_FIELDS = _field_table(RunHeader)


# One encoder for every line.  json.dumps with non-default arguments builds a
# new JSONEncoder on each call; these are the arguments the log format fixes.
_encode = json.JSONEncoder(ensure_ascii=False, separators=(", ", ": ")).encode


def _number(x: Any) -> str:
    """x as JSON: repr for an exact int or finite float, else the encoder
    (bools, numpy scalars and +-inf/nan, which repr would spell differently)."""
    if type(x) is int or (type(x) is float and math.isfinite(x)):
        return repr(x)
    return _encode(x)


def _record_line(rec: TrialRecord) -> str:
    """One trial's log line, without the newline.

    The text equals json.dumps(rec.to_dict(), ensure_ascii=False,
    separators=(", ", ": ")), built field by field: the value list is its
    repr when every value is an exact int or a finite float, where Python
    and JSON spell numbers alike, and goes through the encoder otherwise.
    """
    values = rec.values
    if all(type(v) is int or (type(v) is float and math.isfinite(v)) for v in values):
        values_text = repr(list(values))
    else:
        values_text = _encode(list(values))
    line = (
        f'{{"iteration": {_number(rec.iteration)}, "values": {values_text}, "score": {_number(rec.score)}, '
        f'"phase": {_encode(rec.phase)}, "status": {_encode(rec.status)}, "wall_time": {_number(rec.wall_time)}'
    )
    if rec.error is not None:
        line += f', "error": {_encode(rec.error)}'
    return line + "}"


def write_log(path: str, header: RunHeader, records: Sequence[TrialRecord]) -> None:
    """Write the whole log in one pass (header first, trials in order) to
    PATH.tmp, then rename it to path; on any failure PATH.tmp is removed."""
    tmp = f"{path}.tmp"
    fh = open(tmp, "w", encoding="utf-8")
    try:
        with fh:
            # insertion order is the documented field order; -inf serializes as -Infinity
            fh.write(_encode(header.to_dict()) + "\n")
            for rec in records:
                fh.write(_record_line(rec) + "\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # the caller sees the first error
            os.remove(tmp)
        raise


def _check_profile(profile: dict | None, strategy: str, d: int) -> None:
    """Raise LogError unless profile is one a run on d dimensions writes:
    null for every strategy but wrs, and for wrs null or an object of
    exactly weights, probs and k_mins, each a list of d entries: probs
    numbers in (0, 1], one of them 1; k_mins ints of at least 0; weights
    null or finite numbers of at least 0."""
    if profile is None:
        return
    if strategy != "wrs":
        raise LogError(f"header profile for strategy {strategy}; only wrs writes a profile")
    if profile.keys() != {"weights", "probs", "k_mins"}:
        raise LogError(f"header profile fields {sorted(profile)}; a profile holds exactly weights, probs and k_mins")

    def holds(key: str, entry_ok) -> bool:
        v = profile[key]
        return type(v) is list and len(v) == d and all(map(entry_ok, v))

    if not (holds("probs", lambda p: type(p) in _NUMBER_TYPES and 0 < p <= 1) and 1 in profile["probs"]):
        raise LogError(f"header profile probs must be {d} numbers in (0, 1], one of them 1")
    if not holds("k_mins", lambda k: type(k) is int and k >= 0):
        raise LogError(f"header profile k_mins must be {d} ints of at least 0")
    if profile["weights"] is not None and not holds("weights", lambda w: type(w) in _NUMBER_TYPES and 0 <= w <= sys.float_info.max):
        raise LogError(f"header profile weights must be null or {d} finite numbers of at least 0")


def read_log(path: str) -> tuple[RunHeader, list[TrialRecord]]:
    """Parse and validate a log.  Raises LogError unless all of these hold:

    * every line is UTF-8 text and parses as JSON (json.loads), with no
      integer of more digits than Python's int() converts;
    * the first line is a header of the supported schema;
    * every header and trial field has the JSON type write_log writes: an
      int (never a bool) for counts, iterations and the seed, an int or
      float (never a bool) for score and wall_time, a string for the text
      fields and a list for values;
    * the header's space parses and matches its ``space_digest``, and its
      strategy, budget, init, seed and options pass ``validate_settings``,
      the checks ``RunConfig.validate`` makes before a run, and its
      profile is one a run writes (``_check_profile``);
    * every trial has a known status, iterations run 1, 2, ..., and each
      trial's status, score and error agree: the score is finite (no int
      beyond float range) or -inf, and -inf exactly when an error string
      is present; a ``failed`` trial carries an error, an ``evaluated``
      one none, and a ``cached-hit`` carries the error of the failure it
      repeats, if any;
    * the record count equals the declared budget;
    * every trial holds one value per dimension, each a value of that
      space as ``space.values_in_dimension`` decides.

    Lines end at a newline (U+000A) only: a carriage return is JSON
    whitespace, so CRLF line ends and a lone CR between tokens are read as
    they would be within one line.  A string value may hold U+2028, U+2029
    or U+0085 unescaped, which str.splitlines() would take for line breaks.
    Blank lines are skipped but still counted in the line numbers of errors.

    The file is read in one pass, in the order above: the header line is
    checked whole, space and digest included, before any trial, and each
    trial line whole before the next, so the first faulty line ends the
    read.  After the last line come the record count and the value check,
    which runs down each column.  Every message starts with the path, as
    "PATH: ...", except "cannot read PATH: ..." for a file that cannot be
    read, with PATH as given.  Every record shares one
    string object per distinct phase and status.
    """
    header, records = None, []
    strings: dict[str, str] = {}
    try:
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    line = raw.decode("utf-8")
                    if line.isspace():
                        continue
                    payload = json.loads(line)
                except UnicodeDecodeError as exc:
                    raise LogError(f"not UTF-8 text (byte {fh.tell() - len(raw) + exc.start})") from exc
                except ValueError:  # JSONDecodeError, or an integer too long for int()
                    raise LogError(f"invalid JSON on line {lineno}") from None
                if header is None:
                    header = RunHeader.from_dict(payload)
                    try:
                        space = space_from_dict(header.space)
                    except SpaceError as exc:
                        raise LogError(f"header space does not parse: {exc}") from exc
                    if space_digest(space) != header.space_digest:
                        raise LogError("header space does not match its space_digest")
                    try:
                        validate_settings(space, header.strategy, header.budget, header.init, header.seed, header.options)
                    except (ConfigError, SpaceError) as exc:
                        raise LogError(f"header declares {exc}") from None
                    _check_profile(header.profile, header.strategy, len(space))
                    continue
                i = len(records) + 1
                rec = TrialRecord.from_dict(payload, f"trial {i}")
                if rec.iteration != i:
                    raise LogError(f"iteration {rec.iteration} at position {i}; expected consecutive numbering")
                score, status, error = rec.score, rec.status, rec.error
                if type(score) is int and abs(score) > sys.float_info.max:  # math.isfinite would overflow
                    raise LogError(f"trial {i}: score is an integer beyond float range")
                if error is None:
                    agree = math.isfinite(score) and status in ("evaluated", "cached-hit")
                else:
                    agree = score == FAILED_SCORE and status in ("failed", "cached-hit")
                if not agree:
                    raise LogError(f"trial {i}: status {status!r}, score {score!r} and error {error!r} do not agree")
                rec.phase = strings.setdefault(rec.phase, rec.phase)
                rec.status = strings.setdefault(status, status)
                records.append(rec)
        if header is None:
            raise LogError("empty log")
        if len(records) != header.budget:
            raise LogError(f"{len(records)} records but header declares budget {header.budget}")
        _check_values(space, records)
    except OSError as exc:
        raise LogError(f"cannot read {path}: {exc}") from exc
    except LogError as exc:
        raise LogError(f"{path}: {exc}") from exc
    return header, records


def _check_values(space: SearchSpace, records: Sequence[TrialRecord]) -> None:
    """Raise LogError unless every record holds one value of each dimension.

    The first record of the wrong length is named before any stray value.
    Otherwise the check runs one pass per dimension down its column, and
    only when a column fails does a row scan name the first bad value in
    record order.  Either way the words are validate_candidate's.
    """
    misfits = [rec for rec in records if len(rec.values) != len(space)]
    if not misfits and all(map(values_in_dimension, space.dimensions, zip(*(rec.values for rec in records)))):
        return
    for rec in misfits or records:
        try:
            validate_candidate(space, rec.values)
        except SpaceError as exc:
            raise LogError(f"trial {rec.iteration}: {exc}") from None


def record_fingerprint(record: TrialRecord) -> dict:
    """Canonical comparison form of a trial: everything except wall_time."""
    d = record.to_dict()
    d.pop("wall_time")
    return d
