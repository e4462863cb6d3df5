"""Objective adapters: built-in synthetic benchmarks and an external subprocess protocol.

The engine always maximizes.  Specs with direction "minimize" (the default,
matching the benchmark conventions) are wrapped by negation at this boundary,
so a stored score of 2.5 for a minimize objective means f(x) = -2.5.

Spec strings:
    builtin:NAME[?direction=maximize]
    builtin:additive-anova?coeffs=C1,C2,...[&direction=maximize]
    external:COMMAND LINE[?timeout=SECONDS&direction=maximize]

Everything after the last '?' is treated as the parameter block when every
'&'-separated chunk has the key=value shape; otherwise the '?' is taken to be
part of the command itself.  A key OBJECTIVE_KEYS does not list for the
objective is refused: "builtin 'sphere' takes only direction, got ['centre']".
"""

from __future__ import annotations

import contextlib
import math
import os
import shlex
import signal
import subprocess
import tempfile
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Any, Callable, Mapping, Sequence

from .space import SearchSpace

_DEFAULT_TIMEOUT = 300.0
_TAIL_BYTES = 4096  # how much of the end of a scorer's stdout is read


class ObjectiveError(ValueError):
    """A spec that cannot be built against the given space."""


class ObjectiveFailure(RuntimeError):
    """A single evaluation failed; the trial is recorded as failed.

    reason is a short machine-friendly token such as "timeout" or "exit 1".
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class ObjectiveSpec:
    kind: str  # builtin | external
    target: str  # builtin name or external command line
    params: tuple[tuple[str, str], ...] = ()
    direction: str = "minimize"
    timeout: float = _DEFAULT_TIMEOUT
    text: str = ""


def parse_objective_spec(text: str) -> ObjectiveSpec:
    """Parse a spec string; see the module docstring for the grammar."""
    try:
        text.encode("utf-8")  # the log header records it; argv brings a non-UTF-8 byte as a lone surrogate
    except UnicodeEncodeError:
        raise ObjectiveError(f"objective spec {text!r} is not UTF-8 text") from None
    if ":" not in text:
        raise ObjectiveError(f"objective spec {text!r} needs a 'builtin:' or 'external:' prefix")
    kind, rest = text.split(":", 1)
    if kind not in ("builtin", "external"):
        raise ObjectiveError(f"unknown objective kind {kind!r}")

    target, params = rest, {}
    if "?" in rest:
        head, tail = rest.rsplit("?", 1)
        chunks = tail.split("&") if tail else []
        if chunks and all("=" in c for c in chunks):
            target = head
            for c in chunks:
                k, v = c.split("=", 1)
                params[k.strip()] = v.strip()
    if target.strip() == "":
        raise ObjectiveError(f"objective spec {text!r} has an empty target")
    if kind == "external":
        try:
            shlex.split(target)  # the split _evaluate_external makes on every trial
        except ValueError as exc:  # an unclosed quote, or a backslash at the end
            raise ObjectiveError(f"external command {target!r} does not split into words: {exc}") from None

    direction = params.pop("direction", "minimize")
    if direction not in ("minimize", "maximize"):
        raise ObjectiveError(f"direction must be minimize or maximize, got {direction!r}")

    timeout = _DEFAULT_TIMEOUT
    if kind == "external" and "timeout" in params:
        try:
            timeout = float(params.pop("timeout"))
        except ValueError:
            raise ObjectiveError("timeout must be a number") from None
        if not timeout > 0:
            raise ObjectiveError("timeout must be positive")

    if kind == "builtin" and target not in _BUILTIN_NAMES:
        raise ObjectiveError(f"no builtin named {target!r}; choose from {sorted(_BUILTIN_NAMES)}")
    keys = OBJECTIVE_KEYS[target if kind == "builtin" else kind]
    if unread := sorted(params.keys() - keys):
        raise ObjectiveError(f"{kind} {target!r} takes only {' and '.join(keys)}, got {unread}")

    return ObjectiveSpec(
        kind=kind,
        target=target,
        params=tuple(sorted(params.items())),
        direction=direction,
        timeout=timeout,
        text=text,
    )


# -- built-in benchmark functions -------------------------------------------
#
# Each takes the candidate's numbers and computes in Python floats: the
# float64 operations of the vectorized formula, in its order, summed by _sum
# in numpy's order, so a score equals the numpy formula's to the bit
# (tests/_objective_oracle.py keeps it).  The one exception is
# styblinski-tang's x**4, libm pow where numpy's array power has SIMD code
# of its own.  math.pow beyond float range raises OverflowError and
# math.cos(inf) ValueError; make_objective turns both into nan, as numpy
# gives inf or nan there.

_TWO_PI = 2.0 * math.pi


def _pairwise(terms: list[float]) -> float:
    """numpy's pairwise sum of 8 or more float64 terms: up to 128, eight
    accumulators over the terms in strides of 8, combined in pairs, then the
    terms past the last whole stride; beyond 128, the two halves, split at a
    multiple of 8."""
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise(terms[:half]) + _pairwise(terms[half:])
    whole = n - n % 8
    r0, r1, r2, r3, r4, r5, r6, r7 = (reduce(add, terms[j:whole:8]) for j in range(8))
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for t in terms[whole:]:
        total += t
    return total


def _sum(terms: list[float]) -> float:
    """terms summed as numpy's .sum() sums a float64 vector: into 0.0, by a
    left fold below 8 terms and pairwise from 8 on."""
    if len(terms) < 8:
        total = 0.0
        for t in terms:
            total += t
        return total
    return 0.0 + _pairwise(terms)


def _sphere(x: Sequence[float]) -> float:
    return _sum([v * v for v in map(float, x)])


def _rastrigin(x: Sequence[float]) -> float:
    return 10.0 * len(x) + _sum([v * v - 10.0 * math.cos(_TWO_PI * v) for v in map(float, x)])


def _rosenbrock(x: Sequence[float]) -> float:
    x = [float(v) for v in x]
    return _sum([100.0 * ((t := b - a * a) * t) + (u := 1.0 - a) * u for a, b in zip(x, x[1:])])


def _branin(x: Sequence[float]) -> float:
    a = 1.0
    b = 5.1 / (4.0 * math.pi**2)
    c = 5.0 / math.pi
    r = 6.0
    s = 10.0
    t = 1.0 / (8.0 * math.pi)
    x0, x1 = map(float, x)
    return a * math.pow(x1 - b * math.pow(x0, 2.0) + c * x0 - r, 2.0) + s * (1.0 - t) * math.cos(x0) + s


def _styblinski_tang(x: Sequence[float]) -> float:
    return 0.5 * _sum([math.pow(v, 4.0) - 16.0 * (v * v) + 5.0 * v for v in map(float, x)])


def _additive_component(z):
    """Zero-mean, unit-variance transform of z ~ U[0, 1], a float or an array."""
    return math.sqrt(3.0) * (2.0 * z - 1.0)


_BUILTINS: dict[str, Callable[[Sequence[float]], float]] = {
    "sphere": _sphere,
    "rastrigin": _rastrigin,
    "rosenbrock": _rosenbrock,
    "branin": _branin,
    "styblinski-tang": _styblinski_tang,
}
# additive-anova is built by make_objective: it needs coefficients and bounds
_BUILTIN_NAMES = (*_BUILTINS, "additive-anova")
# the keys each objective reads, by builtin name or "external"
OBJECTIVE_KEYS: dict[str, tuple[str, ...]] = {
    **dict.fromkeys(_BUILTINS, ("direction",)),
    "additive-anova": ("coeffs", "direction"),
    "external": ("timeout", "direction"),
}


def _parse_coeffs(params: Mapping[str, str], d: int) -> list[float]:
    raw = params.get("coeffs")
    if raw is None:
        raise ObjectiveError("additive-anova needs a coeffs parameter, e.g. coeffs=3,1")
    try:
        coeffs = [float(c) for c in raw.split(",")]
    except ValueError:
        raise ObjectiveError(f"coeffs {raw!r} is not a comma-separated number list") from None
    if len(coeffs) != d:
        raise ObjectiveError(f"coeffs has {len(coeffs)} entries for a {d}-dimensional space")
    return coeffs


@dataclass
class Objective:
    """Callable wrapper the engine evaluates candidates through.

    __call__ takes a candidate tuple and returns the engine-side score
    (already negated for minimize specs) as a Python float, whatever
    number fn returns; one beyond float range is a failed trial, as a
    builtin's is.  calls counts actual evaluations, which is how
    budget/cache accounting is audited.
    """

    spec: ObjectiveSpec
    fn: Callable[[tuple], float]
    calls: int = field(default=0)

    def __call__(self, values: tuple) -> float:
        self.calls += 1
        raw = self.fn(values)
        try:
            raw = float(raw)
        except OverflowError:  # an int beyond float range
            raw = math.nan
        if not math.isfinite(raw):
            raise ObjectiveFailure("non-finite value")
        return -raw if self.spec.direction == "minimize" else raw


def make_objective(spec: ObjectiveSpec | str, space: SearchSpace) -> Objective:
    """Bind a spec to a space, returning the engine-facing callable."""
    if isinstance(spec, str):
        spec = parse_objective_spec(spec)

    if spec.kind == "external":
        def fn(values: tuple, _spec=spec, _space=space) -> float:
            return _evaluate_external(_spec.target, values, _space, _spec.timeout)
        return Objective(spec=spec, fn=fn)

    name = spec.target
    for dim in space:
        if dim.kind == "cat":
            raise ObjectiveError(f"builtin {name!r} needs numeric dimensions; {dim.name} is categorical")

    if name == "branin" and len(space) != 2:
        raise ObjectiveError(f"branin is 2-dimensional; space has {len(space)} dimensions")
    if name == "rosenbrock" and len(space) < 2:
        # its sum over neighbouring pairs would be empty: every score 0
        raise ObjectiveError(f"rosenbrock is at least 2-dimensional; space has {len(space)} dimensions")

    if name == "additive-anova":
        coeffs = _parse_coeffs(dict(spec.params), len(space))
        lows = [float(d.low) for d in space]
        spans = [float(d.high) - low for d, low in zip(space, lows)]
        if not all(span > 0 for span in spans):
            raise ObjectiveError("additive-anova needs strictly positive ranges for normalization")

        def kernel(x: Sequence[float], _axes=tuple(zip(coeffs, lows, spans))) -> float:
            return _sum([c * _additive_component((v - lo) / span) for v, (c, lo, span) in zip(map(float, x), _axes)])
    else:
        kernel = _BUILTINS[name]

    # a value beyond float range is the failed trial "non-finite value", not an exception
    def fn(values: tuple, _kernel=kernel) -> float:
        try:
            return _kernel(values)
        except (OverflowError, ValueError):
            return math.nan

    return Objective(spec=spec, fn=fn)


def _format_argument(dim_kind: str, name: str, value: Any) -> str:
    """One name=value argument.  Integers render without a decimal point,
    reals with repr (round-trip exact), categoricals as plain strings."""
    if dim_kind == "int":
        return f"{name}={int(value)}"
    if dim_kind == "real":
        return f"{name}={float(value)!r}"
    return f"{name}={value}"


def _evaluate_external(command: str, values: tuple, space: SearchSpace, timeout: float) -> float:
    """Run an external scorer once.

    The command gets one name=value argument per dimension in space order.
    It must exit 0 with a decimal score as the last non-blank line of
    stdout, else ObjectiveFailure; a score such as "nan" is returned for
    Objective to refuse.  stdout goes to a temporary file whose last
    _TAIL_BYTES alone are read, as UTF-8 with replacement: a last line not
    wholly within them is unparseable output.  stderr is discarded.  When the
    command exits, times out or is interrupted, every process left in its
    session is killed.  The wait polls, so a trial can end ~50 ms late.
    """
    argv = shlex.split(command) + [_format_argument(d.kind, d.name, v) for d, v in zip(space.dimensions, values)]
    with tempfile.TemporaryFile() as out:
        try:
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, start_new_session=True)
        except OSError as exc:
            raise ObjectiveFailure(f"spawn failed: {exc}") from None
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            raise ObjectiveFailure("timeout") from None
        finally:  # exit, timeout and Ctrl-C alike
            with contextlib.suppress(ProcessLookupError):  # the group is empty
                os.killpg(proc.pid, signal.SIGKILL)  # an unreaped leader keeps its group alive; a reaped one's jobs do too
            proc.wait()
        tail = os.pread(out.fileno(), _TAIL_BYTES + 1, max(0, os.fstat(out.fileno()).st_size - _TAIL_BYTES - 1))
    if proc.returncode != 0:
        raise ObjectiveFailure(f"exit {proc.returncode}")
    cut = len(tail) > _TAIL_BYTES  # a byte more was read: the piece before the first line end may end a longer line
    lines = [ln for ln in tail.decode("utf-8", "replace").splitlines()[cut:] if ln.strip()]
    if not lines:
        raise ObjectiveFailure(f"unparseable output (no whole non-blank line in the last {_TAIL_BYTES} bytes)" if cut else "no output")
    try:
        return float(lines[-1].strip())
    except ValueError:
        raise ObjectiveFailure(f"unparseable output {lines[-1].strip()!r}") from None
