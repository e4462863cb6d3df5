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
from typing import Any, Callable, Mapping

import numpy as np

from .space import SearchSpace

DEFAULT_TIMEOUT = 300.0
TAIL_BYTES = 4096  # how much of the end of a scorer's stdout is read


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
    timeout: float = DEFAULT_TIMEOUT
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
            shlex.split(target)  # the split evaluate_external makes on every trial
        except ValueError as exc:  # an unclosed quote, or a backslash at the end
            raise ObjectiveError(f"external command {target!r} does not split into words: {exc}") from None

    direction = params.pop("direction", "minimize")
    if direction not in ("minimize", "maximize"):
        raise ObjectiveError(f"direction must be minimize or maximize, got {direction!r}")

    timeout = DEFAULT_TIMEOUT
    if kind == "external" and "timeout" in params:
        try:
            timeout = float(params.pop("timeout"))
        except ValueError:
            raise ObjectiveError("timeout must be a number") from None
        if not timeout > 0:
            raise ObjectiveError("timeout must be positive")

    if kind == "builtin" and target not in BUILTIN_NAMES:
        raise ObjectiveError(f"no builtin named {target!r}; choose from {sorted(BUILTIN_NAMES)}")
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

def sphere(x: np.ndarray) -> float:
    return float((x * x).sum())


def rastrigin(x: np.ndarray) -> float:
    return float(10.0 * x.size + (x * x - 10.0 * np.cos(2.0 * np.pi * x)).sum())


def rosenbrock(x: np.ndarray) -> float:
    return float((100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2).sum())


def branin(x: np.ndarray) -> float:
    a = 1.0
    b = 5.1 / (4.0 * math.pi**2)
    c = 5.0 / math.pi
    r = 6.0
    s = 10.0
    t = 1.0 / (8.0 * math.pi)
    return float(a * (x[1] - b * x[0] ** 2 + c * x[0] - r) ** 2 + s * (1.0 - t) * np.cos(x[0]) + s)


def styblinski_tang(x: np.ndarray) -> float:
    return float(0.5 * (x**4 - 16.0 * x**2 + 5.0 * x).sum())


def additive_component(z: np.ndarray) -> np.ndarray:
    """Zero-mean, unit-variance transform of z ~ U[0, 1]."""
    return math.sqrt(3.0) * (2.0 * z - 1.0)


BUILTINS: dict[str, Callable[[np.ndarray], float]] = {
    "sphere": sphere,
    "rastrigin": rastrigin,
    "rosenbrock": rosenbrock,
    "branin": branin,
    "styblinski-tang": styblinski_tang,
}
# additive-anova is built by make_objective: it needs coefficients and bounds
BUILTIN_NAMES = (*BUILTINS, "additive-anova")
# the keys each objective reads, by builtin name or "external"
OBJECTIVE_KEYS: dict[str, tuple[str, ...]] = {
    **dict.fromkeys(BUILTINS, ("direction",)),
    "additive-anova": ("coeffs", "direction"),
    "external": ("timeout", "direction"),
}


def _parse_coeffs(params: Mapping[str, str], d: int) -> np.ndarray:
    raw = params.get("coeffs")
    if raw is None:
        raise ObjectiveError("additive-anova needs a coeffs parameter, e.g. coeffs=3,1")
    try:
        coeffs = np.array([float(c) for c in raw.split(",")], dtype=float)
    except ValueError:
        raise ObjectiveError(f"coeffs {raw!r} is not a comma-separated number list") from None
    if coeffs.size != d:
        raise ObjectiveError(f"coeffs has {coeffs.size} entries for a {d}-dimensional space")
    return coeffs


@dataclass
class Objective:
    """Callable wrapper the engine evaluates candidates through.

    __call__ takes a candidate tuple and returns the engine-side score
    (already negated for minimize specs).  calls counts actual evaluations,
    which is how budget/cache accounting is audited.
    """

    spec: ObjectiveSpec
    fn: Callable[[tuple], float]
    calls: int = field(default=0)

    def __call__(self, values: tuple) -> float:
        self.calls += 1
        raw = self.fn(values)
        if not math.isfinite(raw):
            raise ObjectiveFailure("non-finite value")
        return -raw if self.spec.direction == "minimize" else raw


def make_objective(spec: ObjectiveSpec | str, space: SearchSpace) -> Objective:
    """Bind a spec to a space, returning the engine-facing callable."""
    if isinstance(spec, str):
        spec = parse_objective_spec(spec)

    if spec.kind == "external":
        def fn(values: tuple, _spec=spec, _space=space) -> float:
            return evaluate_external(_spec.target, values, _space, _spec.timeout)
        return Objective(spec=spec, fn=fn)

    name = spec.target
    for dim in space:
        if dim.kind == "cat":
            raise ObjectiveError(f"builtin {name!r} needs numeric dimensions; {dim.name} is categorical")

    if name == "branin" and len(space) != 2:
        raise ObjectiveError(f"branin is 2-dimensional; space has {len(space)} dimensions")

    if name == "additive-anova":
        coeffs = _parse_coeffs(dict(spec.params), len(space))
        lows = np.array([d.low for d in space], dtype=float)
        highs = np.array([d.high for d in space], dtype=float)
        if np.any(highs <= lows):
            raise ObjectiveError("additive-anova needs strictly positive ranges for normalization")

        def base(x: np.ndarray, _c=coeffs, _lo=lows, _span=highs - lows) -> float:
            return float((_c * additive_component((x - _lo) / _span)).sum())
    else:
        base = BUILTINS[name]

    # a value beyond float range is the failed trial "non-finite value", not a warning
    @np.errstate(over="ignore", invalid="ignore")
    def fn(values: tuple, _base=base) -> float:
        return _base(np.array(values, dtype=float))

    return Objective(spec=spec, fn=fn)


def format_argument(dim_kind: str, name: str, value: Any) -> str:
    """One name=value argument.  Integers render without a decimal point,
    reals with repr (round-trip exact), categoricals as plain strings."""
    if dim_kind == "int":
        return f"{name}={int(value)}"
    if dim_kind == "real":
        return f"{name}={float(value)!r}"
    return f"{name}={value}"


def evaluate_external(command: str, values: tuple, space: SearchSpace, timeout: float) -> float:
    """Run an external scorer once.

    The command gets one name=value argument per dimension in space order.
    It must exit 0 with a decimal score as the last non-blank line of
    stdout, else ObjectiveFailure; a score such as "nan" is returned for
    Objective to refuse.  stdout goes to a temporary file whose last
    TAIL_BYTES alone are read, as UTF-8 with replacement: a last line not
    wholly within them is unparseable output.  stderr is discarded.  When the
    command exits, times out or is interrupted, every process left in its
    session is killed.  The wait polls, so a trial can end ~50 ms late.
    """
    argv = shlex.split(command) + [format_argument(d.kind, d.name, v) for d, v in zip(space.dimensions, values)]
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
        tail = os.pread(out.fileno(), TAIL_BYTES + 1, max(0, os.fstat(out.fileno()).st_size - TAIL_BYTES - 1))
    if proc.returncode != 0:
        raise ObjectiveFailure(f"exit {proc.returncode}")
    cut = len(tail) > TAIL_BYTES  # a byte more was read: the piece before the first line end may end a longer line
    lines = [ln for ln in tail.decode("utf-8", "replace").splitlines()[cut:] if ln.strip()]
    if not lines:
        raise ObjectiveFailure(f"unparseable output (no whole non-blank line in the last {TAIL_BYTES} bytes)" if cut else "no output")
    try:
        return float(lines[-1].strip())
    except ValueError:
        raise ObjectiveFailure(f"unparseable output {lines[-1].strip()!r}") from None
