"""A hypothesis sweep of run -> log -> report/compare/importance through
cli.main on random mixed spaces, degenerate ones included.

Invariants:
* every exit code is 0, 1 or 2, no exception escapes main, and an error is
  one ``error:`` line;
* a config that RunConfig.validate accepts never exits 2: run refuses only
  before it prints ``seed:``, and report, compare and importance of a
  written log never exit 2;
* a written log holds exactly budget records, its running best never
  decreases, and ``best:`` names that best;
* every logged candidate passes validate_candidate unchanged;
* no RuntimeWarning escapes.

The objective runs in-process (cli.make_objective is replaced), so an
example costs no process spawn.
"""

from __future__ import annotations

import contextlib
import io
import math
import warnings
import zlib

import yaml
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from wrsopt import cli
from wrsopt.engine import RunConfig
from wrsopt.objectives import ObjectiveFailure
from wrsopt.space import Dimension, SearchSpace, SpaceError, load_space, space_to_dict, validate_candidate
from wrsopt.triallog import STRATEGIES, ConfigError, read_log

from _util import python_objective

# names and categories with line ends, line separators, a tab, quotes, a
# backslash, '=' and non-ASCII text
_TEXT = st.text(st.sampled_from(list("ab= \n\r\t\u2028\u2029\u0085\"'\\é中")), min_size=1, max_size=4)
_SCALARS = st.one_of(_TEXT, st.integers(-3, 3), st.sampled_from((0.5, -0.0, 1e300)), st.booleans(), st.none())


@st.composite
def _dimension(draw, name: str) -> Dimension:
    kind = draw(st.sampled_from(("int", "real", "cat")))
    if kind == "int":
        low = draw(st.integers(-3, 3))
        return Dimension(name=name, kind="int", low=low, high=low + draw(st.sampled_from((0, 1, 5))))
    if kind == "real":
        low, high = draw(st.sampled_from(((0.0, 0.0), (-2.5, -2.5), (0.0, 1.0), (-5.0, 5.0), (-1e300, 1e300))))
        return Dimension(name=name, kind="real", low=low, high=high)
    values = draw(st.lists(_SCALARS, min_size=1, max_size=3))
    weights = draw(st.none() | st.lists(st.sampled_from((1e-3, 1.0, 9.0)), min_size=len(values), max_size=len(values)))
    try:
        return Dimension(name=name, kind="cat", values=values, weights=weights)
    except SpaceError:  # equal values, such as 1 and True
        assume(False)


@st.composite
def _spaces(draw) -> SearchSpace:
    names = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    return SearchSpace(tuple(draw(_dimension(name)) for name in names))


def _overrides(draw, space: SearchSpace, values) -> list[tuple[str, object]]:
    """A random partial or full NAME=VALUE list, '*' included."""
    names = draw(st.lists(st.sampled_from(("*", *space.names)), max_size=len(space) + 1))
    return [(name, draw(values)) for name in names]


def _objective(space: SearchSpace, scale: float, fail_one_in: int):
    """A score for any space: each number scaled, each category by its
    position; a fixed share of candidates fails."""

    def fn(values: tuple) -> float:
        if fail_one_in and zlib.crc32(repr(values).encode()) % fail_one_in == 0:
            raise ObjectiveFailure("exit 1")
        total = 0.0
        for dim, v in zip(space.dimensions, values):
            total += dim.values.index(v) if dim.kind == "cat" else scale * v
        return total

    return python_objective(fn)


def _main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    if code:
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: "), err.getvalue()
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data(), space=_spaces())
def test_run_report_compare_importance_sweep(tmp_path_factory, monkeypatch, data, space):
    draw = data.draw
    tmp = tmp_path_factory.mktemp("sweep")
    strategy = draw(st.sampled_from(STRATEGIES))
    budget = draw(st.integers(1, 30))
    init = draw(st.integers(0, budget - 1)) if strategy == "wrs" else 0
    prob, kmin, opts = [], [], []
    if strategy == "wrs":
        prob = _overrides(draw, space, st.sampled_from((0.01, 0.5, 1.0)))
        kmin = _overrides(draw, space, st.integers(0, 3))
    elif strategy == "pso":
        opts = [("swarm", draw(st.sampled_from((2.0, 3.0, 20.0))))]
    config = RunConfig(strategy, budget, init, seed=draw(st.integers(0, 2**32 - 1)),
                       prob_overrides=tuple(prob), kmin_overrides=tuple(kmin), sampler_options=tuple(opts))
    try:
        config.validate(space)
        accepted = True
    except ConfigError:
        accepted = False

    space_file, log = tmp / "space.yaml", str(tmp / "run.jsonl")
    space_file.write_text(yaml.safe_dump(space_to_dict(space)), encoding="utf-8")
    assert load_space(str(space_file)) == space
    objective = _objective(space, draw(st.sampled_from((1.0, 1e300))), draw(st.sampled_from((0, 3, 1))))
    monkeypatch.setattr(cli, "make_objective", lambda spec, _space: objective)
    argv = ["run", "--space", str(space_file), "--objective", "builtin:sphere", "--strategy", strategy,
            "--budget", str(budget), "--seed", str(config.seed), "--out", log]
    if strategy == "wrs":
        argv += ["--init", str(init)]
    argv += [a for name, p in prob for a in ("--set-prob", f"{name}={p}")]
    argv += [a for name, k in kmin for a in ("--set-kmin", f"{name}={k}")]
    argv += [a for key, v in opts for a in ("--opt", f"{key}={v}")]

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _main(argv)
        assert (code == 2) == (not accepted), err
        assert (code == 2) == ("seed:" not in out)
        if code == 1:
            assert err.endswith("failed; no log written\n")
        if code == 0:
            header, records = read_log(log)
            assert len(records) == budget == header.budget
            best, bests = -math.inf, []
            for rec in records:
                assert validate_candidate(space, rec.values) == rec.values
                if not rec.failed:
                    best = max(best, rec.score)
                bests.append(best)
            assert bests == sorted(bests)
            assert f"best: {best:.6g} at iteration {bests.index(best) + 1} " in out
            for argv in (
                ["report", log],
                ["report", log, "--degree", str(draw(st.integers(0, 6))), "--window", str(draw(st.integers(1, 40)))],
                ["compare", log, log],
                ["importance", log],
            ):
                assert _main(argv)[0] in (0, 1)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], [str(w.message) for w in caught]
