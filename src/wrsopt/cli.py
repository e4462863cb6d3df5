"""Command-line interface.

Subcommands: run (execute one optimization and write its log), report
(summarize one log), compare (table across several logs), importance
(the weights and probabilities a wrs run with the log's seed fits on it).

Exit codes: 0 success, 1 runtime failure (failed run, unreadable or
degenerate log, unwritable output, Ctrl-C), 2 usage or configuration
error.  The commands raise; main alone turns an error into one ``error:``
line, escaped by ``printable_name``, as the parser does its usage errors.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys

from .engine import AllTrialsFailedError, EngineError, RunConfig, execute_run, fit_weights
from .importance import ImportanceError, weights_to_probabilities
from .objectives import ObjectiveError, make_objective
from .reporting import (
    ReportError,
    compare,
    fit_to_dict,
    render_importance_csv,
    render_importance_text,
    render_report_text,
    render_table_csv,
    render_table_text,
    summarize,
    trend,
)
from .space import SpaceError, load_space, printable_name, space_from_dict
from .triallog import STRATEGIES, ConfigError, LogError, read_log, write_log


def _positive_int(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return v


def _non_negative_int(text: str) -> int:
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return v


def _assignment(text: str, conv, flag: str):
    """(NAME, VALUE), split at the last '=', which no number holds; NAME is
    kept as written, since a dimension name may hold '=' or end in a space."""
    name, eq, raw = text.rpartition("=")
    if not (eq and name):
        raise ConfigError(f"{flag} expects NAME=VALUE, got {text!r}")
    try:
        return name, conv(raw)
    except ValueError:
        raise ConfigError(f"{flag}: cannot parse value in {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are one ``error:`` line and exit 2."""

    def error(self, message: str):
        self.exit(2, f"error: {printable_name(message)}\n")


class _WriteError(Exception):
    """An output or log file that cannot be written: a runtime failure."""


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wrsopt", description="Derivative-free hyperparameter search with importance-weighted resampling.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one optimization run and write its trial log")
    run.add_argument("--space", required=True, help="YAML search-space file")
    run.add_argument("--objective", required=True, help="objective spec, e.g. builtin:rastrigin or 'external:python train.py?timeout=600'")
    run.add_argument("--strategy", required=True, choices=STRATEGIES)
    run.add_argument("--budget", required=True, type=int, help="total number of trials N")
    run.add_argument("--init", type=int, default=0, help="length of the initial uniform phase (wrs only)")
    run.add_argument("--seed", type=int, default=None, help="run seed; generated and echoed when omitted")
    run.add_argument("--out", default=None, help="log path (default STRATEGY-seedSEED.jsonl)")
    run.add_argument("--set-prob", action="append", default=[], metavar="NAME=P", help="override a change probability; NAME may be '*'")
    run.add_argument("--set-kmin", action="append", default=[], metavar="NAME=K", help="override a minimum fresh-sample count; NAME may be '*'")
    run.add_argument("--opt", action="append", default=[], metavar="KEY=VALUE", help="sampler option (pso: swarm/omega/c1/c2; nelder-mead: alpha/gamma/rho/sigma/init_step)")
    run.set_defaults(func=_cmd_run)

    report = sub.add_parser("report", help="summarize one trial log")
    report.add_argument("log")
    report.add_argument("--window", type=_positive_int, default=100)
    report.add_argument("--degree", type=_non_negative_int, default=5)
    report.add_argument("--csv", default=None, help="also write the summary row as CSV")
    report.add_argument("--fit", default=None, help="also write the polynomial fit as JSON")
    report.set_defaults(func=_cmd_report)

    cmp_ = sub.add_parser("compare", help="side-by-side table across logs")
    cmp_.add_argument("logs", nargs="+")
    cmp_.add_argument("--window", type=_positive_int, default=100)
    cmp_.add_argument("--csv", default=None)
    cmp_.set_defaults(func=_cmd_compare)

    imp = sub.add_parser("importance", help="estimate per-dimension weights and probabilities from a log")
    imp.add_argument("log")
    imp.add_argument("--csv", default=None)
    imp.set_defaults(func=_cmd_importance)

    return parser


def _write_output(path: str, text: str) -> None:
    """Write one requested output file."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _WriteError(f"cannot write {path}: {exc}") from None


def _cmd_run(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else secrets.randbits(32)
    space = load_space(args.space)
    objective = make_objective(args.objective, space)
    config = RunConfig(
        strategy=args.strategy,
        budget=args.budget,
        init=args.init,
        seed=seed,
        prob_overrides=tuple(_assignment(s, float, "--set-prob") for s in args.set_prob),
        kmin_overrides=tuple(_assignment(s, int, "--set-kmin") for s in args.set_kmin),
        sampler_options=tuple(_assignment(s, float, "--opt") for s in args.opt),
    )
    config.validate(space)

    print(f"seed: {seed}")
    out = args.out or f"{config.strategy}-seed{seed}.jsonl"
    try:
        result = execute_run(space, objective, config)
        for w in result.warnings:
            print(f"warning: {w}", file=sys.stderr)
        try:
            write_log(out, result.header, result.records)
        except OSError as exc:
            raise _WriteError(f"cannot write log {out}: {exc}") from None
    except AllTrialsFailedError as exc:
        raise AllTrialsFailedError(f"{exc}; no log written") from None
    except KeyboardInterrupt:
        raise EngineError("interrupted; no log written") from None

    report = summarize(result.header, result.records)
    print(f"log: {printable_name(out)}")
    # str() of a number, a boolean or None is printable already, so only text can change
    pairs = " ".join(f"{printable_name(n)}={printable_name(str(v))}" for n, v in zip(space.names, report.best_values))
    print(f"best: {report.best:.6g} at iteration {report.best_iteration} ({pairs})")
    print(f"trials: {len(result.records)} (evaluated {report.n_evaluated}, cached {report.n_cached}, failed {report.n_failed})")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    header, records = read_log(args.log)
    if args.window > len(records):
        print(f"warning: window {args.window} exceeds {len(records)} trials; clamped", file=sys.stderr)
    report = summarize(header, records, window=args.window, source=args.log)
    fit = trend(records, args.degree)

    sys.stdout.write(render_report_text(report, fit))
    if args.csv:
        _write_output(args.csv, render_table_csv((report,)))
    if args.fit:
        if fit is None:
            print("warning: no fit produced; fit file not written", file=sys.stderr)
        else:
            _write_output(args.fit, json.dumps(fit_to_dict(fit), indent=2) + "\n")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    reports = [summarize(*read_log(path), window=args.window, source=path) for path in args.logs]
    rows = compare(reports)
    sys.stdout.write(render_table_text(rows))
    if args.csv:
        _write_output(args.csv, render_table_csv(rows))
    return 0


def _cmd_importance(args: argparse.Namespace) -> int:
    header, records = read_log(args.log)
    space = space_from_dict(header.space)
    # the fit of a wrs run with the log's seed, so an rs log of length n0
    # gives the profile a wrs run with init=n0 and that seed computes
    weights = fit_weights(records, space, header.seed)
    probs = weights_to_probabilities(weights)

    sys.stdout.write(render_importance_text(space, weights, probs))
    if args.csv:
        _write_output(args.csv, render_importance_csv(space, weights, probs))
    return 0


# any other exception is a bug and keeps its traceback
_USER_ERRORS = (SpaceError, ObjectiveError, ConfigError)
_RUNTIME_ERRORS = (EngineError, LogError, ReportError, ImportanceError, _WriteError)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _USER_ERRORS + _RUNTIME_ERRORS as exc:
        print(f"error: {printable_name(str(exc))}", file=sys.stderr)
        return 2 if isinstance(exc, _USER_ERRORS) else 1
    except KeyboardInterrupt:  # outside a run's trials and log write, which _cmd_run words itself
        print("error: interrupted", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
