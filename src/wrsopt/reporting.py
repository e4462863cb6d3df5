"""Log analysis and rendering: the one per-log summary that run, report and
compare print from, the trend fit only report makes, the comparison table,
and the importance table.

Statistics conventions, also recorded in the CSV/text schemas: best/mean/SD
are computed over all trials and, in parentheses, over the trailing window
(default 100).  SD is the population form (divisor = count).  Failed trials
are excluded from the statistics but keep their place in iteration indexing;
the exclusion count is reported.

The one caller is cli, after its argument parser and after read_log or
execute_run, so nothing here checks its arguments again: a window is at
least 1, a degree is not negative, compare gets at least one report, and
every log holds a successful trial, as read_log and execute_run ensure.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .space import SearchSpace, printable_name
from .triallog import STRATEGIES, RunHeader, TrialRecord


@dataclass(frozen=True)
class FitResult:
    """Least-squares polynomial of score against iteration index.

    Coefficients are ascending powers of t where t = -1 + 2(x - x0)/(x1 - x0)
    maps the fitted iteration range [x0, x1] onto [-1, 1]; the domain is kept
    so external tools can evaluate the curve at raw indices.
    """

    degree: int
    coefficients: tuple[float, ...]
    domain: tuple[float, float]


def polyfit(scores: Sequence[float], degree: int = 5, x: Sequence[float] | None = None) -> FitResult:
    """Fit scores against their positions (default 1..n), returning ascending
    coefficients on the normalized domain.  Needs more points than degree, at
    least two distinct positions and one position per score, as trend
    ensures."""
    y = np.asarray(scores, dtype=float)
    xs = np.arange(1, y.size + 1, dtype=float) if x is None else np.asarray(x, dtype=float)
    x0, x1 = float(xs.min()), float(xs.max())
    t = -1.0 + 2.0 * (xs - x0) / (x1 - x0)
    vandermonde = np.vander(t, degree + 1, increasing=True)
    coeffs, *_ = np.linalg.lstsq(vandermonde, y, rcond=None)
    return FitResult(degree=degree, coefficients=tuple(float(c) for c in coeffs), domain=(x0, x1))


def fit_to_dict(fit: FitResult) -> dict:
    return {
        "degree": fit.degree,
        "domain": list(fit.domain),
        "coefficients": list(fit.coefficients),
        "basis": "ascending powers of t, t = -1 + 2*(x - x0)/(x1 - x0)",
    }


@dataclass(frozen=True)
class RunReport:
    strategy: str
    seed: int
    source: str
    budget: int
    window: int
    n_evaluated: int
    n_failed: int
    n_cached: int
    best: float
    best_iteration: int
    best_values: tuple
    best_window: float
    mean: float
    mean_window: float
    sd: float
    sd_window: float


def _stats(records: Sequence[TrialRecord]) -> tuple[float, float, float]:
    scores = np.array([r.score for r in records], dtype=float)
    if scores.size == 0:
        return math.nan, math.nan, math.nan
    # scores near float range overflow the sum or the variance: inf, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        return float(scores.max()), float(scores.mean()), float(scores.std(ddof=0))


def summarize(
    header: RunHeader,
    records: Sequence[TrialRecord],
    window: int = 100,
    source: str = "",
) -> RunReport:
    """Condense one log, which holds a successful trial, into its report row.

    The trailing window covers exactly min(window, N) records by position;
    failed trials inside it stay excluded from the statistics.  The best
    trial is the first to reach the best score.
    """
    valid = [r for r in records if not r.failed]
    w_eff = min(window, len(records))
    tail_valid = [r for r in records[-w_eff:] if not r.failed]

    best, mean, sd = _stats(valid)
    best_w, mean_w, sd_w = _stats(tail_valid)
    first_best = next(r for r in valid if r.score == best)

    return RunReport(
        strategy=header.strategy,
        seed=header.seed,
        source=source,
        budget=header.budget,
        window=w_eff,
        n_evaluated=sum(1 for r in records if r.status == "evaluated"),
        n_failed=len(records) - len(valid),
        n_cached=sum(1 for r in records if r.status == "cached-hit"),
        best=best,
        best_iteration=first_best.iteration,
        best_values=first_best.values,
        best_window=best_w,
        mean=mean,
        mean_window=mean_w,
        sd=sd,
        sd_window=sd_w,
    )


def trend(records: Sequence[TrialRecord], degree: int) -> FitResult | None:
    """Polynomial of the successful trials' scores against their iterations;
    None when they number fewer than two or no more than ``degree``."""
    valid = [r for r in records if not r.failed]
    if len(valid) < 2 or len(valid) <= degree:
        return None
    return polyfit([r.score for r in valid], degree=degree, x=[float(r.iteration) for r in valid])


def compare(reports: Sequence[RunReport]) -> tuple[RunReport, ...]:
    """Order reports for side-by-side rendering: by strategy in the order of
    STRATEGIES, any other strategy after them, then by seed and source."""
    order = {name: i for i, name in enumerate(STRATEGIES)}
    return tuple(sorted(reports, key=lambda r: (order.get(r.strategy, len(order)), r.strategy, r.seed, r.source)))


def _cell(x: float) -> str:
    """Two decimals below a magnitude of 1e15; six significant digits from
    there up, where two decimals would print up to 309 digits."""
    return f"{x:.2f}" if abs(x) < 1e15 else f"{x:.6g}"


def _pair(value: float, window_value: float) -> str:
    return f"{_cell(value)}({_cell(window_value)})"


def _text(rows: Sequence[Sequence[str]], right: bool) -> str:
    """rows as fixed-width text, each line ended by "\n": columns as wide as
    their widest cell and two spaces apart, the first aligned left and the
    others right if right, else left; trailing blanks stripped."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    align = str.rjust if right else str.ljust
    return "".join("  ".join([row[0].ljust(widths[0]), *map(align, row[1:], widths[1:])]).rstrip() + "\n" for row in rows)


def render_table_text(reports: Sequence[RunReport]) -> str:
    """Fixed-width text table, one row per run: best, mean, SD, each with the
    trailing-window figure in parentheses; a banner flags unequal budgets."""
    rows = [
        (r.strategy, str(r.seed), _pair(r.best, r.best_window), _pair(r.mean, r.mean_window), _pair(r.sd, r.sd_window))
        for r in reports
    ]
    text = _text([("strategy", "seed", "best", "mean", "sd"), *rows], right=False)
    budgets = sorted({r.budget for r in reports})
    if len(budgets) > 1:
        text = f"warning: logs differ in budget {budgets}; rows are not under the same computational budget\n" + text
    return text


def _csv(rows: Sequence[Sequence[str]]) -> str:
    """rows as CSV, each ended by "\n".  csv.writer quotes a cell that holds
    a character of its line terminator: "\r\n" quotes a bare CR as well as
    a LF, where "\n" would leave a CR bare for csv.reader to end the row at."""
    lines = []
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines)


def render_table_csv(reports: Sequence[RunReport]) -> str:
    rows = [[r.strategy, *map(repr, (r.best, r.best_window, r.mean, r.mean_window, r.sd, r.sd_window))] for r in reports]
    return _csv([("strategy", "best", "best_lastW", "mean", "mean_lastW", "sd", "sd_lastW"), *rows])


def render_report_text(report: RunReport, fit: FitResult | None) -> str:
    """Single-run detail block: the table row, context lines and the trend."""
    lines = [render_table_text((report,)).rstrip("\n")]
    lines.append(f"budget: {report.budget}  window: {report.window}")
    lines.append(f"best: {report.best:.6g} at iteration {report.best_iteration}")
    lines.append(f"failed: {report.n_failed}  cached: {report.n_cached}")
    if fit is not None:
        lines.append(f"fit: degree {fit.degree} over iterations [{fit.domain[0]:.0f}, {fit.domain[1]:.0f}], coefficients:")
        # a .6g coefficient takes up to 13 characters, so a line of 8 stays within 120
        cells = [f"{c:.6g}" for c in fit.coefficients]
        lines.extend("  " + " ".join(cells[k : k + 8]) for k in range(0, len(cells), 8))
    else:
        lines.append("fit: skipped (too few successful trials)")
    return "\n".join(lines) + "\n"


def render_importance_text(space: SearchSpace, weights: Sequence[float], probs: Sequence[float]) -> str:
    """Two-row table, dimensions in space order: weights above probabilities."""
    return _text([
        ["", *map(printable_name, space.names)],
        ["weight", *(f"{w:.2f}" for w in weights)],
        ["probability", *(f"{p:.2f}" for p in probs)],
    ], right=True)


def render_importance_csv(space: SearchSpace, weights: Sequence[float], probs: Sequence[float]) -> str:
    return _csv([
        ["row", *space.names],
        ["weight", *(repr(float(w)) for w in weights)],
        ["probability", *(repr(float(p)) for p in probs)],
    ])
