import csv
import io
import math

import numpy as np
import pytest

from wrsopt import reporting
from wrsopt.cli import main
from wrsopt.reporting import (
    FitResult,
    ReportError,
    compare,
    fit_to_dict,
    polyfit,
    render_report_text,
    render_table_csv,
    render_table_text,
    summarize,
    trend,
)
from wrsopt.triallog import RunHeader, TrialRecord

# the CSV columns of compare, as README lists them
CSV_COLUMNS = ("strategy", "best", "best_lastW", "mean", "mean_lastW", "sd", "sd_lastW")


def evaluate(fit_dict, x):
    """A fit as report --fit writes it, evaluated at raw positions x by its basis."""
    assert fit_dict["basis"] == "ascending powers of t, t = -1 + 2*(x - x0)/(x1 - x0)"
    x0, x1 = fit_dict["domain"]
    t = -1.0 + 2.0 * (np.asarray(x, dtype=float) - x0) / (x1 - x0)
    return np.polynomial.polynomial.polyval(t, fit_dict["coefficients"])


def make_header(strategy="rs", budget=3, seed=1):
    return RunHeader(
        strategy=strategy,
        budget=budget,
        init=0,
        seed=seed,
        objective="builtin:sphere",
        space={"dimensions": []},
        space_digest="d" * 64,
    )


def recs(scores, statuses=None):
    statuses = statuses or ["evaluated"] * len(scores)
    return [
        TrialRecord(iteration=i, values=(0.0,), score=s, phase="rs", status=st, wall_time=0.0)
        for i, (s, st) in enumerate(zip(scores, statuses), start=1)
    ]


class TestSummarize:
    def test_hand_computed_window_stats(self):
        report = summarize(make_header(), recs([0.5, 0.7, 0.6]), window=2)
        assert report.best == 0.7
        assert report.best_iteration == 2
        assert abs(report.mean - 0.6) < 1e-12
        assert report.best_window == 0.7
        assert abs(report.mean_window - 0.65) < 1e-12
        assert report.window == 2

    def test_population_sd(self):
        report = summarize(make_header(), recs([1.0, 2.0, 3.0, 4.0]), window=100)
        assert abs(report.sd - math.sqrt(1.25)) < 1e-12
        assert report.window == 4
        assert report.sd == report.sd_window

    def test_constant_scores_have_zero_sd(self):
        report = summarize(make_header(), recs([2.0] * 10), window=5)
        assert report.sd == 0.0 and report.sd_window == 0.0

    def test_failed_trials_excluded_but_counted(self):
        records = recs([1.0, float("-inf"), 3.0], statuses=["evaluated", "failed", "evaluated"])
        report = summarize(make_header(), records, window=2)
        assert report.n_failed == 1
        assert report.best == 3.0
        assert abs(report.mean - 2.0) < 1e-12
        # window covers the last 2 positions; the failed one drops out
        assert report.mean_window == 3.0

    def test_cached_hits_counted(self):
        records = recs([1.0, 1.0], statuses=["evaluated", "cached-hit"])
        report = summarize(make_header(budget=2), records, window=10)
        assert report.n_cached == 1

    def test_ties_report_first_best_iteration(self):
        report = summarize(make_header(), recs([5.0, 5.0, 1.0]), window=10)
        assert report.best_iteration == 1

    def test_empty_or_all_failed_rejected(self):
        with pytest.raises(ReportError):
            summarize(make_header(), [], window=10)
        with pytest.raises(ReportError):
            summarize(make_header(), recs([float("-inf")], statuses=["failed"]), window=10)

    def test_window_whose_trials_all_failed_has_no_statistics(self):
        r = summarize(make_header(budget=4), recs([1.0, 2.0, -math.inf, -math.inf], ["evaluated", "evaluated", "failed", "failed"]), window=2)
        assert (r.best, r.mean, r.n_failed) == (2.0, 1.5, 2)
        assert all(math.isnan(x) for x in (r.best_window, r.mean_window, r.sd_window))

    def test_fit_skipped_when_too_few_points(self):
        records = recs([1.0, 2.0, 3.0])
        assert trend(records, 5) is None
        assert "skipped" in render_report_text(summarize(make_header(), records, window=10), None)

    def test_fit_positions_use_iteration_indices(self):
        scores = [1.0, float("-inf"), 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        statuses = ["evaluated", "failed"] + ["evaluated"] * 6
        fit = trend(recs(scores, statuses), 1)
        # scores grow linearly in iteration, so the linear fit is exact even
        # with a hole at iteration 2
        assert fit is not None
        got = evaluate(fit_to_dict(fit), [1.0, 8.0])
        assert np.allclose(got, [1.0, 8.0], atol=1e-9)

    def test_best_values_are_those_of_the_trial_best_iteration_names(self):
        records = [
            TrialRecord(iteration=i, values=(v,), score=s, phase="rs", status="evaluated", wall_time=0.0)
            for i, (v, s) in enumerate([(0.1, 1.0), (0.2, 5.0), (0.3, 5.0)], start=1)
        ]
        report = summarize(make_header(), records, window=10)
        assert (report.best_iteration, report.best_values) == (2, (0.2,))

    def test_trials_counted_by_status(self):
        records = recs([1.0, 1.0, float("-inf"), float("-inf")], statuses=["evaluated", "cached-hit", "failed", "cached-hit"])
        report = summarize(make_header(budget=4), records, window=10)
        # a cached repeat of a failure counts as cached and as failed
        assert (report.n_evaluated, report.n_cached, report.n_failed) == (1, 2, 2)

    def test_scores_near_float_range_give_an_infinite_sd_without_a_warning(self):
        report = summarize(make_header(), recs([1.7e300, -1.7e300, 1e300]), window=2)
        assert report.sd == math.inf and report.sd_window == math.inf
        assert report.best == 1.7e300


class TestTrend:
    def test_one_successful_trial_has_no_trend_at_degree_0(self):
        records = recs([2.0, float("-inf")], statuses=["evaluated", "failed"])
        assert trend(records, 0) is None
        assert trend(recs([2.0, 3.0]), 0).coefficients == pytest.approx((2.5,))

    @pytest.mark.parametrize("degree", [0, 1, 5])
    @pytest.mark.parametrize("n_valid", range(8))
    def test_polyfit_is_called_only_with_what_it_needs(self, degree, n_valid, monkeypatch):
        # polyfit trusts its arguments: more points than degree, one distinct
        # position per score, so trend must hand it nothing else
        calls = []

        def checked(scores, degree, x):
            calls.append((list(scores), degree, list(x)))
            return polyfit(scores, degree=degree, x=x)

        monkeypatch.setattr(reporting, "polyfit", checked)
        # failed trials before and after the successful ones keep their iterations
        scores = [-math.inf] + [float(i % 3) for i in range(n_valid)] + [-math.inf] * 2
        fit = trend(recs(scores, ["failed"] + ["evaluated"] * n_valid + ["failed"] * 2), degree)
        if n_valid < 2 or n_valid <= degree:
            assert fit is None and calls == []
        else:
            [(scores, deg, x)] = calls
            assert deg == degree >= 0 and len(scores) == len(x) == n_valid > degree
            assert len(set(x)) == len(x) and fit is not None


class TestPolyfit:
    def test_degree_two_recovery(self):
        xs = np.arange(1, 31, dtype=float)
        t = -1.0 + 2.0 * (xs - 1.0) / 29.0
        y = 2.0 - 3.0 * t + 0.5 * t * t
        fit = polyfit(y.tolist(), degree=2)
        assert np.allclose(fit.coefficients, (2.0, -3.0, 0.5), atol=1e-8)
        assert np.max(np.abs(evaluate(fit_to_dict(fit), xs) - y)) < 1e-8

    def test_constant_series_gives_constant_polynomial(self):
        fit = polyfit([4.25] * 12, degree=5)
        assert abs(fit.coefficients[0] - 4.25) < 1e-9
        assert all(abs(c) < 1e-9 for c in fit.coefficients[1:])

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=40)
        fit = polyfit(y.tolist(), degree=5)
        xs = np.arange(1, 41, dtype=float)
        t = -1.0 + 2.0 * (xs - 1.0) / 39.0
        V = np.vander(t, 6, increasing=True)
        expected = np.linalg.solve(V.T @ V, V.T @ y)
        assert np.allclose(fit.coefficients, expected, rtol=1e-6, atol=1e-9)

    def test_fit_to_dict_round_trip_evaluation(self):
        # x**2 at positions 1..4 is a degree-2 polynomial, so the written fit reproduces it
        d = fit_to_dict(polyfit([1.0, 4.0, 9.0, 16.0], degree=2))
        assert (d["degree"], d["domain"]) == (2, [1.0, 4.0])
        xs = np.array([1.0, 2.5, 4.0])
        assert np.allclose(evaluate(d, xs), xs**2)


class TestCompare:
    def reports(self):
        out = []
        for strategy, seed, budget in [("pso", 1, 50), ("rs", 2, 50), ("wrs", 1, 50), ("rs", 1, 50)]:
            out.append(summarize(make_header(strategy=strategy, budget=budget, seed=seed), recs([1.0, 2.0]), window=10))
        return out

    def test_strategy_order_then_seed(self):
        rows = compare(self.reports())
        assert [(r.strategy, r.seed) for r in rows] == [("wrs", 1), ("rs", 1), ("rs", 2), ("pso", 1)]
        assert not render_table_text(rows).startswith("warning:")

    def test_budget_mismatch_flagged_and_rendered(self):
        reports = self.reports()
        reports.append(summarize(make_header(strategy="sobol", budget=99), recs([1.0]), window=10))
        text = render_table_text(compare(reports))
        assert text.splitlines()[0].startswith("warning:")
        assert "budget" in text.splitlines()[0]

    def test_unknown_strategy_sorts_last(self):
        known = summarize(make_header(strategy="pso"), recs([1.0]), window=5)
        odd = summarize(make_header(strategy="zzz-custom"), recs([1.0]), window=5)
        assert [r.strategy for r in compare([odd, known])] == ["pso", "zzz-custom"]


class TestRendering:
    def test_text_pairs_use_two_decimals(self):
        report = summarize(make_header(), recs([0.5, 0.7, 0.6]), window=2)
        text = render_table_text(compare([report]))
        lines = text.splitlines()
        assert lines[0].split() == ["strategy", "seed", "best", "mean", "sd"]
        assert "0.70(0.70)" in lines[1]
        assert "0.60(0.65)" in lines[1]

    def test_scores_near_float_range_use_six_significant_digits(self):
        report = summarize(make_header(), recs([1.7e300, -1.7e300, 1e300]), window=2)
        row = render_table_text((report,)).splitlines()[1]
        assert row.split() == ["rs", "1", "1.7e+300(1e+300)", "3.33333e+299(-3.5e+299)", "inf(inf)"]
        assert max(len(line) for line in render_report_text(report, None).splitlines()) < 120
        assert float(render_table_csv((report,)).splitlines()[1].split(",")[1]) == 1.7e300  # csv keeps repr
        # two decimals up to 15 integer digits
        report = summarize(make_header(), recs([999999999999999.9, -1e15]), window=1)
        row = render_table_text((report,)).splitlines()[1]
        assert row.split()[2:4] == ["999999999999999.88(-1e+15)", "-0.06(-1e+15)"]

    def test_csv_columns_and_full_precision(self):
        report = summarize(make_header(), recs([0.1, 0.2, 0.30000000000004]), window=2)
        out = render_table_csv(compare([report]))
        rows = list(csv.reader(io.StringIO(out)))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert rows[1][0] == "rs"
        assert float(rows[1][1]) == 0.30000000000004

    @pytest.mark.parametrize("strategy", ["x\ry", "x\ny"])
    def test_csv_quotes_a_strategy_that_needs_it(self, strategy):
        # the table's rows go through the importance table's writer, which quotes a bare CR too
        out = render_table_csv((summarize(make_header(strategy=strategy), recs([1.0]), window=1),))
        assert out.endswith("\n") and not out.endswith("\r\n")
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert [len(r) for r in rows] == [len(CSV_COLUMNS)] * 2 and rows[1][0] == strategy

    def test_report_text_mentions_best_iteration(self):
        report = summarize(make_header(), recs([1.0, 9.0, 2.0]), window=2)
        text = render_report_text(report, None)
        assert "best: 9 at iteration 2" in text
        assert "budget: 3" in text
        assert "failed: 0" in text

    def test_fit_line_present_when_fit_exists(self):
        records = recs([float(i) for i in range(1, 11)])
        text = render_report_text(summarize(make_header(budget=10), records, window=5), trend(records, 5))
        assert "fit: degree 5" in text

    @pytest.mark.parametrize("degree", [5, 17])
    def test_fit_coefficients_in_e_notation_keep_every_line_within_120(self, degree):
        coefficients = tuple((-1) ** k * 1.23456e300 for k in range(degree + 1))
        fit = FitResult(degree=degree, coefficients=coefficients, domain=(1.0, 30.0))
        text = render_report_text(summarize(make_header(budget=3), recs([1.0, 2.0, 3.0]), window=3), fit)
        lines = text.splitlines()
        first = next(i for i, line in enumerate(lines) if line.startswith("fit: "))
        assert lines[first] == f"fit: degree {degree} over iterations [1, 30], coefficients:"
        assert " ".join(lines[first + 1 :]).split() == [f"{c:.6g}" for c in coefficients]
        assert max(map(len, lines)) <= 120


class TestInvariance:
    def test_score_shift_moves_mean_not_sd(self):
        base = summarize(make_header(), recs([1.0, 2.0, 3.0]), window=3)
        shifted = summarize(make_header(), recs([11.0, 12.0, 13.0]), window=3)
        assert abs(shifted.mean - base.mean - 10.0) < 1e-12
        assert abs(shifted.sd - base.sd) < 1e-12

    def test_compare_is_input_order_independent(self):
        reports = TestCompare().reports()
        a = compare(reports)
        b = compare(list(reversed(reports)))
        assert a == b


SPACE_1D = "dimensions:\n  - {name: x, kind: real, low: 0.0, high: 1.0}\n"


def run_log(tmp_path, budget):
    space = tmp_path / "space.yaml"
    space.write_text(SPACE_1D)
    log = str(tmp_path / "rs.jsonl")
    assert main(["run", "--space", str(space), "--objective", "builtin:sphere", "--strategy", "rs", "--budget", str(budget), "--seed", "1", "--out", log]) == 0
    return log


class TestOnlyReportFits:
    def test_report_degree_0_on_one_trial_skips_the_fit(self, tmp_path, capsys):
        log = run_log(tmp_path, 1)
        fit_path = tmp_path / "fit.json"
        capsys.readouterr()
        assert main(["report", log, "--degree", "0", "--fit", str(fit_path)]) == 0
        captured = capsys.readouterr()
        assert "fit: skipped (too few successful trials)" in captured.out
        assert captured.err.endswith("warning: no fit produced; fit file not written\n")
        assert not fit_path.exists()

    def test_run_and_compare_make_no_fit(self, tmp_path, monkeypatch):
        class Fitted(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Fitted

        monkeypatch.setattr(reporting, "polyfit", refuse)
        log = run_log(tmp_path, 20)
        assert main(["compare", log, log]) == 0
        with pytest.raises(Fitted):
            main(["report", log])
