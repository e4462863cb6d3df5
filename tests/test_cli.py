import csv
import json
import math
import re
import shlex
import signal
import subprocess
import sys
import time

import pytest

from wrsopt.cli import main
from wrsopt.engine import RunConfig, execute_run
from wrsopt.objectives import _BUILTIN_NAMES, make_objective
from wrsopt.space import space_digest, space_from_dict
from wrsopt.triallog import RunHeader, TrialRecord, read_log, record_fingerprint, write_log

from _util import mixed_space, python_objective

SPACE_2D = """\
dimensions:
  - name: x0
    kind: real
    low: -5.12
    high: 5.12
  - name: x1
    kind: real
    low: -5.12
    high: 5.12
"""


INT4_SPACE = "dimensions:\n  - {name: n, kind: int, low: 0, high: 3}\n"
BIG_INT_SPACE = f"dimensions:\n  - {{name: n, kind: int, low: {2**60}, high: {2**60 + 100}}}\n"


@pytest.fixture
def space_file(tmp_path):
    p = tmp_path / "space.yaml"
    p.write_text(SPACE_2D)
    return str(p)


def run_cli(argv):
    return main(argv)


class TestRun:
    def test_rs_run_writes_valid_log(self, space_file, tmp_path, capsys):
        out = str(tmp_path / "rs.jsonl")
        code = run_cli([
            "run", "--space", space_file, "--objective", "builtin:rastrigin",
            "--strategy", "rs", "--budget", "30", "--seed", "5", "--out", out,
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "seed: 5" in stdout
        assert f"log: {out}" in stdout
        assert "trials: 30" in stdout
        assert re.search(r"best: -?[\d.]+(e[+-]?\d+)? at iteration \d+", stdout)
        header, records = read_log(out)
        assert header.strategy == "rs" and header.budget == 30 and len(records) == 30

    def test_wrs_run_records_profile(self, space_file, tmp_path, capsys):
        out = str(tmp_path / "wrs.jsonl")
        code = run_cli([
            "run", "--space", space_file, "--objective", "builtin:rastrigin",
            "--strategy", "wrs", "--budget", "40", "--init", "15", "--seed", "5", "--out", out,
        ])
        assert code == 0
        header, records = read_log(out)
        assert header.init == 15
        assert set(header.profile) == {"weights", "probs", "k_mins"}
        assert max(header.profile["probs"]) == 1.0
        assert [r.phase for r in records[:15]] == ["rs"] * 15

    def test_seed_generated_and_echoed_when_omitted(self, space_file, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run_cli([
            "run", "--space", space_file, "--objective", "builtin:sphere",
            "--strategy", "rs", "--budget", "3",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        m = re.search(r"^seed: (\d+)$", stdout, re.M)
        assert m, stdout
        seed = int(m.group(1))
        assert 0 <= seed < 2**32
        assert (tmp_path / f"rs-seed{seed}.jsonl").exists()

    def test_sampler_option_passthrough(self, space_file, tmp_path):
        out = str(tmp_path / "pso.jsonl")
        code = run_cli([
            "run", "--space", space_file, "--objective", "builtin:sphere",
            "--strategy", "pso", "--budget", "12", "--seed", "1", "--out", out,
            "--opt", "swarm=6", "--opt", "omega=0.5",
        ])
        assert code == 0
        header, _ = read_log(out)
        assert header.options["sampler"] == {"omega": 0.5, "swarm": 6.0}

    def test_prob_override_star(self, space_file, tmp_path):
        out = str(tmp_path / "wrs1.jsonl")
        code = run_cli([
            "run", "--space", space_file, "--objective", "builtin:sphere",
            "--strategy", "wrs", "--budget", "10", "--init", "4", "--seed", "2", "--out", out,
            "--set-prob", "*=1.0",
        ])
        assert code == 0
        header, _ = read_log(out)
        assert header.profile["probs"] == [1.0, 1.0]
        assert header.profile["weights"] is None

    def test_repeated_option_applies_and_records_its_last_value(self, space_file, tmp_path):
        logs = []
        for opts in (["--opt", "swarm=10", "--opt", "swarm=5"], ["--opt", "swarm=5"]):
            out = str(tmp_path / f"pso{len(opts)}.jsonl")
            assert run_cli([
                "run", "--space", space_file, "--objective", "builtin:sphere",
                "--strategy", "pso", "--budget", "25", "--seed", "2", "--out", out, *opts,
            ]) == 0
            logs.append(read_log(out))
        (twice, twice_records), (once, once_records) = logs
        assert twice.options == once.options == {"sampler": {"swarm": 5.0}}
        assert [record_fingerprint(r) for r in twice_records] == [record_fingerprint(r) for r in once_records]

    def test_repeated_star_applies_and_records_its_last_value(self, space_file, tmp_path):
        out = str(tmp_path / "wrs.jsonl")
        assert run_cli([
            "run", "--space", space_file, "--objective", "builtin:sphere",
            "--strategy", "wrs", "--budget", "10", "--init", "4", "--seed", "2", "--out", out,
            "--set-prob", "*=0.3", "--set-prob", "*=0.5", "--set-prob", "x0=1",
        ]) == 0
        header, _ = read_log(out)
        assert header.options == {"prob_overrides": {"*": 0.5, "x0": 1.0}}
        assert header.profile["probs"] == [1.0, 0.5]

    def test_override_names_are_taken_as_written(self, tmp_path, capsys):
        # a name may hold '=' or end in whitespace, U+2028 included
        space = tmp_path / "names.yaml"
        space.write_text('dimensions:\n  - {name: "a=b", kind: real, low: 0.0, high: 1.0}\n'
                         '  - {name: "c\\u2028", kind: real, low: 0.0, high: 1.0}\n'
                         '  - {name: "c", kind: real, low: 0.0, high: 1.0}\n')
        out = str(tmp_path / "wrs.jsonl")
        code = run_cli([
            "run", "--space", str(space), "--objective", "builtin:sphere",
            "--strategy", "wrs", "--budget", "10", "--init", "4", "--seed", "2", "--out", out,
            "--set-prob", "a=b=0.5", "--set-prob", "c\u2028=0.25", "--set-kmin", "c\u2028=2",
        ])
        assert code == 0, capsys.readouterr().err
        header, _ = read_log(out)
        assert header.options == {"prob_overrides": {"a=b": 0.5, "c\u2028": 0.25}, "kmin_overrides": {"c\u2028": 2}}
        assert header.profile["probs"][:2] == [0.5, 0.25]
        assert header.profile["k_mins"] == [4, 2, 4]

    def test_fallback_warning_on_stderr(self, space_file, tmp_path, capsys):
        out = str(tmp_path / "wrs0.jsonl")
        code = run_cli([
            "run", "--space", space_file, "--objective", "builtin:sphere",
            "--strategy", "wrs", "--budget", "6", "--init", "0", "--seed", "2", "--out", out,
        ])
        assert code == 0
        assert "uniform change probabilities" in capsys.readouterr().err


    def test_partial_prob_override_below_the_fitted_argmax_runs(self, tmp_path, capsys):
        space = tmp_path / "ab.yaml"
        space.write_text("dimensions:\n  - {name: a, kind: real, low: 0.0, high: 1.0}\n"
                         "  - {name: b, kind: real, low: 0.0, high: 1.0}\n")
        out = str(tmp_path / "wrs.jsonl")
        code = run_cli([
            "run", "--space", str(space), "--objective", "builtin:additive-anova?coeffs=5,1",
            "--strategy", "wrs", "--budget", "40", "--init", "30", "--seed", "0", "--out", out,
            "--set-prob", "a=0.5",
        ])
        assert code == 0, capsys.readouterr().err
        header, _ = read_log(out)
        assert header.profile["probs"] == [0.5, 1.0]

    def test_best_line_names_the_values_of_the_trial_it_names(self, tmp_path, capsys):
        # four corners tie at the best score 2; the incumbent is the last to reach it
        space = tmp_path / "ab.yaml"
        space.write_text("dimensions:\n  - {name: a, kind: int, low: -1, high: 1}\n"
                         "  - {name: b, kind: int, low: -1, high: 1}\n")
        out = str(tmp_path / "rs.jsonl")
        assert run_cli([
            "run", "--space", str(space), "--objective", "builtin:sphere?direction=maximize",
            "--strategy", "rs", "--budget", "20", "--seed", "0", "--out", out,
        ]) == 0
        _, records = read_log(out)
        ties = [r for r in records if r.score == 2.0]
        assert len({r.values for r in ties}) > 1
        assert f"best: 2 at iteration {ties[0].iteration} (a={ties[0].values[0]} b={ties[0].values[1]})" in (
            capsys.readouterr().out.splitlines()
        )

    def test_best_line_escapes_a_name_that_holds_a_newline_or_a_cr(self, tmp_path, capsys):
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"dimensions": [
            {"name": "a\nb", "kind": "int", "low": 1, "high": 1},
            {"name": "c\rd", "kind": "int", "low": 2, "high": 2},
            {"name": "é z", "kind": "int", "low": 3, "high": 3},
        ]}))
        out = str(tmp_path / "rs.jsonl")
        assert run_cli([
            "run", "--space", str(space), "--objective", "builtin:sphere",
            "--strategy", "rs", "--budget", "1", "--seed", "0", "--out", out,
        ]) == 0
        stdout = capsys.readouterr().out
        assert "\r" not in stdout
        assert "best: -14 at iteration 1 (a\\nb=1 c\\rd=2 é z=3)" in stdout.splitlines()

    def test_best_line_escapes_a_categorical_value_that_holds_a_newline(self, tmp_path, capsys):
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"dimensions": [
            {"name": "c", "kind": "cat", "values": ["x\ny"]},
            {"name": "d", "kind": "cat", "values": ["é z"]},
            {"name": "e", "kind": "cat", "values": [None]},
        ]}))
        out = str(tmp_path / "rs.jsonl")
        assert run_cli([
            "run", "--space", str(space), "--objective", "external:sh -c 'echo 1'",
            "--strategy", "rs", "--budget", "1", "--seed", "0", "--out", out,
        ]) == 0
        stdout = capsys.readouterr().out
        assert "best: -1 at iteration 1 (c=x\\ny d=é z e=None)" in stdout.splitlines()

    def test_best_line_names_the_first_trial_to_reach_the_best_and_result_best_the_last(self, tmp_path, capsys):
        # on ties the best: line names the first trial reaching the best score,
        # as report does; execute_run's incumbent is the last, as ties replace it
        payload = {"dimensions": [{"name": "n", "kind": "int", "low": -2, "high": 2}]}
        space = tmp_path / "space.json"
        space.write_text(json.dumps(payload))
        assert run_cli([
            "run", "--space", str(space), "--objective", "builtin:sphere?direction=maximize",
            "--strategy", "rs", "--budget", "8", "--seed", "1", "--out", str(tmp_path / "rs.jsonl"),
        ]) == 0
        assert "best: 4 at iteration 2 (n=-2)" in capsys.readouterr().out.splitlines()
        parsed = space_from_dict(payload)
        result = execute_run(parsed, make_objective("builtin:sphere?direction=maximize", parsed), RunConfig(strategy="rs", budget=8, seed=1))
        assert (result.best.candidate, result.best.score, result.best.iteration) == ((2,), 4.0, 8)


class TestRunErrors:
    def test_missing_space_file_exits_2(self, tmp_path, capsys):
        code = run_cli([
            "run", "--space", str(tmp_path / "nope.yaml"), "--objective", "builtin:sphere",
            "--strategy", "rs", "--budget", "3",
        ])
        assert code == 2
        assert "nope.yaml" in capsys.readouterr().err

    def test_unknown_strategy_is_usage_error(self, space_file):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--space", space_file, "--objective", "builtin:sphere", "--strategy", "sa", "--budget", "3"])
        assert exc.value.code == 2

    def test_bad_objective_exits_2(self, space_file, capsys):
        code = run_cli(["run", "--space", space_file, "--objective", "builtin:nope", "--strategy", "rs", "--budget", "3"])
        assert code == 2

    def test_bad_probability_exits_2(self, space_file, capsys):
        code = run_cli([
            "run", "--space", space_file, "--objective", "builtin:sphere",
            "--strategy", "wrs", "--budget", "10", "--init", "2", "--set-prob", "x0=1.5",
        ])
        assert code == 2
        assert "(0, 1]" in capsys.readouterr().err

    def test_malformed_assignment_exits_2(self, space_file, capsys):
        code = run_cli([
            "run", "--space", space_file, "--objective", "builtin:sphere",
            "--strategy", "wrs", "--budget", "10", "--init", "2", "--set-prob", "x0:0.5",
        ])
        assert code == 2
        assert "NAME=VALUE" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy, flag, text, message", [
        ("wrs", "--set-prob", "x0 = 0.5", "error: no dimension named 'x0 '"),
        ("wrs", "--set-kmin", " x0=2", "error: no dimension named ' x0'"),
        ("pso", "--opt", "swarm = 20", "error: option 'swarm ' does not apply to strategy 'pso'"),
    ])
    def test_whitespace_around_a_name_is_part_of_it(self, space_file, capsys, strategy, flag, text, message):
        init = ["--init", "2"] if strategy == "wrs" else []
        code = run_cli([
            "run", "--space", space_file, "--objective", "builtin:sphere",
            "--strategy", strategy, "--budget", "10", *init, flag, text,
        ])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [message]

    def test_impossible_full_override_exits_2_before_any_trial(self, space_file, capsys):
        code = run_cli([
            "run", "--space", space_file, "--objective", "builtin:sphere",
            "--strategy", "wrs", "--budget", "20", "--init", "8", "--seed", "1", "--set-prob", "*=0.5",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # not even the seed line: no trial ran
        assert captured.err.splitlines() == [
            "error: override produces an invalid profile: at least one change probability must be exactly 1"
        ]

    @pytest.mark.parametrize("objective, message", [
        ("builtin:additive-anova?coeffs=1,2&centre=0.5&direction=maximize",
         "error: builtin 'additive-anova' takes only coeffs and direction, got ['centre']"),
        ("external:sh e.sh?run=1", "error: external 'sh e.sh' takes only timeout and direction, got ['run']"),
        # only an external command reads a timeout
        ("builtin:sphere?timeout=3", "error: builtin 'sphere' takes only direction, got ['timeout']"),
    ])
    def test_a_key_the_objective_does_not_read_exits_2(self, space_file, tmp_path, capsys, objective, message):
        out = tmp_path / "run.jsonl"
        code = run_cli([
            "run", "--space", space_file, "--objective", objective,
            "--strategy", "rs", "--budget", "3", "--seed", "0", "--out", str(out),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err.splitlines()) == ("", [message])
        assert not out.exists()

    # README "Objective specs": the keys each objective reads, and the message that refuses any other
    KEYS_TABLE = [
        ("builtin", "sphere", "direction=maximize", "direction"),
        ("builtin", "rastrigin", "direction=minimize", "direction"),
        ("builtin", "rosenbrock", "direction=maximize", "direction"),
        ("builtin", "branin", "direction=maximize", "direction"),
        ("builtin", "styblinski-tang", "direction=maximize", "direction"),
        ("builtin", "additive-anova", "coeffs=3,1&direction=maximize", "coeffs and direction"),
        ("external", f"{shlex.quote(sys.executable)} -c 'print(0.5)'", "timeout=30&direction=maximize", "timeout and direction"),
    ]

    def test_the_keys_table_names_every_builtin(self):
        assert sorted(target for kind, target, _, _ in self.KEYS_TABLE if kind == "builtin") == sorted(_BUILTIN_NAMES)

    @pytest.mark.parametrize("kind, target, keys, reads", KEYS_TABLE, ids=[row[1] if row[0] == "builtin" else row[0] for row in KEYS_TABLE])
    def test_each_objective_takes_exactly_its_keys(self, space_file, tmp_path, capsys, kind, target, keys, reads):
        out = tmp_path / "run.jsonl"
        argv = ["run", "--space", space_file, "--strategy", "rs", "--budget", "3", "--seed", "0", "--out", str(out)]
        assert run_cli([*argv, "--objective", f"{kind}:{target}?{keys}"]) == 0
        assert read_log(str(out))[0].objective == f"{kind}:{target}?{keys}"
        out.unlink()
        capsys.readouterr()
        assert run_cli([*argv, "--objective", f"{kind}:{target}?{keys}&shift=1"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err.splitlines()) == ("", [f"error: {kind} {target!r} takes only {reads}, got ['shift']"])
        assert not out.exists()

    def test_override_on_baseline_exits_2(self, space_file, capsys):
        code = run_cli([
            "run", "--space", space_file, "--objective", "builtin:sphere",
            "--strategy", "rs", "--budget", "10", "--set-prob", "*=0.5",
        ])
        assert code == 2

    def test_tiny_swarm_exits_2(self, space_file, capsys):
        code = run_cli([
            "run", "--space", space_file, "--objective", "builtin:sphere",
            "--strategy", "pso", "--budget", "10", "--opt", "swarm=1",
        ])
        assert code == 2

    def test_sobol_beyond_max_dim_exits_2(self, tmp_path, capsys):
        space = tmp_path / "wide.yaml"
        space.write_text("dimensions:\n" + "".join(
            f"  - {{name: x{i}, kind: real, low: 0.0, high: 1.0}}\n" for i in range(22)
        ))
        code = run_cli([
            "run", "--space", str(space), "--objective", "builtin:sphere",
            "--strategy", "sobol", "--budget", "5", "--seed", "1", "--out", str(tmp_path / "s.jsonl"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sobol supports at most 21 dimensions") and err.count("\n") == 1

    def test_sobol_budget_beyond_its_points_exits_2_before_the_seed(self, space_file, tmp_path, capsys, monkeypatch):
        def no_run(*args):
            raise AssertionError("a run of 2**30 + 1 trials started")

        monkeypatch.setattr("wrsopt.cli.execute_run", no_run)
        code = run_cli([
            "run", "--space", space_file, "--objective", "builtin:sphere",
            "--strategy", "sobol", "--budget", "1073741825", "--out", str(tmp_path / "s.jsonl"),
        ])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: sobol yields at most 1073741824 points; the budget is 1073741825\n"
        assert not (tmp_path / "s.jsonl").exists()

    def test_all_failed_run_writes_no_log(self, space_file, tmp_path, capsys):
        out = str(tmp_path / "dead.jsonl")
        code = run_cli([
            "run", "--space", space_file, "--objective", "external:false",
            "--strategy", "rs", "--budget", "3", "--seed", "1", "--out", out,
        ])
        assert code == 1
        assert "no log written" in capsys.readouterr().err
        assert not (tmp_path / "dead.jsonl").exists()

    def test_cached_repeats_of_failures_still_make_an_all_failed_run(self, tmp_path, capsys):
        # 12 trials on 4 candidates: at least 8 are cached repeats of a failure
        space = tmp_path / "int4.yaml"
        space.write_text(INT4_SPACE)
        out = tmp_path / "dead.jsonl"
        code = run_cli([
            "run", "--space", str(space), "--objective", "external:false",
            "--strategy", "rs", "--budget", "12", "--seed", "1", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["error: all 12 trials of the rs phase failed; no log written"]
        assert not out.exists()

    def test_out_naming_a_directory_exits_1_and_leaves_no_tmp(self, space_file, tmp_path, capsys):
        out = tmp_path / "outdir"
        out.mkdir()
        code = run_cli([
            "run", "--space", space_file, "--objective", "builtin:sphere",
            "--strategy", "rs", "--budget", "3", "--seed", "1", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write log {out}: ")
        assert list(tmp_path.glob("*.tmp")) == []


class TestReport:
    @pytest.fixture
    def rs_log(self, space_file, tmp_path):
        out = str(tmp_path / "rs.jsonl")
        assert run_cli([
            "run", "--space", space_file, "--objective", "builtin:rastrigin",
            "--strategy", "rs", "--budget", "30", "--seed", "5", "--out", out,
        ]) == 0
        return out

    def test_report_text(self, rs_log, capsys):
        capsys.readouterr()
        assert run_cli(["report", rs_log, "--window", "10"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == ["strategy", "seed", "best", "mean", "sd"]
        assert "budget: 30  window: 10" in out
        assert "fit: degree 5" in out

    def test_window_clamp_warns(self, rs_log, capsys):
        capsys.readouterr()
        assert run_cli(["report", rs_log]) == 0
        captured = capsys.readouterr()
        assert "clamped" in captured.err
        assert "window: 30" in captured.out

    def test_csv_and_fit_outputs(self, rs_log, tmp_path, capsys):
        csv_path = tmp_path / "row.csv"
        fit_path = tmp_path / "fit.json"
        assert run_cli(["report", rs_log, "--window", "10", "--csv", str(csv_path), "--fit", str(fit_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "strategy,best,best_lastW,mean,mean_lastW,sd,sd_lastW"
        assert lines[1].startswith("rs,")
        fit = json.loads(fit_path.read_text())
        assert fit["degree"] == 5 and len(fit["coefficients"]) == 6

    def test_fit_file_not_written_without_a_fit(self, rs_log, tmp_path, capsys):
        fit_path = tmp_path / "fit.json"
        capsys.readouterr()
        assert run_cli(["report", rs_log, "--window", "10", "--degree", "30", "--fit", str(fit_path)]) == 0
        assert capsys.readouterr().err == "warning: no fit produced; fit file not written\n"
        assert not fit_path.exists()

    def test_run_and_report_count_failures_alike(self, tmp_path, capsys):
        # n < 2 fails, so the cached repeats of those candidates are failures too
        script = tmp_path / "half.py"
        script.write_text("import sys\nn = int(sys.argv[1].split('=')[1])\nsys.exit(3) if n < 2 else print(n)\n")
        space = tmp_path / "int4.yaml"
        space.write_text(INT4_SPACE)
        log = str(tmp_path / "half.jsonl")
        assert run_cli([
            "run", "--space", str(space), "--objective", f"external:{sys.executable} {script}",
            "--strategy", "rs", "--budget", "12", "--seed", "1", "--out", log,
        ]) == 0
        ran = re.search(r"^trials: 12 \(evaluated \d+, cached \d+, failed (\d+)\)$", capsys.readouterr().out, re.M)
        failed = [r for r in read_log(log)[1] if r.score == -math.inf]
        assert any(r.status == "cached-hit" for r in failed)
        assert run_cli(["report", log]) == 0
        reported = re.search(r"^failed: (\d+)  cached: \d+$", capsys.readouterr().out, re.M)
        assert int(ran.group(1)) == int(reported.group(1)) == len(failed)

    def test_a_stray_value_on_a_name_that_holds_a_newline_is_one_error_line(self, tmp_path, capsys):
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"dimensions": [{"name": "a\nb", "kind": "int", "low": 0, "high": 5}]}))
        log = tmp_path / "rs.jsonl"
        assert run_cli([
            "run", "--space", str(space), "--objective", "builtin:sphere",
            "--strategy", "rs", "--budget", "3", "--seed", "1", "--out", str(log),
        ]) == 0
        lines = log.read_text(encoding="utf-8").splitlines()
        trial = json.loads(lines[2])
        trial["values"] = [7]
        lines[2] = json.dumps(trial)
        log.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run_cli(["report", str(log)]) == 1
        assert capsys.readouterr().err == f"error: {log}: trial 2: a\\nb=7 is not a value of the space\n"

    def test_corrupt_log_exits_1(self, tmp_path, capsys):
        p = tmp_path / "bad.jsonl"
        p.write_text("not json\n")
        assert run_cli(["report", str(p)]) == 1

    def test_missing_log_exits_1(self, tmp_path):
        assert run_cli(["report", str(tmp_path / "ghost.jsonl")]) == 1


class TestCompare:
    def test_table_across_strategies(self, space_file, tmp_path, capsys):
        logs = []
        for strategy in ("rs", "sobol", "wrs"):
            out = str(tmp_path / f"{strategy}.jsonl")
            argv = [
                "run", "--space", space_file, "--objective", "builtin:rastrigin",
                "--strategy", strategy, "--budget", "20", "--seed", "3", "--out", out,
            ]
            if strategy == "wrs":
                argv += ["--init", "8"]
            assert run_cli(argv) == 0
            logs.append(out)
        capsys.readouterr()
        assert run_cli(["compare", *logs, "--window", "10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [ln.split()[0] for ln in lines] == ["strategy", "wrs", "rs", "sobol"]

    def test_budget_mismatch_banner(self, space_file, tmp_path, capsys):
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        for out, budget in ((a, "10"), (b, "12")):
            assert run_cli([
                "run", "--space", space_file, "--objective", "builtin:sphere",
                "--strategy", "rs", "--budget", budget, "--seed", "1", "--out", out,
            ]) == 0
        capsys.readouterr()
        assert run_cli(["compare", a, b, "--window", "5"]) == 0
        assert capsys.readouterr().out.startswith("warning:")

    def test_window_clamp_warns_once_for_each_log_it_clamps_and_names_it(self, space_file, tmp_path, capsys):
        # as report warns: a window past a log's length is clamped to it
        budgets = (5, 60, 3)
        logs = [str(tmp_path / f"rs{budget}.jsonl") for budget in budgets]
        for out, budget in zip(logs, budgets):
            assert run_cli([
                "run", "--space", space_file, "--objective", "builtin:sphere",
                "--strategy", "rs", "--budget", str(budget), "--seed", "1", "--out", out,
            ]) == 0
        capsys.readouterr()
        assert run_cli(["compare", *logs, "--window", "50"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: {logs[0]}: window 50 exceeds 5 trials; clamped",
            f"warning: {logs[2]}: window 50 exceeds 3 trials; clamped",
        ]

    def test_one_bad_log_fails_whole_compare(self, space_file, tmp_path, capsys):
        good = str(tmp_path / "rs.jsonl")
        assert run_cli([
            "run", "--space", space_file, "--objective", "builtin:sphere",
            "--strategy", "rs", "--budget", "5", "--seed", "1", "--out", good,
        ]) == 0
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{}\n")
        assert run_cli(["compare", good, str(bad)]) == 1

    def test_csv_output(self, space_file, tmp_path):
        log = str(tmp_path / "rs.jsonl")
        assert run_cli([
            "run", "--space", space_file, "--objective", "builtin:sphere",
            "--strategy", "rs", "--budget", "5", "--seed", "1", "--out", log,
        ]) == 0
        csv_path = tmp_path / "table.csv"
        assert run_cli(["compare", log, "--window", "3", "--csv", str(csv_path)]) == 0
        assert csv_path.read_text().startswith("strategy,best,")


FLAT_SPACE = {"dimensions": [{"name": "x", "kind": "real", "low": 0.0, "high": 1.0}]}


class TestImportance:
    def test_importance_from_rs_log(self, space_file, tmp_path, capsys):
        log = str(tmp_path / "rs.jsonl")
        assert run_cli([
            "run", "--space", space_file, "--objective", "builtin:rastrigin",
            "--strategy", "rs", "--budget", "40", "--seed", "7", "--out", log,
        ]) == 0
        capsys.readouterr()
        assert run_cli(["importance", log]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[1].startswith("weight")
        assert lines[2].startswith("probability")
        assert "1.00" in lines[2]
        assert "x0" in lines[0] and "x1" in lines[0]

    def test_importance_deterministic_via_header_seed(self, space_file, tmp_path, capsys):
        log = str(tmp_path / "rs.jsonl")
        assert run_cli([
            "run", "--space", space_file, "--objective", "builtin:rastrigin",
            "--strategy", "rs", "--budget", "40", "--seed", "7", "--out", log,
        ]) == 0
        capsys.readouterr()
        assert run_cli(["importance", log]) == 0
        first = capsys.readouterr().out
        assert run_cli(["importance", log]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_importance_csv(self, space_file, tmp_path, capsys):
        log = str(tmp_path / "rs.jsonl")
        assert run_cli([
            "run", "--space", space_file, "--objective", "builtin:sphere",
            "--strategy", "rs", "--budget", "30", "--seed", "2", "--out", log,
        ]) == 0
        csv_path = tmp_path / "imp.csv"
        assert run_cli(["importance", log, "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "row,x0,x1"
        assert lines[1].startswith("weight,") and lines[2].startswith("probability,")

    def test_importance_csv_quotes_names_that_need_it(self, tmp_path, capsys):
        names = ["a,b", 'q"x', "line\nbreak"]
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"dimensions": [{"name": n, "kind": "real", "low": 0.0, "high": 1.0} for n in names]}))
        log = str(tmp_path / "rs.jsonl")
        assert run_cli([
            "run", "--space", str(space), "--objective", "builtin:sphere",
            "--strategy", "rs", "--budget", "30", "--seed", "2", "--out", log,
        ]) == 0
        csv_path = tmp_path / "imp.csv"
        assert run_cli(["importance", log, "--csv", str(csv_path)]) == 0
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [4, 4, 4]
        assert [row[0] for row in rows] == ["row", "weight", "probability"]
        assert rows[0][1:] == names

    def test_importance_csv_quotes_a_name_that_holds_a_bare_cr(self, tmp_path):
        names = ["a\rb", "z"]
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"dimensions": [{"name": n, "kind": "real", "low": 0.0, "high": 1.0} for n in names]}))
        log = str(tmp_path / "rs.jsonl")
        assert run_cli([
            "run", "--space", str(space), "--objective", "builtin:sphere",
            "--strategy", "rs", "--budget", "30", "--seed", "2", "--out", log,
        ]) == 0
        csv_path = tmp_path / "imp.csv"
        assert run_cli(["importance", log, "--csv", str(csv_path)]) == 0
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [3, 3, 3]
        assert rows[0] == ["row", "a\rb", "z"]

    def test_importance_text_escapes_a_name_that_holds_a_newline(self, tmp_path, capsys):
        names = ["a\nb", "z"]
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"dimensions": [{"name": n, "kind": "real", "low": 0.0, "high": 1.0} for n in names]}))
        log = str(tmp_path / "rs.jsonl")
        assert run_cli([
            "run", "--space", str(space), "--objective", "builtin:sphere",
            "--strategy", "rs", "--budget", "30", "--seed", "2", "--out", log,
        ]) == 0
        capsys.readouterr()
        assert run_cli(["importance", log]) == 0
        lines = capsys.readouterr().out.split("\n")
        assert len(lines) == 4 and lines[-1] == ""  # three lines, each ended by a newline
        assert lines[0].split() == ["a\\nb", "z"]

    @pytest.mark.parametrize("seed,n0", [(7, 40), (3, 25)])
    def test_rs_log_reproduces_the_wrs_profile(self, seed, n0, tmp_path):
        # README: importance on an rs log of N0 trials gives the profile of a
        # wrs run with the same seed and --init N0
        def score(values):
            lr, layers, act = values
            return -((lr - 0.3) ** 2) - 0.05 * layers + (0.2 if act == "tanh" else 0.0)

        space = mixed_space()
        rs = execute_run(space, python_objective(score), RunConfig(strategy="rs", budget=n0, seed=seed))
        wrs = execute_run(space, python_objective(score), RunConfig(strategy="wrs", budget=n0 + 20, init=n0, seed=seed))
        for name, run in (("rs", rs), ("wrs", wrs)):
            write_log(tmp_path / f"{name}.jsonl", run.header, run.records)
        csv_path = tmp_path / "imp.csv"
        assert run_cli(["importance", str(tmp_path / "rs.jsonl"), "--csv", str(csv_path)]) == 0
        profile = read_log(tmp_path / "wrs.jsonl")[0].profile
        _, weights, probs = csv_path.read_text().splitlines()
        assert weights == "weight," + ",".join(map(repr, profile["weights"]))
        assert probs == "probability," + ",".join(map(repr, profile["probs"]))

    def test_header_space_not_matching_its_digest_exits_1(self, space_file, tmp_path, capsys):
        log = str(tmp_path / "rs.jsonl")
        assert run_cli([
            "run", "--space", space_file, "--objective", "builtin:rastrigin",
            "--strategy", "rs", "--budget", "40", "--seed", "7", "--out", log,
        ]) == 0
        header, records = read_log(log)
        header.space["dimensions"][0]["high"] = 50.0
        write_log(log, header, records)
        capsys.readouterr()
        assert run_cli(["importance", log]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {log}: header space does not match its space_digest"]

    def test_constant_scores_exit_1(self, tmp_path, capsys):
        log = str(tmp_path / "flat.jsonl")
        header = RunHeader(
            strategy="rs", budget=3, init=0, seed=1, objective="external:flat",
            space=FLAT_SPACE,
            space_digest=space_digest(space_from_dict(FLAT_SPACE)),
        )
        records = [
            TrialRecord(iteration=i, values=(0.1 * i,), score=5.0, phase="rs", status="evaluated", wall_time=0.0)
            for i in (1, 2, 3)
        ]
        write_log(log, header, records)
        assert run_cli(["importance", log]) == 1
        assert "no variance" in capsys.readouterr().err

    def test_single_candidate_exit_1(self, tmp_path, capsys):
        log = str(tmp_path / "one.jsonl")
        header = RunHeader(
            strategy="rs", budget=2, init=0, seed=1, objective="external:flat",
            space=FLAT_SPACE,
            space_digest=space_digest(space_from_dict(FLAT_SPACE)),
        )
        records = [
            TrialRecord(iteration=1, values=(0.5,), score=1.0, phase="rs", status="evaluated", wall_time=0.0),
            TrialRecord(iteration=2, values=(0.5,), score=1.0, phase="rs", status="cached-hit", wall_time=0.0),
        ]
        write_log(log, header, records)
        assert run_cli(["importance", log]) == 1

    def test_value_outside_the_space_exits_1_with_one_line(self, tmp_path, capsys):
        # the header is intact; only the trial lines carry "zz" instead of "a"
        space = {"dimensions": [
            {"name": "c", "kind": "cat", "values": ["a", "b"]},
            {"name": "x", "kind": "real", "low": 0.0, "high": 1.0},
        ]}
        log = str(tmp_path / "cat.jsonl")
        header = RunHeader(
            strategy="rs", budget=4, init=0, seed=1, objective="external:cat",
            space=space, space_digest=space_digest(space_from_dict(space)),
        )
        records = [
            TrialRecord(iteration=i, values=(c, x), score=float(i), phase="rs", status="evaluated", wall_time=0.0)
            for i, (c, x) in enumerate([("zz", 0.1), ("b", 0.4), ("zz", 0.6), ("b", 0.9)], start=1)
        ]
        write_log(log, header, records)
        assert run_cli(["importance", log]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {log}: trial 1: c='zz' is not a value of the space"]


MIXED_SPACE = {"dimensions": [
    {"name": "n", "kind": "int", "low": 0, "high": 5},
    {"name": "x", "kind": "real", "low": 0.0, "high": 1.0},
    {"name": "c", "kind": "cat", "values": ["a", "b"]},
]}
BIG_INT_MIXED_SPACE = {"dimensions": [{**MIXED_SPACE["dimensions"][0], "low": 2**60, "high": 2**60 + 100}, *MIXED_SPACE["dimensions"][1:]]}
MIXED_TRIALS = [  # values, score, status, error
    ([0, 0.1, "a"], 1.0, "evaluated", None),
    ([3, 0.5, "b"], 2.0, "evaluated", None),
    ([5, 0.9, "a"], -math.inf, "failed", "exit 3"),
    ([1, 0.3, "b"], 0.5, "evaluated", None),
    ([5, 0.9, "a"], -math.inf, "cached-hit", "exit 3"),
    ([2, 0.7, "a"], 3.0, "evaluated", None),
    ([3, 0.5, "b"], 2.0, "cached-hit", None),
    ([4, 0.2, "b"], 1.5, "evaluated", None),
]


# each case: the (path, value) edits to make, line 0 being the header and
# line k trial k, or a function that rewrites the log's text; and the
# message every command must give
CORRUPTIONS = {
    "edited-header-space": ([((0, "space", "dimensions", 1, "high"), 2.0)], "LOG: header space does not match its space_digest"),
    "int-out-of-range": ([((4, "values", 0), 9)], "LOG: trial 4: n=9 is not a value of the space"),
    "true-on-int-axis": ([((4, "values", 0), True)], "LOG: trial 4: n=True is not a value of the space"),
    "nan-mid-real-column": ([((4, "values", 1), math.nan)], "LOG: trial 4: x=nan is not a value of the space"),
    "real-out-of-range": ([((4, "values", 1), 2.0)], "LOG: trial 4: x=2.0 is not a value of the space"),
    "too-few-values": ([((4, "values"), [1, 0.3])], "LOG: trial 4: 2 values, but the space has 3 dimensions"),
    "failed-with-finite-score": ([((3, "score"), 0.25)], "LOG: trial 3: status 'failed', score 0.25 and error 'exit 3' do not agree"),
    "evaluated-with-minus-infinity": (
        [((4, "score"), -math.inf), ((4, "error"), "exit 3")],
        "LOG: trial 4: status 'evaluated', score -inf and error 'exit 3' do not agree",
    ),
    "minus-infinity-without-error": ([((5, "error"), None)], "LOG: trial 5: status 'cached-hit', score -inf and error None do not agree"),
    "plus-infinity-score": ([((6, "score"), math.inf)], "LOG: trial 6: status 'evaluated', score inf and error None do not agree"),
    "values-a-string": ([((1, "values"), "ab")], "LOG: trial 1: values must be a list, got 'ab'"),
    "fractional-iteration": ([((1, "iteration"), 1.7)], "LOG: trial 1: iteration must be an int, got 1.7"),
    "score-a-string": ([((1, "score"), "1.5")], "LOG: trial 1: score must be a number, got '1.5'"),
    "phase-a-number": ([((1, "phase"), 7)], "LOG: trial 1: phase must be a string, got 7"),
    "wall-time-a-bool": ([((1, "wall_time"), True)], "LOG: trial 1: wall_time must be a number, got True"),
    "trial-a-json-array": ([((1,), [1, 2])], "LOG: trial 1: not an object"),
    "trial-missing-score": (lambda text: text.replace('"score": 1.0, ', "", 1), "LOG: trial 1: missing 'score'"),
    "header-missing-budget": (lambda text: text.replace('"budget": 8, ', "", 1), "LOG: bad header record: missing 'budget'"),
    # run never writes such a log; without the check report warned of a clamped window first
    "budget-0-and-no-trials": (
        lambda text: text[: text.index("\n") + 1].replace('"budget": 8, ', '"budget": 0, ', 1),
        "LOG: header declares budget 0; a run holds at least 1 trial",
    ),
    # beyond float range, so the column check cannot compare it as a float
    "real-value-of-401-digits": ([((4, "values", 1), 10**400)], f"LOG: trial 4: x={10**400} is not a value of the space"),
    # more digits than int() converts, which json.loads refuses with a ValueError
    "iteration-of-5001-digits": (
        lambda text: text.replace('{"iteration": 2,', '{"iteration": 2' + "0" * 5000 + ",", 1),
        "LOG: invalid JSON on line 3",
    ),
    "truncated-last-line": (lambda text: text[:-12], "LOG: invalid JSON on line 9"),
    # numpy refuses a negative seed, which importance would seed its forest with
    "negative-header-seed": ([((0, "seed"), -1)], "LOG: header declares seed -1; a run's seed is at least 0"),
    # run never writes an init outside 0 <= init < budget, nor one on a strategy but wrs
    "wrs-init-equal-to-budget": (
        [((0, "strategy"), "wrs"), ((0, "init"), 8)],
        "LOG: header declares init 8 at budget 8; a run needs 0 <= init < budget",
    ),
    "negative-header-init": ([((0, "init"), -3)], "LOG: header declares init -3 at budget 8; a run needs 0 <= init < budget"),
    "init-equal-to-budget-on-an-rs-header": ([((0, "init"), 8)], "LOG: header declares init 8 at budget 8; a run needs 0 <= init < budget"),
    "init-on-an-rs-header": ([((0, "init"), 2)], "LOG: header declares init 2 for strategy rs; only wrs takes an init"),
    # math.isfinite cannot convert it, so it used to end in an OverflowError traceback
    "score-of-401-digits": ([((2, "score"), 10**400)], "LOG: trial 2: score is an integer beyond float range"),
    "negative-score-of-401-digits": ([((2, "score"), -(10**400))], "LOG: trial 2: score is an integer beyond float range"),
    # a strategy run never writes, whose CR would otherwise reach the table and the CSV
    "header-strategy-with-a-cr": (
        [((0, "strategy"), "x\ry")],
        "LOG: header declares strategy 'x\\ry'; a run's strategy is one of wrs, rs, sobol, nelder-mead, pso",
    ),
    # header options a run would refuse: read_log applies the checks RunConfig.validate makes
    "pso-header-swarm-of-1": (
        [((0, "strategy"), "pso"), ((0, "options"), {"sampler": {"swarm": 1}})],
        "LOG: header declares option 'swarm' must lie in [2, inf), got 1",
    ),
    "nelder-mead-option-in-a-pso-header": (
        [((0, "strategy"), "pso"), ((0, "options"), {"sampler": {"alpha": 1.0}})],
        "LOG: header declares option 'alpha' does not apply to strategy 'pso'",
    ),
    "prob-override-of-a-dimension-the-space-lacks": (
        [((0, "strategy"), "wrs"), ((0, "options"), {"prob_overrides": {"nope": 0.5}})],
        "LOG: header declares no dimension named 'nope'",
    ),
    "string-override-value": (
        [((0, "strategy"), "wrs"), ((0, "options"), {"prob_overrides": {"x": "a"}})],
        "LOG: header declares probability override for 'x' must lie in (0, 1], got 'a'",
    ),
    "overrides-in-an-rs-header": (
        [((0, "options"), {"prob_overrides": {"x": 0.5}})],
        "LOG: header declares overrides for strategy rs; only wrs takes overrides",
    ),
    # a header profile a run never writes: report, compare and importance used to read it
    "wrs-profile-probs-a-string": (
        [((0, "strategy"), "wrs"), ((0, "profile"), {"probs": "x"})],
        "LOG: header profile fields ['probs']; a profile holds exactly weights, probs and k_mins",
    ),
    "wrs-profile-kmins-too-short": (
        [((0, "strategy"), "wrs"), ((0, "profile"), {"weights": None, "probs": [1.0, 0.5, 0.5], "k_mins": [2, 2]})],
        "LOG: header profile k_mins must be 3 ints of at least 0",
    ),
    "profile-in-an-rs-header": (
        [((0, "profile"), {"weights": None, "probs": [1.0, 1.0, 1.0], "k_mins": [0, 0, 0]})],
        "LOG: header profile for strategy rs; only wrs writes a profile",
    ),
    # a header a run never writes: nelder-mead and pso move in floats, which skip whole numbers past 2**53
    "nelder-mead-header-on-an-int-axis-past-2**53": (
        [
            ((0, "strategy"), "nelder-mead"),
            ((0, "space"), BIG_INT_MIXED_SPACE),
            ((0, "space_digest"), space_digest(space_from_dict(BIG_INT_MIXED_SPACE))),
        ],
        "LOG: header declares int dimension 'n' has a bound of magnitude above 2**53 for strategy nelder-mead; "
        "nelder-mead and pso move in floats, which skip whole numbers there",
    ),
    "unknown-options-group": (
        [((0, "options"), {"bogus": {}})],
        "LOG: header declares options group 'bogus'; a run's options are objects named sampler, prob_overrides, kmin_overrides",
    ),
    # a run whose every trial fails writes no log, so no reader takes one
    "every-trial-failed": (
        [((k, key), value) for k in range(1, 9) for key, value in (("score", -math.inf), ("status", "failed"), ("error", "exit 3"))],
        "LOG: no trial succeeded; a run writes no such log",
    ),
    "one-failed-trial-then-cached-hits-of-it": (
        [((1, "values"), [5, 0.9, "a"]), ((1, "score"), -math.inf), ((1, "status"), "failed"), ((1, "error"), "exit 3")]
        + [((k, key), value) for k in range(2, 9) for key, value in (
            ("values", [5, 0.9, "a"]), ("score", -math.inf), ("status", "cached-hit"), ("error", "exit 3"),
        )],
        "LOG: no trial succeeded; a run writes no such log",
    ),
}


@pytest.mark.parametrize("case", list(CORRUPTIONS))
def test_corrupted_log_exits_1_with_one_line(case, tmp_path, capsys):
    path = tmp_path / "mixed.jsonl"
    log = str(path)
    header = RunHeader(
        strategy="rs", budget=len(MIXED_TRIALS), init=0, seed=1, objective="external:mixed",
        space=MIXED_SPACE, space_digest=space_digest(space_from_dict(MIXED_SPACE)),
    )
    records = [
        TrialRecord(iteration=i, values=tuple(values), score=score, phase="rs", status=status, wall_time=0.0, error=error)
        for i, (values, score, status, error) in enumerate(MIXED_TRIALS, start=1)
    ]
    write_log(log, header, records)
    commands = (["report", log, "--window", "4"], ["compare", log, "--window", "4"], ["importance", log])
    for argv in commands:
        assert run_cli(argv) == 0
    edits, message = CORRUPTIONS[case]
    text = path.read_text(encoding="utf-8")
    if callable(edits):
        text = edits(text)
    else:
        lines = [json.loads(line) for line in text.splitlines()]
        for (*keys, last), value in edits:
            target = lines
            for k in keys:
                target = target[k]
            target[last] = value
        text = "".join(json.dumps(line) + "\n" for line in lines)
    path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    for argv in commands:
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message.replace('LOG', log)}"]


def test_a_fault_in_one_of_several_logs_names_that_log(space_file, tmp_path, capsys):
    good, bad = str(tmp_path / "good.jsonl"), str(tmp_path / "bad.jsonl")
    assert run_cli([
        "run", "--space", space_file, "--objective", "builtin:rastrigin",
        "--strategy", "rs", "--budget", "10", "--seed", "5", "--out", good,
    ]) == 0
    lines = (tmp_path / "good.jsonl").read_text(encoding="utf-8").splitlines()
    trial = json.loads(lines[3])
    trial["score"] = "x"
    lines[3] = json.dumps(trial)
    (tmp_path / "bad.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli(["compare", good, bad]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {bad}: trial 3: score must be a number, got 'x'"]


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "LOG", "--window", "10", "--csv", "BAD"],
        ["report", "LOG", "--window", "10", "--fit", "BAD"],
        # the window of 100 is clamped to the log's 30 trials, whose warning waits for the outputs
        ["report", "LOG", "--fit", "BAD"],
        ["compare", "LOG", "--csv", "BAD"],
        ["importance", "LOG", "--csv", "BAD"],
    ],
    ids=["report-csv", "report-fit", "report-fit-clamped-window", "compare-csv", "importance-csv"],
)
def test_unwritable_output_exits_1_with_one_line(argv, space_file, tmp_path, capsys):
    log = str(tmp_path / "rs.jsonl")
    assert run_cli([
        "run", "--space", space_file, "--objective", "builtin:rastrigin",
        "--strategy", "rs", "--budget", "30", "--seed", "5", "--out", log,
    ]) == 0
    bad = str(tmp_path / "missing" / "out.txt")
    capsys.readouterr()
    assert run_cli([{"LOG": log, "BAD": bad}.get(a, a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {bad}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["report", "DIR/ghost.jsonl"], 1, "cannot read DIR/ghost.jsonl: "),
        (["report", "DIR/bad.jsonl"], 1, "DIR/bad.jsonl: invalid JSON on line 1"),
        (["report", "LOG", "--window", "3", "--csv", "DIR/missing/out.csv"], 1, "cannot write DIR/missing/out.csv: "),
        (["run", "--space", "SPACE", "--out", "DIR/missing/rs.jsonl"], 1, "cannot write log DIR/missing/rs.jsonl: "),
        (["run", "--space", "DIR/empty.yaml"], 2, "DIR/empty.yaml: file is empty"),
        (["run", "--space", "DIR/date.yaml"], 2, "DIR/date.yaml: cannot read a value: "),
    ],
    ids=["unreadable-log", "corrupt-log", "unwritable-output", "unwritable-log", "empty-space", "bad-date-space"],
)
def test_a_path_that_holds_a_newline_is_escaped_in_the_one_error_line(argv, code, message, space_file, tmp_path, capsys):
    folder = tmp_path / "new\nline"
    folder.mkdir()
    (folder / "bad.jsonl").write_text("not json\n")
    (folder / "empty.yaml").write_text("")
    (folder / "date.yaml").write_text("dimensions:\n  - {name: c, kind: cat, values: [2020-13-01]}\n")
    log = str(tmp_path / "rs.jsonl")
    run_argv = ["--objective", "builtin:sphere", "--strategy", "rs", "--budget", "3", "--seed", "1"]
    assert run_cli(["run", "--space", space_file, *run_argv, "--out", log]) == 0
    capsys.readouterr()
    argv = [a.replace("DIR", str(folder)).replace("LOG", log).replace("SPACE", space_file) for a in argv]
    assert run_cli(argv + run_argv if argv[0] == "run" else argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.replace("DIR", f"{tmp_path}/new\\nline")) and err.count("\n") == 1


def test_run_escapes_a_log_path_that_holds_a_newline_in_its_one_log_line(space_file, tmp_path, capsys):
    out = tmp_path / "a\nb.jsonl"
    assert run_cli([
        "run", "--space", space_file, "--objective", "builtin:sphere",
        "--strategy", "rs", "--budget", "3", "--seed", "1", "--out", str(out),
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("log:")] == [f"log: {tmp_path}/a\\nb.jsonl"]
    assert len(read_log(str(out))[1]) == 3


def _exit_code(argv):
    try:
        return run_cli(argv)
    except SystemExit as exc:
        return exc.code


def _log_with_value_7(tmp_path):
    """A log whose one trial holds 7 on the int axis "a\\nb" of 0..5."""
    space = {"dimensions": [{"name": "a\nb", "kind": "int", "low": 0, "high": 5}]}
    header = RunHeader(strategy="rs", budget=1, init=0, seed=1, objective="builtin:sphere",
                       space=space, space_digest=space_digest(space_from_dict(space)))
    log = str(tmp_path / "seven.jsonl")
    write_log(log, header, [TrialRecord(iteration=1, values=(7,), score=-49.0, phase="rs", status="evaluated", wall_time=0.0)])
    return log


# the library words a name as given; the one error line escapes it
@pytest.mark.parametrize(
    "dim, code, line",
    [
        (dict(name="a\nb", kind="int", low=2, high=1), 2, "a\\nb: low must not exceed high"),
        (dict(name="a\rb", kind="cat", values=["p", "p"]), 2, "a\\rb: duplicate categorical value 'p'"),
        (dict(name="a\tb", kind="tree", low=0, high=1), 2, "a\\tb: unknown kind 'tree'"),
        (dict(name="é z", kind="real", low=1.0, high=0.0), 2, "é z: low must not exceed high"),
        (None, 1, "LOG: trial 1: a\\nb=7 is not a value of the space"),
        (dict(name="c\nd", kind="cat", values=["a", "b"]), 2, "builtin 'sphere' needs numeric dimensions; c\\nd is categorical"),
    ],
    ids=["newline", "cr", "tab", "printable", "candidate", "categorical-for-a-builtin"],
)
def test_a_name_that_is_not_printable_is_escaped_in_the_one_error_line(dim, code, line, tmp_path, capsys):
    if dim is None:
        log = _log_with_value_7(tmp_path)
        argv = ["report", log]
        line = line.replace("LOG", log)
    else:
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"dimensions": [dim]}))
        argv = ["run", "--space", str(space), "--objective", "builtin:sphere", "--strategy", "rs", "--budget", "3"]
    assert _exit_code(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {line}\n"


def test_a_space_file_that_is_not_valid_yaml_is_one_error_line(tmp_path, capsys):
    space = tmp_path / "bad.yaml"
    space.write_text("dimensions: [\n")
    argv = ["run", "--space", str(space), "--objective", "builtin:sphere", "--strategy", "rs", "--budget", "3"]
    assert _exit_code(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {space}: not valid YAML: expected the node content, but found '<stream end>' (line 2, column 1)\n"
    )


def test_a_yaml_error_without_a_mark_is_escaped_to_one_line(tmp_path, capsys):
    # a NUL is a reader error, which PyYAML words over two lines and marks with no problem
    space = tmp_path / "nul.yaml"
    space.write_text("a\x00")
    argv = ["run", "--space", str(space), "--objective", "builtin:sphere", "--strategy", "rs", "--budget", "3"]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {space}: not valid YAML: unacceptable character #x0000") and err.count("\n") == 1
    assert "\\n" in err


def test_an_unrecognized_argument_that_holds_a_newline_is_one_error_line(capsys):
    assert _exit_code(["report", "rs.jsonl", "x\ny"]) == 2
    assert capsys.readouterr().err == "error: unrecognized arguments: x\\ny\n"


def test_compare_csv_refuses_a_header_strategy_that_holds_a_cr(space_file, tmp_path, capsys):
    log = tmp_path / "cr.jsonl"
    assert run_cli([
        "run", "--space", space_file, "--objective", "builtin:sphere",
        "--strategy", "rs", "--budget", "3", "--seed", "1", "--out", str(log),
    ]) == 0
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    header = json.loads(lines[0])
    header["strategy"] = "x\ry"
    log.write_text(json.dumps(header) + "\n" + "".join(lines[1:]), encoding="utf-8")
    csv_path = tmp_path / "table.csv"
    capsys.readouterr()
    assert run_cli(["compare", str(log), "--csv", str(csv_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not csv_path.exists()
    assert captured.err == f"error: {log}: header declares strategy 'x\\ry'; a run's strategy is one of wrs, rs, sobol, nelder-mead, pso\n"


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# one dimension entry each; every one must be refused as a space error
BAD_SPACES = {
    "bound-not-a-number": "{name: x, kind: real, low: a, high: 1}",
    "weight-not-a-number": "{name: c, kind: cat, values: [p, q], weights: [x, 1]}",
    "null-weight": "{name: c, kind: cat, values: [p], weights: [null]}",
    "bound-a-list": "{name: x, kind: real, low: 0, high: [1]}",
    "values-not-a-list": "{name: c, kind: cat, values: 5}",
    "kind-not-a-string": "{name: n, kind: [int], low: 0, high: 1}",
    "bound-beyond-float-range": '{"name": "x", "kind": "real", "low": 0, "high": 1' + "0" * 400 + "}",
    "values-a-string": "{name: c, kind: cat, values: abc}",
    "int-bound-beyond-float-range": "{name: n, kind: int, low: 0, high: 1" + "0" * 400 + "}",
    "int-bound-of-5001-digits": "{name: n, kind: int, low: 0, high: 1" + "0" * 5000 + "}",
    "date-bound": "{name: n, kind: int, low: 2020-13-01, high: 3}",
    "real-width-beyond-float-range": "{name: x, kind: real, low: -1.5e308, high: 1.5e308}",
    # a lone surrogate, which a UTF-8 log cannot hold
    "surrogate-in-a-name": '{name: "x\\ud800", kind: real, low: 0, high: 1}',
    "surrogate-in-a-category": '{name: c, kind: cat, values: [p, "q\\udfff"]}',
    # values a JSON log cannot write: a date, and an unhashable list
    "date-category": "{name: c, kind: cat, values: [2020-01-01, 3]}",
    "list-category": "{name: c, kind: cat, values: [[1], 3]}",
    # YAML booleans, which are not numbers
    "boolean-int-bounds": "{name: n, kind: int, low: no, high: yes}",
    "boolean-real-bound": "{name: r, kind: real, low: false, high: 2}",
    "boolean-weight": "{name: c, kind: cat, values: [p, q], weights: [true, 1]}",
    # finite weights whose sum is not: every draw would be the last value
    "weights-whose-sum-overflows": "{name: c, kind: cat, values: [p, q], weights: [1.0e+308, 1.0e+308]}",
}


# an objective that takes any space, categorical axes included, so that only
# the space or the options can refuse the run
ANY_SPACE_OBJECTIVE = f"external:{shlex.quote(sys.executable)} -c print(1)"


def _run(strategy, *extra, objective=ANY_SPACE_OBJECTIVE):
    return ["run", "--space", "SPACE", "--objective", objective, "--strategy", strategy, *extra]


USER_ERRORS = {
    "budget-zero": _run("rs", "--budget", "0"),
    "negative-init": _run("wrs", "--budget", "3", "--init", "-1"),
    "window-zero": ["report", "run.jsonl", "--window", "0"],
    # the parser is the one check of this; the library takes it as given
    "negative-degree": ["report", "run.jsonl", "--degree", "-1"],
    # importance fits the forest a wrs run fits: it takes no forest setting
    "forest-setting-on-importance": ["importance", "run.jsonl", "--trees", "5"],
    "compare-window-zero": ["compare", "run.jsonl", "--window", "0"],
    "compare-without-a-log": ["compare"],
    "missing-space-flag": ["run", "--objective", "builtin:sphere", "--strategy", "rs", "--budget", "3"],
    **{case: _run("rs", "--budget", "3") for case in BAD_SPACES},
    "unreadable-space-file": _run("rs", "--budget", "3"),
    "negative-seed": _run("rs", "--budget", "3", "--seed", "-1"),
    "infinite-swarm": _run("pso", "--budget", "3", "--opt", "swarm=inf"),
    "nan-swarm": _run("pso", "--budget", "3", "--opt", "swarm=nan"),
    "fractional-swarm": _run("pso", "--budget", "3", "--opt", "swarm=2.5"),
    "nan-alpha": _run("nelder-mead", "--budget", "3", "--opt", "alpha=nan"),
    # coefficients outside their documented ranges, which used to overflow
    "init-step-beyond-1": _run("nelder-mead", "--budget", "3", "--opt", "init_step=1e308"),
    "c1-beyond-4": _run("pso", "--budget", "3", "--opt", "c1=1e308"),
    "set-prob-without-a-name": _run("wrs", "--budget", "3", "--set-prob", "=0.5"),
    "set-prob-not-a-number": _run("wrs", "--budget", "3", "--set-prob", "x0=x"),
    # argv delivers a byte that is not UTF-8 as a lone surrogate
    "objective-not-utf8": _run("rs", "--budget", "3", objective=f"{ANY_SPACE_OBJECTIVE} \udcff"),
    "unclosed-quote-in-command": _run("rs", "--budget", "3", objective="external:echo 'unclosed"),
    "blank-external-command": _run("rs", "--budget", "3", objective="external:   "),
    # a one-dimension space, on which rosenbrock would score 0 everywhere
    "rosenbrock-on-one-dimension": _run("rs", "--budget", "3", objective="builtin:rosenbrock"),
    # an int axis past 2**53, which floats would collapse to one point
    "nelder-mead-on-an-int-axis-past-2**53": _run("nelder-mead", "--budget", "3"),
    "pso-on-an-int-axis-past-2**53": _run("pso", "--budget", "3"),
}
# the space file of each case that needs its own
CASE_SPACES = {
    "rosenbrock-on-one-dimension": INT4_SPACE,
    "nelder-mead-on-an-int-axis-past-2**53": BIG_INT_SPACE,
    "pso-on-an-int-axis-past-2**53": BIG_INT_SPACE,
}


@pytest.mark.parametrize("case", list(USER_ERRORS))
def test_user_error_exits_2_with_one_line(case, space_file, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    space = space_file
    if case in BAD_SPACES:
        space = tmp_path / "bad.yaml"
        space.write_text(f"dimensions:\n  - {BAD_SPACES[case]}\n")
    elif case == "unreadable-space-file":
        space = tmp_path / "missing.yaml"
    elif case in CASE_SPACES:
        space = tmp_path / "case.yaml"
        space.write_text(CASE_SPACES[case])
    argv = [str(space) if a == "SPACE" else a for a in USER_ERRORS[case]]
    try:
        code = run_cli(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert not list(tmp_path.glob("*.jsonl"))


# RunConfig.validate is the one check of --budget and --init; read_log words a header's budget and init alike
@pytest.mark.parametrize("case, message", [
    ("budget-zero", "error: budget 0; a run holds at least 1 trial"),
    ("negative-init", "error: init -1 at budget 3; a run needs 0 <= init < budget"),
])
def test_budget_and_init_are_refused_by_the_one_check_before_the_seed_line(case, message, space_file, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli([space_file if a == "SPACE" else a for a in USER_ERRORS[case]]) == 2
    assert capsys.readouterr() == ("", message + "\n")


def test_ctrl_c_during_a_run_prints_one_line_and_writes_no_log(space_file, tmp_path):
    started = tmp_path / "started"
    scorer = tmp_path / "slow.py"
    scorer.write_text(f"import pathlib, time\npathlib.Path({str(started)!r}).touch()\ntime.sleep(30)\nprint(1)\n")
    log = tmp_path / "run.jsonl"
    driver = subprocess.Popen([
        sys.executable, "-c",
        # the default handler, even when this suite runs with SIGINT ignored
        "import signal, sys; signal.signal(signal.SIGINT, signal.default_int_handler); "
        "from wrsopt.cli import main; sys.exit(main(sys.argv[1:]))",
        "run", "--space", space_file, "--objective", f"external:{shlex.quote(sys.executable)} {shlex.quote(str(scorer))}",
        "--strategy", "rs", "--budget", "5", "--seed", "1", "--out", str(log),
    ], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    deadline = time.monotonic() + 10
    while not started.exists() and time.monotonic() < deadline:
        time.sleep(0.02)
    assert started.exists()
    driver.send_signal(signal.SIGINT)
    out, err = driver.communicate(timeout=10)
    assert (driver.returncode, out, err) == (1, "seed: 1\n", "error: interrupted; no log written\n")
    assert not list(tmp_path.glob("run.jsonl*"))


def test_no_command_leaves_a_file_or_a_scorer_process_open(space_file, tmp_path):
    # dev mode reports a file or a process never closed as a ResourceWarning; as an error it prints "Exception ignored"
    wrs, ext = str(tmp_path / "wrs.jsonl"), str(tmp_path / "ext.jsonl")
    commands = [
        ["run", "--space", space_file, "--objective", "builtin:additive-anova?coeffs=3,1&direction=maximize",
         "--strategy", "wrs", "--budget", "30", "--init", "10", "--seed", "1", "--out", wrs],
        ["run", "--space", space_file, "--objective", "external:sh -c 'echo 0.5'",
         "--strategy", "rs", "--budget", "3", "--seed", "1", "--out", ext],
        ["report", wrs],
        ["compare", wrs, ext],
        ["importance", wrs, "--csv", str(tmp_path / "imp.csv")],
    ]
    driver = subprocess.run([
        sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c",
        "import json, sys; from wrsopt.cli import main; sys.exit(max([main(argv) for argv in json.loads(sys.argv[1])]))",
        json.dumps(commands),
    ], capture_output=True, text=True, timeout=60)
    assert driver.returncode == 0, driver.stderr
    assert "ResourceWarning" not in driver.stderr and "Exception ignored" not in driver.stderr, driver.stderr


def test_ctrl_c_outside_a_run_prints_one_line(monkeypatch, capsys):
    def interrupted(path):
        raise KeyboardInterrupt

    monkeypatch.setattr("wrsopt.cli.read_log", interrupted)
    try:
        code = run_cli(["report", "run.jsonl"])
    except KeyboardInterrupt:
        pytest.fail("the interrupt escaped main")
    assert code == 1
    assert capsys.readouterr().err == "error: interrupted\n"
