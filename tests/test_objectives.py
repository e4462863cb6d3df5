import math
import re
import shlex
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from wrsopt.objectives import (
    _TAIL_BYTES,
    ObjectiveError,
    ObjectiveFailure,
    _additive_component,
    _branin,
    _evaluate_external,
    make_objective,
    parse_objective_spec,
    _rastrigin,
    _rosenbrock,
    _sphere,
    _styblinski_tang,
)
from wrsopt.engine import RunConfig, evaluate_with_cache, execute_run
from wrsopt.space import Dimension, SearchSpace
from wrsopt.triallog import read_log, write_log

from _util import int_space, python_objective, real_space


class TestSpecParsing:
    def test_builtin_roundtrip(self):
        spec = parse_objective_spec("builtin:rastrigin")
        assert (spec.kind, spec.target, spec.direction) == ("builtin", "rastrigin", "minimize")

    def test_params_and_direction(self):
        spec = parse_objective_spec("builtin:additive-anova?coeffs=3,1&direction=maximize")
        assert dict(spec.params) == {"coeffs": "3,1"}
        assert spec.direction == "maximize"

    def test_external_command_with_timeout(self):
        spec = parse_objective_spec("external:python3 score.py --fast?timeout=12.5")
        assert spec.target == "python3 score.py --fast"
        assert spec.timeout == 12.5

    def test_question_mark_without_params_stays_in_command(self):
        spec = parse_objective_spec("external:grep foo?")
        assert spec.target == "grep foo?"

    @pytest.mark.parametrize(
        "text",
        [
            "rastrigin",
            "magic:rastrigin",
            "builtin:not-a-function",
            "builtin:",
            "builtin:sphere?direction=sideways",
            "builtin:sphere?timeout=3",
            "external:cmd?timeout=0",
            "external:cmd?timeout=soon",
            "external:   ",
            "external:echo 'unclosed",
            "external:echo trailing\\",
            "external:echo \udcff",  # a non-UTF-8 byte, as argv delivers it
            "builtin:additive-anova?coeffs=1\ud800",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ObjectiveError):
            parse_objective_spec(text)


class TestBuiltins:
    def test_sphere_minimum_at_origin(self):
        assert _sphere(np.zeros(4)) == 0.0
        assert _sphere(np.array([1.0, 2.0])) == 5.0

    def test_rastrigin_minimum_and_value(self):
        assert _rastrigin(np.zeros(10)) == pytest.approx(0.0, abs=1e-12)
        # single coordinate at 1.0: 10 + 1 - 10*cos(2*pi) = 1
        assert _rastrigin(np.array([1.0])) == pytest.approx(1.0, abs=1e-9)

    def test_rosenbrock_valley(self):
        assert _rosenbrock(np.ones(6)) == 0.0
        assert _rosenbrock(np.array([0.0, 0.0])) == 1.0

    def test_branin_symmetric_minima_agree(self):
        left = _branin(np.array([-math.pi, 12.275]))
        right = _branin(np.array([math.pi, 2.275]))
        assert left == pytest.approx(right, abs=1e-9)
        assert left == pytest.approx(0.397887, abs=1e-5)

    def test_branin_needs_two_dims(self):
        with pytest.raises(ObjectiveError):
            make_objective("builtin:branin", real_space(1))

    def test_rosenbrock_needs_at_least_two_dims(self):
        # one axis has no neighbouring pair: the sum is empty and every score 0
        with pytest.raises(ObjectiveError, match=r"^rosenbrock is at least 2-dimensional; space has 1 dimensions$"):
            make_objective("builtin:rosenbrock", int_space(1))

    def test_styblinski_tang_known_minimum(self):
        x = np.full(3, -2.903534)
        assert _styblinski_tang(x) == pytest.approx(-39.16617 * 3, abs=1e-3)

    def test_additive_component_standardized_by_quadrature(self):
        # zero mean, unit variance under z ~ U[0,1]
        t, w = np.polynomial.legendre.leggauss(64)
        z = (t + 1) / 2
        wts = w / 2
        g = _additive_component(z)
        assert float(wts @ g) == pytest.approx(0.0, abs=1e-12)
        assert float(wts @ g**2) == pytest.approx(1.0, abs=1e-12)

    def test_additive_anova_variance_shares_by_quadrature(self):
        # coefficients (3, 1): variance splits 9:1 because components are standardized
        t, w = np.polynomial.legendre.leggauss(48)
        z = (t + 1) / 2
        wts = w / 2
        f = 3.0 * _additive_component(z)[:, None] + 1.0 * _additive_component(z)[None, :]
        w2 = wts[:, None] * wts[None, :]
        mean = float((w2 * f).sum())
        var = float((w2 * f**2).sum()) - mean**2
        a1 = (f * wts[None, :]).sum(axis=1)
        v1 = float(wts @ a1**2) - mean**2
        a2 = (f * wts[:, None]).sum(axis=0)
        v2 = float(wts @ a2**2) - mean**2
        assert 100 * v1 / var == pytest.approx(90.0, abs=1e-9)
        assert 100 * v2 / var == pytest.approx(10.0, abs=1e-9)

    def test_unknown_or_misparameterized(self):
        with pytest.raises(ObjectiveError):
            make_objective("builtin:nope", real_space(1))
        with pytest.raises(ObjectiveError):
            make_objective("builtin:sphere?coeffs=1", real_space(1))
        with pytest.raises(ObjectiveError):
            make_objective("builtin:additive-anova", real_space(2))


class TestMakeObjective:
    def test_minimize_wraps_by_negation(self):
        space = real_space(3, low=-2, high=2)
        obj = make_objective("builtin:sphere", space)
        assert obj((1.0, 1.0, 1.0)) == -3.0
        assert obj.calls == 1

    def test_maximize_passes_through(self):
        space = real_space(2, low=-2, high=2)
        obj = make_objective("builtin:sphere?direction=maximize", space)
        assert obj((1.0, 1.0)) == 2.0

    def test_additive_anova_binds_bounds_from_space(self):
        space = int_space(2, low=0, high=10)
        obj = make_objective("builtin:additive-anova?coeffs=3,1&direction=maximize", space)
        # midpoint of both ranges: z = 0.5 for each, components vanish
        assert obj((5, 5)) == pytest.approx(0.0, abs=1e-12)

    def test_additive_anova_coeff_count_checked(self):
        with pytest.raises(ObjectiveError):
            make_objective("builtin:additive-anova?coeffs=1,2,3", real_space(2))

    @pytest.mark.parametrize("name", ["c", "c\nd"])
    def test_categorical_space_rejected_for_numeric_builtin(self, name):
        space = SearchSpace((Dimension(name=name, kind="cat", values=("a", "b")),))
        with pytest.raises(ObjectiveError, match=f"^builtin 'sphere' needs numeric dimensions; {re.escape(name)} is categorical$"):
            make_objective("builtin:sphere", space)

    def test_branin_arity_checked_against_space(self):
        with pytest.raises(ObjectiveError):
            make_objective("builtin:branin", real_space(3))

    def test_extra_params_rejected(self):
        with pytest.raises(ObjectiveError):
            make_objective("builtin:sphere?coeffs=1,1", real_space(2))

    @pytest.mark.parametrize("spec, message", [
        ("builtin:additive-anova?coeffs=1,2&centre=0.5&direction=maximize",
         "builtin 'additive-anova' takes only coeffs and direction, got ['centre']"),
        ("builtin:additive-anova?shift=1&coeffs=1,2&centre=0", "builtin 'additive-anova' takes only coeffs and direction, got ['centre', 'shift']"),
        ("external:sh e.sh?run=1", "external 'sh e.sh' takes only timeout and direction, got ['run']"),
        ("external:sh e.sh?run=1&timeout=5&direction=maximize", "external 'sh e.sh' takes only timeout and direction, got ['run']"),
        # an unread key is refused before a missing coeffs
        ("builtin:additive-anova?centre=0.5", "builtin 'additive-anova' takes only coeffs and direction, got ['centre']"),
        ("builtin:sphere?centre=0.5", "builtin 'sphere' takes only direction, got ['centre']"),
    ])
    def test_a_key_the_objective_does_not_read_is_refused(self, spec, message):
        with pytest.raises(ObjectiveError, match=f"^{re.escape(message)}$"):
            make_objective(spec, real_space(2))

    def test_external_objective_takes_timeout_and_direction(self):
        obj = make_objective("external:sh e.sh?timeout=5&direction=maximize", real_space(2))
        assert (obj.spec.target, obj.spec.timeout, obj.spec.direction, obj.spec.params) == ("sh e.sh", 5.0, "maximize", ())

    def test_additive_anova_coeffs_must_be_numbers(self):
        with pytest.raises(ObjectiveError, match="is not a comma-separated number list"):
            make_objective("builtin:additive-anova?coeffs=3,x", real_space(2))

    def test_additive_anova_needs_every_axis_wider_than_a_point(self):
        space = SearchSpace((Dimension(name="a", kind="real", low=0, high=1), Dimension(name="b", kind="int", low=2, high=2)))
        with pytest.raises(ObjectiveError, match="strictly positive ranges"):
            make_objective("builtin:additive-anova?coeffs=3,1", space)

    def test_non_finite_value_becomes_failure(self):
        space = real_space(1, low=0, high=1e200)
        obj = make_objective("builtin:sphere", space)
        with pytest.raises(ObjectiveFailure):
            obj((1e200,))  # overflows to inf

    @pytest.mark.parametrize("spec", [
        "builtin:rastrigin", "builtin:rosenbrock", "builtin:branin", "builtin:styblinski-tang",
        "builtin:additive-anova?coeffs=1e308,1e308",
    ])
    def test_value_beyond_float_range_fails_without_a_warning(self, spec):
        # as sphere above; a RuntimeWarning is an error under this suite's settings
        obj = make_objective(spec, real_space(2, low=-1e300, high=1e300))
        with pytest.raises(ObjectiveFailure, match="^non-finite value$"):
            obj((1e300, 1e300))

    @pytest.mark.parametrize("spec, space, values, score", [
        ("builtin:sphere", real_space(2, low=-5, high=5), (0.1 + 0.2, -1.7), -2.9799999999999995),
        ("builtin:rastrigin", real_space(2, low=-5, high=5), (0.1 + 0.2, -1.7), -29.160339887498953),
        ("builtin:rosenbrock", real_space(2, low=-5, high=5), (0.1 + 0.2, -1.7), -320.9),
        ("builtin:branin", real_space(2, low=-5, high=5), (0.1 + 0.2, -1.7), -71.50634518911265),
        ("builtin:styblinski-tang", real_space(2, low=-5, high=5), (0.1 + 0.2, -1.7), 23.159899999999997),
        ("builtin:additive-anova?coeffs=3,0.7&direction=maximize", real_space(2, low=-5, high=5), (0.1 + 0.2, -1.7), -0.10045894683899464),
        ("builtin:additive-anova?coeffs=3,0.7", int_space(2, low=0, high=10), (3, 7), 1.5934867429633675),
    ])
    def test_scores_are_pinned_to_the_bit(self, spec, space, values, score):
        # the float operations of each builtin, in their order; == on a repr literal is exact
        assert make_objective(spec, space)(values) == score


@pytest.mark.parametrize("returned, score", [
    (10**400, None),  # beyond float range: the failed trial "non-finite value", as a builtin's
    (True, 1.0),
    (np.int64(3), 3.0),
    (np.float32(0.5), 0.5),
], ids=["int-beyond-float-range", "bool", "numpy-int64", "numpy-float32"])
def test_a_library_objective_scores_a_python_float(returned, score, tmp_path):
    # the first trial scores what fn returns and the others 0.25; the log the run writes reads back
    scores = iter([returned])
    result = execute_run(real_space(1), python_objective(lambda values: next(scores, 0.25)), RunConfig(strategy="rs", budget=4, seed=1))
    first = result.records[0]
    if score is None:
        assert (first.status, first.score, first.error) == ("failed", -math.inf, "non-finite value")
    else:
        assert (first.status, type(first.score), first.score) == ("evaluated", float, score)
    path = tmp_path / "run.jsonl"
    write_log(path, result.header, result.records)
    assert read_log(path) == (result.header, result.records)


class TestExternalProtocol:
    def test_echo_score(self):
        space = int_space(1)
        cmd = f"{sys.executable} -c " + '"print(0.5)"'
        assert _evaluate_external(cmd, (3,), space, timeout=30) == 0.5

    def test_arguments_reconstruct_candidate_exactly(self, tmp_path):
        script = tmp_path / "echo_args.py"
        script.write_text(
            "import sys\n"
            "args = dict(a.split('=', 1) for a in sys.argv[1:])\n"
            "assert args['n0'] == '7', args\n"
            "assert args['r'] == repr(0.1 + 0.2), args\n"
            "assert args['c'] == 'tanh', args\n"
            "print(1.0)\n"
        )
        space = SearchSpace(
            (
                Dimension(name="n0", kind="int", low=0, high=10),
                Dimension(name="r", kind="real", low=0.0, high=1.0),
                Dimension(name="c", kind="cat", values=("relu", "tanh")),
            )
        )
        score = _evaluate_external(f"{sys.executable} {script}", (7, 0.1 + 0.2, "tanh"), space, timeout=30)
        assert score == 1.0

    def test_last_stdout_line_wins(self):
        space = int_space(1)
        cmd = f"{sys.executable} -c " + "\"print('log line'); print(0.25)\""
        assert _evaluate_external(cmd, (1,), space, timeout=30) == 0.25

    def test_nonzero_exit_fails(self):
        space = int_space(1)
        cmd = f"{sys.executable} -c " + '"raise SystemExit(3)"'
        with pytest.raises(ObjectiveFailure, match="exit 3"):
            _evaluate_external(cmd, (1,), space, timeout=30)

    def test_timeout_fails_with_token(self):
        space = int_space(1)
        cmd = f"{sys.executable} -c " + '"import time; time.sleep(30)"'
        with pytest.raises(ObjectiveFailure, match="timeout"):
            _evaluate_external(cmd, (1,), space, timeout=0.5)

    def test_timeout_kills_the_whole_process_group(self, tmp_path):
        marker = tmp_path / "marker"
        script = tmp_path / "wrapper.sh"
        script.write_text(f"(sleep 1; touch {shlex.quote(str(marker))}) &\nsleep 30\n")
        with pytest.raises(ObjectiveFailure, match="timeout"):
            _evaluate_external(f"sh {shlex.quote(str(script))}", (1,), int_space(1), timeout=0.3)
        time.sleep(1.5)
        assert not marker.exists()

    def test_interrupt_kills_the_command(self, tmp_path):
        # the command runs in its own session, so a terminal's Ctrl-C reaches
        # only the optimizer; it must take the command down with it
        started, marker = tmp_path / "started", tmp_path / "marker"
        command = f"sh -c 'touch {started}; sleep 1; touch {marker}'"
        driver = subprocess.Popen([
            sys.executable, "-c",
            # the default handler, even when this suite runs with SIGINT ignored
            "import signal, sys; signal.signal(signal.SIGINT, signal.default_int_handler); "
            "from wrsopt.objectives import _evaluate_external; "
            "from wrsopt.space import Dimension, SearchSpace; "
            "space = SearchSpace((Dimension(name='n', kind='int', low=0, high=1),)); "
            "_evaluate_external(sys.argv[1], (0,), space, timeout=30)",
            command,
        ], stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 10
        while not started.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert started.exists()
        driver.send_signal(signal.SIGINT)
        assert driver.wait(timeout=10) != 0
        time.sleep(1.5)
        assert not marker.exists()

    def test_stderr_is_not_held_in_memory(self):
        # 50 MB on the scorer's stderr; the driver's peak RSS, taken in a
        # child process of its own, must not rise by more than 10 MB
        command = f"{sys.executable} -c " + '"import sys; sys.stderr.write(\'x\' * 50_000_000); print(0.5)"'
        driver = subprocess.run([
            sys.executable, "-c",
            "import resource, sys; "
            "from wrsopt.objectives import _evaluate_external; "
            "from wrsopt.space import Dimension, SearchSpace; "
            "space = SearchSpace((Dimension(name='n', kind='int', low=0, high=1),)); "
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
            "score = _evaluate_external(sys.argv[1], (0,), space, timeout=60); "
            "print(score, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)",
            command,
        ], capture_output=True, text=True, timeout=120, check=True)
        score, rise_kb = driver.stdout.split()
        assert float(score) == 0.5
        assert int(rise_kb) < 10 * 1024  # ru_maxrss is in KiB on Linux

    def test_stdout_is_not_held_in_memory(self):
        # 50 MB on the scorer's stdout before its score, measured as for stderr
        command = f"{sys.executable} -c " + '"import sys; sys.stdout.write(\'x\' * 50_000_000 + \'\\n\'); print(0.5)"'
        driver = subprocess.run([
            sys.executable, "-c",
            "import resource, sys; "
            "from wrsopt.objectives import _evaluate_external; "
            "from wrsopt.space import Dimension, SearchSpace; "
            "space = SearchSpace((Dimension(name='n', kind='int', low=0, high=1),)); "
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
            "score = _evaluate_external(sys.argv[1], (0,), space, timeout=60); "
            "print(score, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)",
            command,
        ], capture_output=True, text=True, timeout=120, check=True)
        score, rise_kb = driver.stdout.split()
        assert float(score) == 0.5
        assert int(rise_kb) < 10 * 1024  # ru_maxrss is in KiB on Linux

    def test_a_background_job_neither_delays_the_score_nor_outlives_the_trial(self, tmp_path):
        # the job holds stdout open; the score counts once the command exits
        marker = tmp_path / "marker"
        command = f"sh -c '(sleep 2; touch {shlex.quote(str(marker))}) & echo 0.5'"
        start = time.monotonic()
        assert _evaluate_external(command, (1,), int_space(1), timeout=5) == 0.5
        assert time.monotonic() - start < 1
        time.sleep(2.5)
        assert not marker.exists()

    def test_unparseable_output_fails(self):
        space = int_space(1)
        cmd = f"{sys.executable} -c " + "\"print('accuracy great')\""
        with pytest.raises(ObjectiveFailure, match="unparseable"):
            _evaluate_external(cmd, (1,), space, timeout=30)

    def test_output_that_is_not_utf8_is_decoded_with_replacement(self):
        space = int_space(1)
        cmd = f"{sys.executable} -c " + '"import sys; sys.stdout.buffer.write(b\'\\xff\\n0.5\\n\')"'
        assert _evaluate_external(cmd, (1,), space, timeout=30) == 0.5

    def test_a_line_that_is_not_utf8_is_unparseable_output(self):
        space = int_space(1)
        cmd = f"{sys.executable} -c " + '"import sys; sys.stdout.buffer.write(b\'\\xff\\n\')"'
        with pytest.raises(ObjectiveFailure, match="^unparseable output '\ufffd'$"):
            _evaluate_external(cmd, (1,), space, timeout=30)

    def test_command_that_cannot_be_spawned_fails(self, tmp_path):
        with pytest.raises(ObjectiveFailure, match="^spawn failed: "):
            _evaluate_external(shlex.quote(str(tmp_path / "no-such-command")), (1,), int_space(1), timeout=30)

    @pytest.mark.parametrize("printed", ["nan", "inf", "-inf"])
    def test_a_non_finite_score_is_a_failed_trial(self, printed):
        # _evaluate_external passes the parsed value on; Objective refuses it
        space = int_space(1)
        objective = make_objective(f"external:{shlex.quote(sys.executable)} -c \"print('{printed}')\"", space)
        record = evaluate_with_cache(objective, space, (1,), {}, 1, "rs")
        assert (record.status, record.score, record.error) == ("failed", -math.inf, "non-finite value")

    def test_silent_command_fails(self):
        space = int_space(1)
        cmd = f"{sys.executable} -c " + '"pass"'
        with pytest.raises(ObjectiveFailure, match="no output"):
            _evaluate_external(cmd, (1,), space, timeout=30)


# the pieces of a scorer's stdout for the window test: none of them holds a
# line end, and a byte that is not UTF-8 (a lone continuation byte, or one
# that never occurs in UTF-8) decodes to U+FFFD on its own
_NOT_UTF8 = [*range(0x80, 0xC0), 0xC0, 0xC1, *range(0xF5, 0x100)]
_LINE_CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
_PIECES = st.one_of(
    st.text(_LINE_CHARS, max_size=12).map(str.encode),
    st.sampled_from([b"", b" ", b"\t", b" \t  "]),
    st.floats(allow_nan=False).map(lambda x: repr(x).encode()),
    st.lists(st.sampled_from(_NOT_UTF8), min_size=1, max_size=3).map(bytes),
    # a run as long as a window: of digits it is a number, and so is any tail of it
    st.tuples(st.sampled_from(["0", "x", " ", "\u00e9"]), st.integers(1, _TAIL_BYTES + 8)).map(lambda t: (t[0] * t[1]).encode()),
)
_LINES = st.lists(st.tuples(st.lists(_PIECES, max_size=3).map(b"".join), st.sampled_from([b"\n", b"\r\n", b"\r"])), min_size=1, max_size=8)


def _outcome(fn):
    try:
        return ("score", repr(fn()))
    except ObjectiveFailure as exc:
        return ("failed", exc.reason)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=_LINES, unterminated=st.booleans())
# the last line takes up the window exactly, and one byte more
@example(lines=[(b"0.5", b"\n"), (b"1" * (_TAIL_BYTES - 1), b"\n")], unterminated=False)
@example(lines=[(b"0.5", b"\n"), (b"1" * _TAIL_BYTES, b"\n")], unterminated=False)
@example(lines=[(b"0.5", b"\r\n"), (b"1" * _TAIL_BYTES, b"")], unterminated=True)
# a score above a window of blank lines
@example(lines=[(b"0.5", b"\n"), (b"", b"\r\n" * (_TAIL_BYTES // 2))], unterminated=False)
def test_only_a_last_line_within_the_window_is_read(tmp_path_factory, lines, unterminated):
    if unterminated:
        lines = [*lines[:-1], (lines[-1][0], b"")]
    data = b"".join(content + end for content, end in lines)
    assume(len(data) <= 3 * _TAIL_BYTES)
    path = tmp_path_factory.mktemp("out") / "stdout"
    path.write_bytes(data)
    command = "sh -c " + shlex.quote("cat " + shlex.quote(str(path)))
    got = _outcome(lambda: _evaluate_external(command, (1,), int_space(1), timeout=30))

    # no piece ends a line, so each non-blank drawn line is one non-blank line of the text
    starts = np.cumsum([0] + [len(content + end) for content, end in lines])[:-1]
    nonblank = [start for start, (content, _) in zip(starts, lines) if content.decode("utf-8", "replace").strip()]
    if len(data) <= _TAIL_BYTES or (nonblank and nonblank[-1] >= len(data) - _TAIL_BYTES):
        # the whole-output rule: the last non-blank line of the text as a float
        text_lines = [ln for ln in data.decode("utf-8", "replace").splitlines() if ln.strip()]
        if not text_lines:
            assert got == ("failed", "no output")
            return
        try:
            want = ("score", repr(float(text_lines[-1].strip())))
        except ValueError:
            want = ("failed", f"unparseable output {text_lines[-1].strip()!r}")
        assert got == want
    else:
        assert got == ("failed", f"unparseable output (no whole non-blank line in the last {_TAIL_BYTES} bytes)")
