import json
import math
import re
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wrsopt.space import (
    Dimension,
    SearchSpace,
    SpaceError,
    space_digest,
    space_from_dict,
    space_to_dict,
    validate_candidate,
    values_in_dimension,
)
from wrsopt.triallog import (
    LogError,
    RunHeader,
    TrialRecord,
    _record_line,
    read_log,
    record_fingerprint,
    write_log,
)

from _stream_oracle import spaces


UNIT_SPACE = {"dimensions": [{"name": "x", "kind": "real", "low": 0.0, "high": 1.0}]}


def make_header(budget=3, strategy="rs", space=UNIT_SPACE, **kw):
    return RunHeader(
        strategy=strategy,
        budget=budget,
        init=0,
        seed=42,
        objective="builtin:sphere",
        space=space,
        space_digest=space_digest(space_from_dict(space)),
        **kw,
    )


def make_records(n):
    return [
        TrialRecord(iteration=i, values=(0.25 * i,), score=float(i), phase="rs", status="evaluated", wall_time=0.001 * i)
        for i in range(1, n + 1)
    ]


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        header = make_header()
        records = make_records(3)
        write_log(path, header, records)
        got_header, got_records = read_log(path)
        assert got_header == header
        assert got_records == records

    def test_header_is_first_line_with_schema(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_log(path, make_header(), make_records(3))
        first = json.loads(Path(path).read_text().splitlines()[0])
        assert first["kind"] == "header"
        assert first["schema"] == 1

    def test_failed_trial_score_serializes_as_minus_infinity(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        # a run writes no log without a success, so an evaluated trial comes first
        rec = TrialRecord(iteration=2, values=(0.5,), score=float("-inf"), phase="rs", status="failed", wall_time=0.0, error="exit 3")
        write_log(path, make_header(budget=2), [*make_records(1), rec])
        raw = Path(path).read_text().splitlines()[2]
        assert "-Infinity" in raw
        _, records = read_log(path)
        assert records[1].score == float("-inf")
        assert records[1].error == "exit 3"

    def test_error_field_absent_unless_set(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_log(path, make_header(budget=1), make_records(1))
        raw = Path(path).read_text().splitlines()[1]
        assert "error" not in json.loads(raw)

    def test_profile_round_trips(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        profile = {"weights": [40.0], "probs": [1.0], "k_mins": [5]}
        write_log(path, make_header(strategy="wrs", profile=profile), make_records(3))
        header, _ = read_log(path)
        assert header.profile == profile

    def test_atomic_replace_leaves_no_tmp(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_log(path, make_header(), make_records(3))
        assert not (tmp_path / "run.jsonl.tmp").exists()

    def test_a_failed_write_leaves_no_tmp(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        records = make_records(3)
        records[1].phase = "x\ud800"  # a lone surrogate, which UTF-8 cannot encode
        with pytest.raises(UnicodeEncodeError):
            write_log(path, make_header(), records)
        assert list(tmp_path.iterdir()) == []


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(LogError, match="cannot read"):
            read_log(str(tmp_path / "nope.jsonl"))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        with pytest.raises(LogError, match="empty"):
            read_log(str(p))

    def test_invalid_json_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"kind": "header"\n')
        with pytest.raises(LogError, match="invalid JSON on line 1$"):
            read_log(str(p))

    def test_invalid_json_reports_the_file_line_counting_blank_lines(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_log(path, make_header(budget=2), make_records(2))
        header, first, second = Path(path).read_text().splitlines()
        # line 2 is blank, line 3 is broken, line 4 is fine
        Path(path).write_text(header + "\n\n" + first[:-1] + "\n" + second + "\n")
        with pytest.raises(LogError, match="invalid JSON on line 3$"):
            read_log(path)

    def test_bytes_that_are_not_utf8_are_a_log_error(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_log(path, make_header(budget=1), make_records(1))
        with open(path, "ab") as fh:
            fh.write(b"\xff\n")
        with pytest.raises(LogError, match="not UTF-8"):
            read_log(path)

    def test_bad_byte_past_the_first_8_kib_is_named_by_its_offset_in_the_file(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_log(path, make_header(budget=200), make_records(200))
        data = bytearray(Path(path).read_bytes())
        at = data.index(b'"phase": "rs"', 9000) + len(b'"phase": "')
        data[at] = 0xFF
        Path(path).write_bytes(bytes(data))
        with pytest.raises(LogError, match=rf"not UTF-8 text \(byte {at}\)$"):
            read_log(path)

    @pytest.mark.parametrize(
        "first, second, message",
        [
            ("bad-field", "bad-json", "run.jsonl: trial 1: phase must be a string, got 7$"),
            ("gap", "bad-status", "iteration 9 at position 1; expected consecutive numbering$"),
            ("bad-json", "not-utf8", "invalid JSON on line 2$"),
        ],
        ids=["field-then-json", "gap-then-status", "json-then-utf8"],
    )
    def test_a_log_with_faults_on_two_lines_names_the_earlier(self, tmp_path, first, second, message):
        path = str(tmp_path / "run.jsonl")
        write_log(path, make_header(budget=3), make_records(3))
        lines = Path(path).read_bytes().splitlines()
        faults = {
            "bad-field": lambda line: line.replace(b'"rs"', b"7"),
            "bad-json": lambda line: line[:-1],
            "gap": lambda line: line.replace(b'"iteration": 1,', b'"iteration": 9,'),
            "bad-status": lambda line: line.replace(b'"evaluated"', b'"maybe"'),
            "not-utf8": lambda line: line.replace(b'"rs"', b'"\xff"'),
        }
        lines[1], lines[3] = faults[first](lines[1]), faults[second](lines[3])
        Path(path).write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(LogError, match=message):
            read_log(path)

    @pytest.mark.parametrize(
        "faults, message",
        [
            # the header's space and digest are checked at line 1, before any trial line
            ({0: lambda line: line.replace(b'"high": 1.0', b'"high": 2.0'), 3: lambda line: line[:-1]},
             "run.jsonl: header space does not match its space_digest$"),
            # status, score and error on the trial's own line; values by column after the last line
            ({1: lambda line: line.replace(b"[0.25]", b"[7.0]"), 3: lambda line: line.replace(b'"score": 3.0', b'"score": -Infinity')},
             "run.jsonl: trial 3: status 'evaluated', score -inf and error None do not agree$"),
        ],
        ids=["header-space-then-json", "stray-value-then-disagreement"],
    )
    def test_each_line_is_checked_whole_where_it_is_read(self, tmp_path, faults, message):
        path = str(tmp_path / "run.jsonl")
        write_log(path, make_header(budget=3), make_records(3))
        lines = Path(path).read_bytes().splitlines()
        for k, fault in faults.items():
            lines[k] = fault(lines[k])
        Path(path).write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(LogError, match=message):
            read_log(path)

    def test_first_line_must_be_header(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"iteration": 1}\n')
        with pytest.raises(LogError, match="not a header"):
            read_log(str(p))

    def test_unsupported_schema(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        d = make_header(budget=0).to_dict()
        d["schema"] = 99
        p.write_text(json.dumps(d) + "\n")
        with pytest.raises(LogError, match="schema"):
            read_log(str(p))

    def test_unknown_status_rejected(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_log(path, make_header(budget=1), make_records(1))
        lines = Path(path).read_text().splitlines()
        rec = json.loads(lines[1])
        rec["status"] = "maybe"
        Path(path).write_text(lines[0] + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(LogError, match="unknown status"):
            read_log(path)

    def test_gap_in_iterations_rejected(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        records = make_records(3)
        records[2].iteration = 5
        write_log(path, make_header(), records)
        with pytest.raises(LogError, match="consecutive"):
            read_log(path)

    def test_count_must_match_declared_budget(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_log(path, make_header(budget=5), make_records(3))
        with pytest.raises(LogError, match="budget"):
            read_log(path)

    @pytest.mark.parametrize("budget,n", [(0, 0), (-1, 0), (0, 1)])
    def test_budget_below_1_refused_at_the_header(self, budget, n, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_log(path, make_header(budget=budget), make_records(n))
        with pytest.raises(LogError, match=f"header declares budget {budget}; a run holds at least 1 trial$"):
            read_log(path)

    def test_header_space_that_does_not_parse(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        header = make_header()
        header.space = {"dimensions": [{"name": "x", "kind": "real", "low": 1.0, "high": 0.0}]}
        write_log(path, header, make_records(3))
        with pytest.raises(LogError, match="header space does not parse: x: low must not exceed high$"):
            read_log(path)


    def test_header_without_a_profile_reads_as_one_without(self, tmp_path):
        header = make_header(budget=1).to_dict()
        del header["profile"]
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps(header) + "\n" + _record_line(make_records(1)[0]) + "\n")
        assert read_log(str(path))[0].profile is None


    def test_a_negative_seed_is_refused_at_the_header(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        header = make_header(budget=1)
        header.seed = -1
        write_log(path, header, make_records(1))
        with pytest.raises(LogError, match=r"run.jsonl: header declares seed -1; a run's seed is at least 0$"):
            read_log(path)


# each field of a trial (line 1) and of a header (line 0): a value of the
# wrong JSON type and its message, then the message for the field missing,
# None where the field may be absent
_FIELD_CASES = [
    (1, "iteration", True, "trial 1: iteration must be an int, got True", "trial 1: missing 'iteration'"),
    (1, "values", 7, "trial 1: values must be a list, got 7", "trial 1: missing 'values'"),
    (1, "score", True, "trial 1: score must be a number, got True", "trial 1: missing 'score'"),
    (1, "phase", 7, "trial 1: phase must be a string, got 7", "trial 1: missing 'phase'"),
    (1, "status", 7, "trial 1: status must be a string, got 7", "trial 1: missing 'status'"),
    (1, "wall_time", True, "trial 1: wall_time must be a number, got True", "trial 1: missing 'wall_time'"),
    (1, "error", 7, "trial 1: error must be a string, got 7", None),
    (0, "strategy", 7, "bad header record: strategy must be a string, got 7", "bad header record: missing 'strategy'"),
    (0, "budget", True, "bad header record: budget must be an int, got True", "bad header record: missing 'budget'"),
    (0, "init", True, "bad header record: init must be an int, got True", "bad header record: missing 'init'"),
    (0, "seed", True, "bad header record: seed must be an int, got True", "bad header record: missing 'seed'"),
    (0, "objective", 7, "bad header record: objective must be a string, got 7", "bad header record: missing 'objective'"),
    (0, "space", 7, "bad header record: space must be an object, got 7", "bad header record: missing 'space'"),
    (0, "space_digest", 7, "bad header record: space_digest must be a string, got 7",
     "bad header record: missing 'space_digest'"),
    (0, "profile", 7, "bad header record: profile must be an object or null, got 7", None),
    (0, "options", 7, "bad header record: options must be an object, got 7", "bad header record: missing 'options'"),
]


@pytest.mark.parametrize(
    "line, key, wrong, wrong_message, missing_message",
    _FIELD_CASES,
    ids=[("header-" if line == 0 else "trial-") + key for line, key, *_ in _FIELD_CASES],
)
def test_each_field_names_its_wrong_type_and_its_absence(tmp_path, line, key, wrong, wrong_message, missing_message):
    path = tmp_path / "run.jsonl"
    write_log(str(path), make_header(budget=1), make_records(1))
    original = [json.loads(text) for text in path.read_text().splitlines()]
    for edit, message in ((wrong, wrong_message), (None, missing_message)):
        lines = [dict(d) for d in original]
        if edit is None:
            lines[line].pop(key, None)
        else:
            lines[line][key] = edit
        path.write_text("".join(json.dumps(d) + "\n" for d in lines))
        if message is None:
            read_log(str(path))
        else:
            with pytest.raises(LogError, match=re.escape(f"run.jsonl: {message}") + "$"):
                read_log(str(path))


# a header space entry with a field Dimension does not declare, or without
# its name or its kind
@pytest.mark.parametrize(
    "entry, message",
    [
        ({"name": "x", "kind": "real", "low": 0.0, "high": 1.0, "colour": "red"}, "unknown dimension fields: ['colour']"),
        ({"kind": "real", "low": 0.0, "high": 1.0}, "dimension name must be a non-empty string"),
        ({"name": "x", "low": 0.0, "high": 1.0}, "x: unknown kind ''"),
    ],
    ids=["unknown-field", "missing-name", "missing-kind"],
)
def test_a_header_space_entry_names_its_fault(tmp_path, entry, message):
    header = make_header(budget=1).to_dict()
    header["space"] = {"dimensions": [entry]}
    path = tmp_path / "run.jsonl"
    path.write_text(json.dumps(header) + "\n" + _record_line(make_records(1)[0]) + "\n")
    with pytest.raises(LogError, match=re.escape(f"run.jsonl: header space does not parse: {message}") + "$"):
        read_log(str(path))


# a header profile a run does not write, on the one-dimension UNIT_SPACE: one
# on a strategy but wrs, a field more or fewer, and each list with a wrong
# type, a wrong length or an entry out of its range
_PROBS = "header profile probs must be 1 numbers in (0, 1], one of them 1"
_KMINS = "header profile k_mins must be 1 ints of at least 0"
_WEIGHTS = "header profile weights must be null or 1 finite numbers of at least 0"
_PROFILE_CASES = {
    "on-an-rs-header": ("rs", {}, "header profile for strategy rs; only wrs writes a profile"),
    "probs-alone": ("wrs", {"probs": "x", "weights": "drop", "k_mins": "drop"},
                    "header profile fields ['probs']; a profile holds exactly weights, probs and k_mins"),
    "a-field-more": ("wrs", {"extra": 1},
                     "header profile fields ['extra', 'k_mins', 'probs', 'weights']; a profile holds exactly weights, probs and k_mins"),
    "probs-a-string": ("wrs", {"probs": "x"}, _PROBS),
    "probs-too-long": ("wrs", {"probs": [1.0, 1.0]}, _PROBS),
    "probs-without-a-1": ("wrs", {"probs": [0.5]}, _PROBS),
    "probs-above-1": ("wrs", {"probs": [1.5]}, _PROBS),
    "probs-a-bool": ("wrs", {"probs": [True]}, _PROBS),
    "kmins-fractional": ("wrs", {"k_mins": [2.5]}, _KMINS),
    "kmins-a-bool": ("wrs", {"k_mins": [True]}, _KMINS),
    "kmins-negative": ("wrs", {"k_mins": [-1]}, _KMINS),
    "kmins-null": ("wrs", {"k_mins": None}, _KMINS),
    "weights-negative": ("wrs", {"weights": [-1.0]}, _WEIGHTS),
    "weights-infinite": ("wrs", {"weights": [math.inf]}, _WEIGHTS),
    "weights-of-401-digits": ("wrs", {"weights": [10**400]}, _WEIGHTS),
    "weights-empty": ("wrs", {"weights": []}, _WEIGHTS),
}


@pytest.mark.parametrize("case", list(_PROFILE_CASES))
def test_a_header_profile_names_its_fault(tmp_path, case):
    strategy, edits, message = _PROFILE_CASES[case]
    profile = {"weights": [40.0], "probs": [1.0], "k_mins": [5]}
    profile.update(edits)
    profile = {key: value for key, value in profile.items() if value != "drop"}
    path = tmp_path / "run.jsonl"
    write_log(str(path), make_header(strategy=strategy, profile=profile), make_records(3))
    with pytest.raises(LogError, match=re.escape(f"run.jsonl: {message}") + "$"):
        read_log(str(path))


@pytest.mark.parametrize("profile", [
    None,
    {"weights": None, "probs": [1.0], "k_mins": [0]},
    {"weights": [0], "probs": [1], "k_mins": [10**400]},
])
def test_a_header_profile_a_run_can_write_reads(tmp_path, profile):
    path = tmp_path / "run.jsonl"
    write_log(str(path), make_header(strategy="wrs", profile=profile), make_records(3))
    assert read_log(str(path))[0].profile == profile


class TestFingerprint:
    def test_wall_time_excluded(self):
        a = TrialRecord(iteration=1, values=(1,), score=2.0, phase="rs", status="evaluated", wall_time=0.123)
        b = TrialRecord(iteration=1, values=(1,), score=2.0, phase="rs", status="evaluated", wall_time=9.876)
        assert record_fingerprint(a) == record_fingerprint(b)

    def test_phase_optionally_excluded(self):
        a = TrialRecord(iteration=1, values=(1,), score=2.0, phase="rs", status="evaluated", wall_time=0.0)
        b = TrialRecord(iteration=1, values=(1,), score=2.0, phase="wrs", status="evaluated", wall_time=0.0)
        assert record_fingerprint(a) != record_fingerprint(b)
        fa, fb = record_fingerprint(a), record_fingerprint(b)
        del fa["phase"], fb["phase"]
        assert fa == fb

    def test_score_and_values_still_matter(self):
        a = TrialRecord(iteration=1, values=(1,), score=2.0, phase="rs", status="evaluated", wall_time=0.0)
        b = TrialRecord(iteration=1, values=(2,), score=2.0, phase="rs", status="evaluated", wall_time=0.0)
        assert record_fingerprint(a) != record_fingerprint(b)


def test_float_values_round_trip_exactly(tmp_path):
    path = str(tmp_path / "run.jsonl")
    tricky = 0.1 + 0.2
    rec = TrialRecord(iteration=1, values=(tricky,), score=math.pi, phase="rs", status="evaluated", wall_time=0.0)
    write_log(path, make_header(budget=1), [rec])
    _, records = read_log(path)
    assert records[0].values[0] == tricky
    assert records[0].score == math.pi


@pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\u0085"])
def test_unicode_line_separators_in_strings_round_trip(tmp_path, sep):
    # json writes these raw (ensure_ascii=False); only "\n" ends a log line
    path = str(tmp_path / "run.jsonl")
    header = make_header(budget=2, space={"dimensions": [{"name": "c", "kind": "cat", "values": [f"a{sep}b", "z"]}]})
    records = [
        TrialRecord(iteration=1, values=(f"a{sep}b",), score=1.0, phase="rs", status="evaluated", wall_time=0.0),
        TrialRecord(iteration=2, values=("z",), score=float("-inf"), phase="rs", status="failed", wall_time=0.0, error=f"exit{sep}3"),
    ]
    write_log(path, header, records)
    assert sep in Path(path).read_text(encoding="utf-8")
    got_header, got_records = read_log(path)
    assert got_header == header
    assert got_records == records


def test_a_lone_carriage_return_between_tokens_is_whitespace(tmp_path):
    # lines end at "\n" only, so a CR within a line is JSON whitespace
    path = str(tmp_path / "run.jsonl")
    write_log(path, make_header(budget=2), make_records(2))
    text = Path(path).read_text(encoding="utf-8")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text.replace(', "score"', ',\r"score"', 1))
    assert read_log(path) == (make_header(budget=2), make_records(2))


def test_a_crlf_log_reads_as_its_lf_original(tmp_path):
    path = str(tmp_path / "run.jsonl")
    write_log(path, make_header(budget=3), make_records(3))
    text = Path(path).read_text(encoding="utf-8")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text.replace("\n", "\r\n") + "\r\n")  # a blank CRLF line at the end too
    assert read_log(path) == (make_header(budget=3), make_records(3))


def test_read_log_holds_little_more_than_its_records(tmp_path):
    # one line at a time: no copy of the text, its lines or their payloads
    space = {"dimensions": [{"name": f"r{i}", "kind": "real", "low": 0.0, "high": 1.0} for i in range(3)]
             + [{"name": f"n{i}", "kind": "int", "low": 0, "high": 9} for i in range(3)]}
    rng = np.random.default_rng(0)
    records = [
        TrialRecord(iteration=i, values=(*rng.random(3).tolist(), *map(int, rng.integers(0, 10, 3))),
                    score=float(rng.random()), phase="rs", status="evaluated", wall_time=float(rng.random()))
        for i in range(1, 2001)
    ]
    path = str(tmp_path / "run.jsonl")
    write_log(path, make_header(budget=2000, space=space), records)
    del records
    read_log(path)  # any first-call allocation happens outside the measurement
    tracemalloc.start()
    try:
        got = read_log(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(got[1]) == 2000
    assert peak <= 1.5 * held, (held, peak)


_json_dumps_kwargs = dict(ensure_ascii=False, separators=(", ", ": "))
_floats = st.floats() | st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 1.5e-7))
_ints = st.integers() | st.integers(2**1024, 2**1100) | st.integers(-(2**1100), -(2**1024))
_texts = st.text() | st.sampled_from(('say "hi"', "back\\slash", "tab\tnew\nline", "\u00e9\u4e2d\U0001f600", "\x00\x1f", "\u2028"))
_values = st.one_of(_ints, _floats, st.booleans(), st.none(), _texts, _floats.map(np.float64))


@settings(max_examples=500, deadline=None)
@given(
    iteration=_ints | st.booleans(),
    values=st.lists(_values, max_size=8).map(tuple),
    score=_floats | _ints | _floats.map(np.float64),
    phase=_texts,
    status=_texts,
    wall_time=_floats,
    error=st.none() | _texts,
)
def test_record_line_is_byte_identical_to_json_dumps(iteration, values, score, phase, status, wall_time, error):
    rec = TrialRecord(iteration, values, score, phase, status, wall_time, error)
    assert _record_line(rec) == json.dumps(rec.to_dict(), **_json_dumps_kwargs)


def test_record_line_covers_each_value_type():
    rec = TrialRecord(
        iteration=7,
        values=(True, None, 'q"uote', "\u00e9", np.float64(0.1), 2**1030, math.inf, -math.inf, math.nan, -0.0, 3, 2.5),
        score=-0.0,
        phase="wrs",
        status="failed",
        wall_time=1e-7,
        error='exit "2"',
    )
    assert _record_line(rec) == json.dumps(rec.to_dict(), **_json_dumps_kwargs)
    plain = TrialRecord(iteration=1, values=(-0.0, 1e16, 3, 0.1 + 0.2), score=2.0, phase="rs", status="evaluated", wall_time=0.5)
    assert _record_line(plain) == json.dumps(plain.to_dict(), **_json_dumps_kwargs)


def test_to_dict_keeps_declaration_order():
    # to_dict spells the field list a second time; it must follow the class
    names = [f.name for f in fields(TrialRecord)]
    failed = TrialRecord(iteration=1, values=(0.5,), score=-math.inf, phase="rs", status="failed", wall_time=0.0, error="exit 3")
    assert list(failed.to_dict()) == names
    ok = TrialRecord(iteration=2, values=(0.5,), score=1.0, phase="rs", status="evaluated", wall_time=0.0)
    assert list(ok.to_dict()) == [n for n in names if n != "error"]


def _edge_dimension(i: int, draw) -> Dimension:
    """A degenerate dimension, or a unit range that holds 0 and 1 (and so
    the numeric values of false and true)."""
    name = f"d{i}"
    kind = draw(st.sampled_from(("int", "real", "cat", "weighted", "unit-int", "unit-real")))
    if kind == "int":
        low = draw(st.integers(-3, 3))
        return Dimension(name=name, kind="int", low=low, high=low)
    if kind == "real":
        low = draw(st.floats(-10, 10))
        return Dimension(name=name, kind="real", low=low, high=low)
    if kind == "cat":
        return Dimension(name=name, kind="cat", values=("v0",))
    if kind == "weighted":
        return Dimension(name=name, kind="cat", values=("v0", "v1"), weights=(draw(st.floats(1e-3, 1e3)), 1.0))
    return Dimension(name=name, kind=kind[5:], low=0, high=1)


@st.composite
def _log_spaces(draw) -> SearchSpace:
    if draw(st.booleans()):
        return draw(spaces())
    n = draw(st.integers(1, 4))
    return SearchSpace(tuple(_edge_dimension(i, draw) for i in range(n)))


def _value(dim: Dimension, draw):
    """A value of dim: a listed value, a bound or the middle of the range."""
    if dim.kind == "cat":
        return draw(st.sampled_from(dim.values))
    if dim.kind == "int":
        return draw(st.integers(dim.low, dim.high))
    return draw(st.sampled_from((dim.low, dim.high, (dim.low + dim.high) / 2)))


def _stray(dim: Dimension, draw):
    """A value JSON decoding can produce that is not a value of dim, or
    that only the type rules exclude."""
    if dim.kind == "cat":
        return draw(st.sampled_from((None, "zz", 0, True, math.nan, [dim.values[0]], {"v": 0})))
    if dim.kind == "int":
        return draw(st.sampled_from((float(dim.low), True, False, dim.low - 1, dim.high + 1, math.nan, None, "0", [dim.low])))
    return draw(st.sampled_from((
        math.nan, math.inf, -math.inf, True, False, dim.low - 1, dim.high + 1,
        math.floor(dim.low), math.ceil(dim.high), 1e300, None, "0", [dim.low],
    )))


@pytest.mark.parametrize(
    "kind, stray",
    [("real", v) for v in (math.nan, math.inf, True, 2.0, "0.5", None, [0.5])]
    + [("int", v) for v in (1.0, True, 2, None)]
    + [("cat", v) for v in ("zz", None, ["a"])],
)
def test_a_stray_in_the_middle_of_a_column_is_named(tmp_path, kind, stray):
    dim = {"name": "x", "kind": kind, **({"values": ["a", "b"]} if kind == "cat" else {"low": 0, "high": 1})}
    good = {"real": 0.5, "int": 1, "cat": "a"}[kind]
    records = [
        TrialRecord(iteration=i, values=(v,), score=0.5, phase="rs", status="evaluated", wall_time=0.0)
        for i, v in enumerate((good, stray, good), start=1)
    ]
    path = str(tmp_path / "run.jsonl")
    write_log(path, make_header(space={"dimensions": [dim]}), records)
    with pytest.raises(LogError, match=re.escape(f"trial 2: x={stray!r} is not a value of the space") + "$"):
        read_log(path)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), space=_log_spaces())
def test_a_column_is_in_a_dimension_exactly_when_each_of_its_values_is(data, space):
    # read_log tests whole columns and scans rows only when a column fails,
    # so a column must fail exactly when one of its values does
    for dim in space.dimensions:
        column = [_value(dim, data.draw) for _ in range(data.draw(st.integers(1, 6)))]
        assert values_in_dimension(dim, column)
        for _ in range(data.draw(st.integers(0, 3))):
            column[data.draw(st.integers(0, len(column) - 1))] = _stray(dim, data.draw)
        assert values_in_dimension(dim, column) == all(values_in_dimension(dim, (v,)) for v in column)


def _refusal(space: SearchSpace, rows: list) -> str | None:
    """The message read_log must give for a log of these rows, or None: the
    first record of the wrong length, else the first record that
    validate_candidate refuses, in its words."""
    d = len(space)
    for k, row in enumerate(rows, start=1):
        if len(row) != d:
            return f"trial {k}: {len(row)} values, but the space has {d} dimensions"
    for k, row in enumerate(rows, start=1):
        try:
            assert validate_candidate(space, row) == tuple(row)
        except SpaceError as exc:
            return f"trial {k}: {exc}"
    return None


def _write_rows(path: str, space: SearchSpace, rows: list) -> None:
    header = RunHeader(
        strategy="rs", budget=len(rows), init=0, seed=0, objective="builtin:sphere",
        space=space_to_dict(space), space_digest=space_digest(space),
    )
    write_log(path, header, [
        TrialRecord(iteration=k, values=tuple(values), score=0.5, phase="rs", status="evaluated", wall_time=0.0)
        for k, values in enumerate(rows, start=1)
    ])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), space=_log_spaces())
def test_read_log_and_validate_candidate_refuse_a_record_with_the_same_text(tmp_path, data, space):
    n, d = data.draw(st.integers(1, 6)), len(space)
    rows = [[_value(dim, data.draw) for dim in space.dimensions] for _ in range(n)]
    for _ in range(data.draw(st.integers(0, 3))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, d - 1))
        rows[i][j] = _stray(space.dimensions[j], data.draw)
    if data.draw(st.integers(0, 9)) == 0:  # a record one value short or long
        i = data.draw(st.integers(0, n - 1))
        rows[i] = rows[i][:-1] if data.draw(st.booleans()) else rows[i] + [rows[i][-1]]
    path = str(tmp_path / "run.jsonl")
    _write_rows(path, space, rows)
    expected = _refusal(space, rows)
    if expected is None:
        assert [list(r.values) for r in read_log(path)[1]] == rows
    else:
        with pytest.raises(LogError) as got:
            read_log(path)
        assert str(got.value) == f"{path}: {expected}"


def test_a_categorical_value_must_match_its_listed_value_in_type(tmp_path):
    # true and 1.0 compare equal to the listed 1, but are not it
    space = space_from_dict({"dimensions": [{"name": "c", "kind": "cat", "values": [1, "x"]}]})
    path = str(tmp_path / "run.jsonl")
    _write_rows(path, space, [[1], ["x"], [1]])
    assert [r.values for r in read_log(path)[1]] == [(1,), ("x",), (1,)]
    assert validate_candidate(space, (1,)) == (1,)
    for stray in (True, 1.0):
        _write_rows(path, space, [[1], [stray], [1]])
        with pytest.raises(LogError, match=re.escape(f"trial 2: c={stray!r} is not a value of the space") + "$"):
            read_log(path)
        with pytest.raises(SpaceError, match=re.escape(f"c={stray!r} is not a value of the space") + "$"):
            validate_candidate(space, (stray,))


@pytest.mark.parametrize(
    "rows, expected",
    [
        # strays in two columns: the earlier record is named, not the earlier column
        ([[0.5, 1], [0.5, 9], [7.0, 1]], "trial 2: y=9 is not a value of the space"),
        # a wrong length anywhere is named before any stray
        ([[0.5, 1], [7.0, 1], [0.5]], "trial 3: 1 values, but the space has 2 dimensions"),
        ([[0.5, 9], [0.5, 1, 1]], "trial 2: 3 values, but the space has 2 dimensions"),
    ],
)
def test_read_log_names_the_first_bad_record(tmp_path, rows, expected):
    space = space_from_dict({"dimensions": [
        {"name": "x", "kind": "real", "low": 0, "high": 1},
        {"name": "y", "kind": "int", "low": 0, "high": 1},
    ]})
    path = str(tmp_path / "run.jsonl")
    _write_rows(path, space, rows)
    assert _refusal(space, rows) == expected
    with pytest.raises(LogError, match=re.escape(expected) + "$"):
        read_log(path)


def test_an_int_past_a_real_bound_is_refused_though_float64_rounds_it_onto_it(tmp_path):
    # float(2**53 + 1) == 2**53, so a comparison in float64 would accept it
    space = space_from_dict({"dimensions": [{"name": "x", "kind": "real", "low": 0, "high": 2**53}]})
    path = str(tmp_path / "run.jsonl")
    _write_rows(path, space, [[0.5], [2**53], [2**53 + 1]])
    message = f"x={2**53 + 1} is not a value of the space"
    with pytest.raises(LogError, match=re.escape(f"trial 3: {message}") + "$"):
        read_log(path)
    with pytest.raises(SpaceError, match=re.escape(message) + "$"):
        validate_candidate(space, (2**53 + 1,))
