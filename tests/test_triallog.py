import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wrsopt.triallog import (
    SCHEMA_VERSION,
    LogError,
    RunHeader,
    TrialRecord,
    read_log,
    record_fingerprint,
    record_line,
    write_log,
)


def make_header(budget=3, strategy="rs", **kw):
    return RunHeader(
        strategy=strategy,
        budget=budget,
        init=0,
        seed=42,
        objective="builtin:sphere",
        space={"dimensions": [{"name": "x", "kind": "real", "low": 0.0, "high": 1.0}]},
        space_digest="0" * 64,
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
        first = json.loads(open(path).readline())
        assert first["kind"] == "header"
        assert first["schema"] == SCHEMA_VERSION

    def test_failed_trial_score_serializes_as_minus_infinity(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        rec = TrialRecord(iteration=1, values=(0.5,), score=float("-inf"), phase="rs", status="failed", wall_time=0.0, error="exit 3")
        write_log(path, make_header(budget=1), [rec])
        raw = open(path).read().splitlines()[1]
        assert "-Infinity" in raw
        _, records = read_log(path)
        assert records[0].score == float("-inf")
        assert records[0].error == "exit 3"

    def test_error_field_absent_unless_set(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_log(path, make_header(budget=1), make_records(1))
        raw = open(path).read().splitlines()[1]
        assert "error" not in json.loads(raw)

    def test_profile_round_trips(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        profile = {"weights": [40.0, 10.0], "probs": [1.0, 0.25], "k_mins": [5, 5]}
        write_log(path, make_header(strategy="wrs", profile=profile), make_records(3))
        header, _ = read_log(path)
        assert header.profile == profile

    def test_atomic_replace_leaves_no_tmp(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_log(path, make_header(), make_records(3))
        assert not (tmp_path / "run.jsonl.tmp").exists()


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
        header, first, second = open(path).read().splitlines()
        # line 2 is blank, line 3 is broken, line 4 is fine
        open(path, "w").write(header + "\n\n" + first[:-1] + "\n" + second + "\n")
        with pytest.raises(LogError, match="invalid JSON on line 3$"):
            read_log(path)

    def test_bytes_that_are_not_utf8_are_a_log_error(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_log(path, make_header(budget=1), make_records(1))
        with open(path, "ab") as fh:
            fh.write(b"\xff\n")
        with pytest.raises(LogError, match="not UTF-8"):
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
        lines = open(path).read().splitlines()
        rec = json.loads(lines[1])
        rec["status"] = "maybe"
        open(path, "w").write(lines[0] + "\n" + json.dumps(rec) + "\n")
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


class TestFingerprint:
    def test_wall_time_excluded(self):
        a = TrialRecord(iteration=1, values=(1,), score=2.0, phase="rs", status="evaluated", wall_time=0.123)
        b = TrialRecord(iteration=1, values=(1,), score=2.0, phase="rs", status="evaluated", wall_time=9.876)
        assert record_fingerprint(a) == record_fingerprint(b)

    def test_phase_optionally_excluded(self):
        a = TrialRecord(iteration=1, values=(1,), score=2.0, phase="rs", status="evaluated", wall_time=0.0)
        b = TrialRecord(iteration=1, values=(1,), score=2.0, phase="wrs", status="evaluated", wall_time=0.0)
        assert record_fingerprint(a) != record_fingerprint(b)
        assert record_fingerprint(a, with_phase=False) == record_fingerprint(b, with_phase=False)

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
    header = make_header(budget=2)
    header.space = {"dimensions": [{"name": "c", "kind": "cat", "values": [f"a{sep}b", "z"]}]}
    records = [
        TrialRecord(iteration=1, values=(f"a{sep}b",), score=1.0, phase="rs", status="evaluated", wall_time=0.0),
        TrialRecord(iteration=2, values=("z",), score=float("-inf"), phase="rs", status="failed", wall_time=0.0, error=f"exit{sep}3"),
    ]
    write_log(path, header, records)
    assert sep in open(path, encoding="utf-8").read()
    got_header, got_records = read_log(path)
    assert got_header == header
    assert got_records == records


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
    assert record_line(rec) == json.dumps(rec.to_dict(), **_json_dumps_kwargs)


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
    assert record_line(rec) == json.dumps(rec.to_dict(), **_json_dumps_kwargs)
    plain = TrialRecord(iteration=1, values=(-0.0, 1e16, 3, 0.1 + 0.2), score=2.0, phase="rs", status="evaluated", wall_time=0.5)
    assert record_line(plain) == json.dumps(plain.to_dict(), **_json_dumps_kwargs)
