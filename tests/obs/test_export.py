"""Chrome trace rendering, the validator, and the ResultSet tables.

The validator is what CI trusts: every exported trace must pass it, so
its failure modes (missing keys, non-monotone timestamps, mismatched
B/E nesting) are each pinned here against hand-built documents.
"""

import json

import pytest

from repro.obs.export import (
    chrome_trace,
    spans_result_set,
    telemetry_result_set,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.spans import Span
from repro.obs.telemetry import Telemetry


def span(sid, parent, kind, name, process, start, end, group=0):
    return Span(sid=sid, parent=parent, kind=kind, name=name,
                process=process, group=group, start=start, end=end)


FOREST = (
    span(0, None, "abcast", "m0.1", 0, 0.00, 0.10),
    span(1, 0, "adeliver", "adeliver p0", 0, 0.02, 0.06),
    span(2, None, "consensus", "consensus k=0", 0, 0.01, 0.09),
    span(3, 2, "round", "round 1", 0, 0.01, 0.05),
    span(4, None, "crash", "crash p2", 2, 0.04, 0.04),
)


class TestChromeTrace:
    def test_renders_and_validates(self):
        doc = chrome_trace(FOREST)
        validate_chrome_trace(doc)
        phases = {event["ph"] for event in doc["traceEvents"]}
        assert {"B", "E", "M"} <= phases
        assert "i" in phases  # the zero-width crash marker
        assert doc["displayTimeUnit"] == "ms"

    def test_ts_is_microseconds(self):
        doc = chrome_trace(FOREST)
        begins = [e for e in doc["traceEvents"] if e["ph"] == "B"]
        assert any(e["ts"] == pytest.approx(20000.0) for e in begins)

    def test_single_group_process_is_named_system(self):
        doc = chrome_trace(FOREST)
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {"system"}

    def test_multi_group_processes_and_overrides(self):
        forest = FOREST + (span(5, None, "abcast", "m1.1", 0, 0.0, 0.1,
                                group=1),)
        doc = chrome_trace(forest, group_names={1: "shard B"})
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {"group 0", "shard B"}

    def test_overlapping_spans_spill_to_sublanes(self):
        # Two same-lane spans that overlap without nesting cannot share
        # a B/E stack; the second must land on a numbered sub-lane.
        forest = (
            span(0, None, "abcast", "m0.1", 0, 0.00, 0.10),
            span(1, None, "abcast", "m0.2", 0, 0.05, 0.20),
        )
        doc = chrome_trace(forest)
        validate_chrome_trace(doc)
        thread_names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert thread_names == {"p0 abcast", "p0 abcast ·2"}

    def test_nested_spans_share_a_lane(self):
        forest = (
            span(0, None, "abcast", "m0.1", 0, 0.00, 0.10),
            span(1, 0, "abcast", "inner", 0, 0.02, 0.06),
        )
        doc = chrome_trace(forest)
        tids = {
            e["tid"] for e in doc["traceEvents"] if e["ph"] in ("B", "E")
        }
        assert len(tids) == 1

    def test_telemetry_becomes_counter_tracks(self):
        telemetry = Telemetry()
        telemetry.record("queue.depth", 0.01, 4.0)
        telemetry.record("queue.depth", 0.02, 7.0)
        doc = chrome_trace(FOREST, telemetry=telemetry)
        validate_chrome_trace(doc)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert [c["args"]["value"] for c in counters] == [4.0, 7.0]
        span_pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "B"}
        assert all(c["pid"] not in span_pids for c in counters)

    def test_write_round_trips_through_json(self, tmp_path):
        path = tmp_path / "trace.json"
        doc = write_chrome_trace(str(path), FOREST)
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(doc))
        validate_chrome_trace(loaded)


class TestValidator:
    def _minimal(self):
        return {
            "traceEvents": [
                {"name": "x", "ph": "B", "ts": 1.0, "pid": 0, "tid": 0},
                {"name": "x", "ph": "E", "ts": 2.0, "pid": 0, "tid": 0},
            ]
        }

    def test_accepts_minimal_document(self):
        validate_chrome_trace(self._minimal())

    def test_rejects_non_mapping(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace([])

    def test_rejects_missing_key(self):
        doc = self._minimal()
        del doc["traceEvents"][0]["ts"]
        with pytest.raises(ValueError, match="missing 'ts'"):
            validate_chrome_trace(doc)

    def test_rejects_non_monotone_ts(self):
        doc = self._minimal()
        doc["traceEvents"][0]["ts"] = 5.0
        with pytest.raises(ValueError, match="monotone"):
            validate_chrome_trace(doc)

    def test_rejects_unmatched_end(self):
        doc = {"traceEvents": [
            {"name": "x", "ph": "E", "ts": 1.0, "pid": 0, "tid": 0},
        ]}
        with pytest.raises(ValueError, match="empty lane"):
            validate_chrome_trace(doc)

    def test_rejects_wrong_name_end(self):
        doc = self._minimal()
        doc["traceEvents"][1]["name"] = "y"
        with pytest.raises(ValueError, match="does not match"):
            validate_chrome_trace(doc)

    def test_rejects_unclosed_begin(self):
        doc = {"traceEvents": [
            {"name": "x", "ph": "B", "ts": 1.0, "pid": 0, "tid": 0},
        ]}
        with pytest.raises(ValueError, match="unclosed"):
            validate_chrome_trace(doc)

    def test_rejects_unknown_phase(self):
        doc = {"traceEvents": [
            {"name": "x", "ph": "Q", "ts": 1.0, "pid": 0, "tid": 0},
        ]}
        with pytest.raises(ValueError, match="phase"):
            validate_chrome_trace(doc)


class TestResultSets:
    def test_spans_table_shape(self):
        table = spans_result_set(FOREST)
        assert table.column("sid") == (0, 1, 2, 3, 4)
        assert table.column("kind")[4] == "crash"
        assert table.column("duration")[0] == pytest.approx(0.10)
        csv = table.to_csv()
        assert csv.splitlines()[0].startswith("sid,parent,kind,name")
        assert len(csv.splitlines()) == 1 + len(FOREST)

    def test_telemetry_table_is_long_format(self):
        telemetry = Telemetry()
        telemetry.record("b", 0.1, 1.0)
        telemetry.record("a", 0.1, 2.0)
        telemetry.record("a", 0.2, 3.0)
        table = telemetry_result_set(telemetry)
        assert table.column("series") == ("a", "a", "b")
        assert table.column("value") == (2.0, 3.0, 1.0)
        assert json.loads(table.to_json())


class TestObsCli:
    def test_obs_verb_exports_a_valid_timeline(self, tmp_path, capsys):
        from repro.harness.__main__ import main

        chrome = tmp_path / "trace.json"
        telemetry = tmp_path / "telemetry.csv"
        spans = tmp_path / "spans.csv"
        assert main([
            "obs", "--stack", "indirect", "--period", "0.005",
            "--export", "chrome", str(chrome),
            "--export", "csv", str(telemetry),
            "--export", "spans-csv", str(spans),
        ]) == 0
        assert "exported spans-csv" in capsys.readouterr().out
        doc = json.loads(chrome.read_text(encoding="utf-8"))
        validate_chrome_trace(doc)
        assert {"B", "E"} <= {event["ph"] for event in doc["traceEvents"]}
        for table in (telemetry, spans):
            assert len(table.read_text(encoding="utf-8").splitlines()) > 1

    def test_obs_reads_stack_names_as_explore_does(self, monkeypatch):
        import repro.obs
        from repro.harness.__main__ import main

        class Built(Exception):
            pass

        stacks = []

        def capture(spec, period=None):
            stacks.append(spec.stack)
            raise Built

        monkeypatch.setattr(repro.obs, "observe_experiment", capture)
        for name in ("indirect", "indirect/ct-indirect",
                     "indirect/ct-indirect/sender"):
            with pytest.raises(Built):
                main(["obs", "--stack", name])
        assert stacks[0] == stacks[1] == stacks[2]
        assert stacks[0].rb == "sender"
