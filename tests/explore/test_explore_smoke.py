"""End-to-end exploration smoke: the acceptance surface of the subsystem.

* the faulty Section 2.2 stack's violation is rediscovered from the
  default budget with **no hand-crafted crash schedule or delay rules**,
  shrunk, and its repro replays to the same checker verdict;
* correct stacks pass the same bounded exploration clean;
* the multiprocessing fan-out (one spec per worker) and the
  ResultSet/report integration produce the same rows as the serial path.

The full registry matrix runs in CI's ``smoke`` job; here a
representative subset keeps the tier-1 suite fast.
"""

import json
import re

import pytest

from repro.checkers.abcast import check_abcast
from repro.core.exceptions import ProtocolViolationError
from repro.explore import (
    explore,
    explore_many,
    explore_spec,
    outcomes_result_set,
    registry_explore_specs,
    replay,
)
from repro.harness.__main__ import main
from repro.obs.export import validate_chrome_trace


class TestFaultyStackRediscovery:
    def test_violation_found_shrunk_and_replayable(self):
        spec = explore_spec("faulty")
        outcome = explore(spec)
        assert not outcome.ok, outcome.summary()
        violation = outcome.violations[0]
        # The Section 2.2 class: validity or uniform agreement of
        # atomic broadcast, caused by a crash that loses message copies.
        assert violation.prop in (
            "Abcast Validity", "Abcast Uniform agreement",
        )
        assert any(d.op == "c" for d in violation.deviations), (
            "the counterexample must involve an injected crash"
        )
        # Shrunk: 1-minimal (dropping any deviation loses the bug).
        system, record = replay(spec, violation.repro)
        assert record.violation is not None
        assert record.violation.prop == violation.prop
        # The full trace is checker-visible, end to end.
        with pytest.raises(ProtocolViolationError):
            check_abcast(system.trace, system.config)

    def test_found_within_a_small_budget(self):
        outcome = explore(explore_spec("faulty", budget=120))
        assert not outcome.ok
        assert outcome.schedules <= 120

    def test_all_faulty_consensus_variants_fail(self):
        for consensus in ("ct", "mr"):
            outcome = explore(explore_spec(
                f"faulty-ids/{consensus}/sender", budget=500,
            ))
            assert not outcome.ok, consensus


class TestCorrectStacksExploreClean:
    @pytest.mark.parametrize("stack", [
        "indirect", "urb", "on-messages", "sequencer",
    ])
    def test_preset_stacks_clean(self, stack):
        outcome = explore(explore_spec(stack, budget=80, stop_after=0))
        assert outcome.ok, outcome.summary()
        assert outcome.schedules == 80 or outcome.exhausted

    def test_registry_matrix_enumerates_every_allowed_combo(self):
        specs = registry_explore_specs(n=3, budget=10)
        labels = {spec.label for spec in specs}
        assert "faulty-ids/ct/sender" in labels
        assert "indirect/ct-indirect/flood" in labels
        assert "urb-ids/ct" in labels
        assert "sequencer/none" in labels
        assert len(specs) >= 15


def _rows(outcomes):
    rows = outcomes_result_set(outcomes).to_rows()
    for row in rows:
        del row["wall_seconds"]
    return rows


def _without_wall_clock(out):
    """CLI output minus the table's last (wall_seconds) column and the
    closing wall-time line."""
    return [
        re.sub(r"[|+][^|+]*$", "", line)
        for line in out.splitlines()
        if not line.startswith("[done in")
    ]


class TestParallelFanOut:
    def test_explore_many_runs_one_spec_per_worker(self):
        specs = [
            explore_spec("faulty", budget=120),
            explore_spec("urb", budget=30, stop_after=0),
        ]
        outcomes = explore_many(specs, jobs=2)
        assert not outcomes[0].ok
        assert outcomes[1].ok
        # The pool changes wall time, never an answer.
        assert _rows(outcomes) == _rows([explore(spec) for spec in specs])

    def test_cli_jobs_prints_the_serial_table(self, capsys):
        argv = ["explore", "--stack", "faulty", "--stack", "urb",
                "--budget", "60"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        pooled = capsys.readouterr().out
        assert "5:c2" in serial
        assert _without_wall_clock(pooled) == _without_wall_clock(serial)


class TestResultsPipeline:
    def test_outcomes_flow_through_resultset(self):
        outcomes = [explore(explore_spec("faulty", budget=120))]
        rs = outcomes_result_set(outcomes)
        rows = rs.to_rows()
        assert len(rows) == 1
        row = rows[0]
        assert row["stack"] == "faulty"
        assert row["violations"] == 1
        assert row["property"].startswith("Abcast")
        assert row["repro"]
        assert "schedules" in row and row["schedules"] > 0
        assert rs.to_csv().splitlines()[0].startswith("stack,")


class TestExploreCli:
    def test_explore_verb_finds_and_prints_the_repro(self, capsys):
        assert main(["explore", "--stack", "faulty"]) == 0
        out = capsys.readouterr().out
        assert "faulty" in out
        assert "Abcast" in out
        assert "--replay" in out

    @pytest.mark.parametrize("export", [False, True])
    def test_replay_verb_reports_the_verdict_and_exits_nonzero(
        self, export, tmp_path, capsys
    ):
        trace = tmp_path / "replay.json"
        argv = ["explore", "--stack", "faulty", "--replay", "5:c2"]
        if export:
            argv += ["--export-trace", str(trace)]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "violated" in out
        assert "adelivered" in out
        if export:
            doc = json.loads(trace.read_text(encoding="utf-8"))
            validate_chrome_trace(doc)
            assert {"B", "E"} <= {e["ph"] for e in doc["traceEvents"]}

    def test_replay_of_the_default_schedule_is_clean(self, capsys):
        assert main(["explore", "--stack", "faulty", "--replay", ""]) == 0
        assert "properties hold" in capsys.readouterr().out

    def test_unknown_stack_and_strategy_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["explore", "--stack", "nope"])
        with pytest.raises(SystemExit):
            main(["explore", "--strategy", "bfs"])

    def test_csv_format(self, capsys):
        assert main([
            "explore", "--stack", "faulty", "--budget", "120",
            "--format", "csv",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("stack,")
        assert len(lines) == 2


class TestPackageLayout:
    def test_the_explore_subpackage_is_a_module_not_a_function(self):
        # The top-level package re-exports names from ``repro.explore``
        # but not the function ``explore``: under the subpackage's own
        # name it would shadow the module, and dotted imports through
        # it would fail.
        import types

        import repro
        import repro.explore.executor as executor

        assert isinstance(repro.explore, types.ModuleType)
        assert repro.explore.executor is executor
        assert callable(repro.explore.explore)
