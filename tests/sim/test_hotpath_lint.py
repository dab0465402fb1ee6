"""The allocation-discipline lint passes on the checked-in tree.

``tools/hotpath_lint.py`` is CI's guard on the event-core hot path
(``__slots__`` everywhere, no ``getattr``/dict literals in the run
loops and the per-event scheduling sites, a bare per-frame send path
and bare trace recorders, consensus phase bodies that
read constants instead of ``config``, closure-free wiring); running it under pytest too
means a regression fails the ordinary test suite as well, with the
lint's own diagnostics attached.
"""

from __future__ import annotations

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]


def test_hotpath_lint_passes():
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "tools" / "hotpath_lint.py")],
        capture_output=True,
        text=True,
        cwd=_ROOT,
        env={"PYTHONPATH": str(_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "OK" in proc.stdout, proc.stdout


def _lint_module():
    spec = importlib.util.spec_from_file_location(
        "hotpath_lint", _ROOT / "tools" / "hotpath_lint.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_drain_lint_names_a_getattr_planted_in_the_controlled_loop():
    source = (_ROOT / "src" / "repro" / "sim" / "engine.py").read_text()
    consult = "            op, index = scheduler.decide(time, ready)\n"
    assert consult in source
    planted = source.replace(
        consult,
        '            getattr(scheduler, "decide")\n' + consult,
    )
    lint = _lint_module()
    assert lint.drain_problems(
        ast.parse(source), "repro.sim.engine", "_run_controlled"
    ) == []
    problems = lint.drain_problems(
        ast.parse(planted), "repro.sim.engine", "_run_controlled"
    )
    assert len(problems) == 1
    assert "Engine._run_controlled: getattr() in a run loop" in problems[0]



def test_drain_lint_names_a_getattr_planted_in_a_scheduling_site():
    source = (_ROOT / "src" / "repro" / "sim" / "resources.py").read_text()
    push = "        queue = self._queue\n"
    assert push in source
    planted = source.replace(
        push, '        getattr(self, "engine")\n' + push, 1
    )
    lint = _lint_module()
    assert lint.drain_problems(
        ast.parse(source), "repro.sim.resources", "stage",
        "a scheduling site",
    ) == []
    problems = lint.drain_problems(
        ast.parse(planted), "repro.sim.resources", "stage",
        "a scheduling site",
    )
    assert len(problems) == 1
    assert "FifoResource.stage: getattr() in a scheduling site" in problems[0]

_GIVEN_BACK = """
class ContentionNetwork:
    def _enter_medium(self, frame, wire, recv):
        segment = self.topology.segment_of(frame.src)
        extra = self.pipeline.extra_delay(frame)
        stages = [wire, recv]
        if getattr(self, "routed", False):
            pass
        if self.pipeline.has_delay:
            extra = self.pipeline.extra_delay(frame)
"""


def test_frame_path_lint_names_each_way_of_giving_the_budget_back():
    problems = _lint_module().frame_path_problems(
        ast.parse(_GIVEN_BACK), "snippet", "_enter_medium"
    )
    assert [p.split(": ", 1)[1].split(" (")[0] for p in problems] == [
        "call on the topology per frame",
        "fault-pipeline call outside an armed/has_delay guard",
        "dict/list literal on the frame path",
        "getattr() on the frame path",
    ]


def test_recorder_lint_names_an_allocation_planted_in_a_trace_recorder():
    source = (_ROOT / "src" / "repro" / "sim" / "trace.py").read_text()
    append = "        self._kinds.append(ADELIVER)\n"
    assert source.count(append) == 1
    planted = source.replace(
        append, '        getattr(self, "sinks")\n        row = [ADELIVER]\n'
        + append,
    )
    lint = _lint_module()
    path = "the trace's record path"
    assert lint.frame_path_problems(
        ast.parse(source), "repro.sim.trace", "adeliver", path
    ) == []
    problems = lint.frame_path_problems(
        ast.parse(planted), "repro.sim.trace", "adeliver", path
    )
    assert [p.split(": ", 1)[1].split(" (")[0] for p in problems] == [
        "getattr() on the trace's record path",
        "dict/list literal on the trace's record path",
    ]
    assert all("Trace.adeliver" in problem for problem in problems)


_CONFIG_PER_STEP = """
class MrInstance:
    def _try_phase1(self):
        if not self._active:
            return
        c = self.service.config.coordinator(self.r)

class MrService:
    def _on_echo(self, frame):
        if self.has_decided(frame.body[0]):
            return

    def _phase2_quorum(self):
        return self.config.n - self.config.f
"""

#: ``CtInstance._try_phase4`` as it read while pid, coordinator and
#: quorum were re-derived per step through ``config``.
_CT_PHASE4_BEFORE = """
class CtInstance:
    @property
    def _active(self) -> bool:
        return self.proposed and not self.stopped and not self.service.process.crashed

    def _try_phase4(self) -> None:
        if not self._active:
            return
        svc = self.service
        r = self.r
        if (
            svc.pid != svc.config.coordinator(r)
            or r not in self.proposal_sent
            or r in self.phase4_done
        ):
            return
        if self.nacks.get(r):
            self.phase4_done.add(r)
            self._enter_round()
            return
        if len(self.acks.get(r, ())) >= svc.config.majority_quorum:
            self.phase4_done.add(r)
            svc._broadcast_decision(self.k, self.proposed_value[r])
"""


def _protocol_findings(source):
    problems = _lint_module().protocol_path_problems(
        ast.parse(source), "snippet"
    )
    findings = []
    for problem in problems:
        where, what = problem.split(": ", 1)
        findings.append((where.split(" ")[1], what.split(" (")[0]))
    return findings


def test_protocol_path_lint_names_config_reads_active_and_has_decided():
    # _phase2_quorum is not a per-step body: it runs once per service.
    assert _protocol_findings(_CONFIG_PER_STEP) == [
        ("MrInstance._try_phase1", "_active property per step"),
        ("MrInstance._try_phase1", "reads config per step"),
        ("MrService._on_echo", "has_decided() per frame"),
    ]


def test_protocol_path_lint_reports_the_config_reading_ct_phase():
    assert _protocol_findings(_CT_PHASE4_BEFORE) == [
        ("CtInstance._try_phase4", "_active property per step"),
        ("CtInstance._try_phase4", "reads config per step"),
        ("CtInstance._try_phase4", "reads config per step"),
    ]


#: The wiring closures as they read before the system could be copied.
_CLOSURE_WIRING = """
class Network:
    def attach(self, process, handlers):
        process.on_crash(lambda pid=process.pid: self._drop_in_flight(pid))
        process.on_crash(partial(self._drop_in_flight, process.pid))

def attach_machines(service):
    for pid in service.pids:
        def handler(message, _pid=pid):
            service.vote(_pid, message)

        service.abcasts[pid].on_adeliver(handler)
        service.abcasts[pid].on_adeliver(partial(handler, pid))
        service.abcasts[pid].on_adeliver(partial(_apply, pid))
    service.detector.on_change(functools.partial(lambda: None))
"""


def test_closure_lint_names_each_closure_handed_to_a_kept_registration():
    problems = _lint_module().closure_registration_problems(
        ast.parse(_CLOSURE_WIRING), "snippet"
    )
    assert [p.split(": ", 1)[1].split(" (")[0] for p in problems] == [
        "a lambda passed to .on_crash()",
        "nested function 'handler' passed to .on_adeliver()",
        "nested function 'handler' passed to .on_adeliver()",
        "a lambda passed to .on_change()",
    ]
