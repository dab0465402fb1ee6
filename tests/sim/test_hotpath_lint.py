"""The allocation-discipline lint passes on the checked-in tree.

``tools/hotpath_lint.py`` is CI's guard on the event-core hot path
(``__slots__`` everywhere, no ``getattr``/dict literals in the fused
drain loops, a bare per-frame send path); running it under pytest too
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
