"""Wall time inside the program's public calls, measured from outside.

:class:`Spans` swaps a handful of public entry points for timing
wrappers while a workload body runs and puts the originals back
afterwards; nothing in ``src/repro`` knows it is being timed.  A span
is entered once per outermost call (``build_sharded_system`` calls
``build_system`` sixteen times; that is one ``stack.build`` span), so
the three totals never overlap themselves.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

import repro
from repro.checkers import AbcastChecker, ConsensusChecker, ShardChecker
from repro.sim.engine import Engine


class Spans:
    """Accumulated seconds per span name."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        #: Engine events executed inside ``sim.run`` spans.
        self.events = 0
        self._depth: dict[str, int] = defaultdict(int)

    def _timed(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            if self._depth[name]:
                return fn(*args, **kwargs)
            self._depth[name] += 1
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - started
                self._depth[name] -= 1

        return wrapper

    def _run(self, run: Callable) -> Callable:
        timed = self._timed("sim.run", run)

        def wrapper(engine, *args, **kwargs):
            before = engine.events_executed
            try:
                return timed(engine, *args, **kwargs)
            finally:
                self.events += engine.events_executed - before

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["Spans"]:
        """Time the public calls for the duration of the block."""
        undo: list[tuple[object, str, object]] = []

        def swap(owner: object, name: str, new: object) -> None:
            undo.append((owner, name, getattr(owner, name)))
            setattr(owner, name, new)

        try:
            # Modules bind these functions by ``from ... import``, so
            # every binding of the same object is swapped, wherever a
            # later refactor moves the importers.
            for fn in (repro.build_system, repro.build_sharded_system):
                timed = self._timed("stack.build", fn)
                for module in list(sys.modules.values()):
                    package = getattr(module, "__name__", "").split(".")[0]
                    if package != "repro":
                        continue
                    for name, value in list(vars(module).items()):
                        if value is fn:
                            swap(module, name, timed)
            for checker in (AbcastChecker, ConsensusChecker, ShardChecker):
                swap(checker, "check_all",
                     self._timed("checkers.check", checker.check_all))
            swap(Engine, "run", self._run(Engine.run))
            yield self
        finally:
            for owner, name, old in reversed(undo):
                setattr(owner, name, old)
