#!/usr/bin/env python3
"""Allocation-discipline lint for the event-core hot path.

The event core, the frame path, the trace's recorders and the
consensus phases hold their per-event cost down by five disciplines,
and a built system stays copyable by a sixth; nothing in the type
system enforces them:

* **no instance dicts** — every class in the hot modules
  (``sim/equeue.py``, ``sim/engine.py``, ``sim/resources.py``,
  ``sim/process.py``, ``net/frame.py``) declares ``__slots__``
  (directly or via ``@dataclass(slots=True)``), so attribute access
  compiles to fixed-offset loads and no per-instance ``__dict__`` is
  allocated;
* **no reflective dispatch in the run loops** — the drain loop
  (``EventQueue.drain``, entered through ``Engine.run``) and the
  scheduler-consulted loop (``Engine._run_controlled``) bind the heap
  to a local once and never call ``getattr`` or build a dict literal
  per event; nor do the per-event scheduling sites
  (``FifoResource.stage``, ``SimProcess.schedule`` and
  ``schedule_at``), which push one entry each;
* **a bare frame path** — the network's one send routine
  (``Network.multicast``), each model's ``_transmit`` (the constant
  model schedules its one delivery event there), the contention
  model's stage callbacks and ``Network._deliver`` run once per frame
  and do arithmetic plus one ``FifoResource.stage`` or engine push:
  no ``getattr``, no dict/list literal, no call on the topology at all
  (segments are a table built on attach) and no call on the fault
  pipeline except under an ``armed`` / ``has_delay`` guard;
* **bare trace recorders** — the trace's typed recorders
  (``abroadcast``, ``adeliver``, ``rbroadcast``, ``rdeliver``,
  ``propose``, ``decide``, ``crash`` in ``sim/trace.py``, every class's
  definition) run once per protocol event and append one row to the
  full trace's columns or count it: like the frame path, no
  ``getattr`` and no dict/list literal;
* **constant protocol steps** — the consensus phase bodies
  (``_try_phase*``, ``_enter_round``) and frame dispatchers (``_on_*``,
  ``_on_decide_frame`` included) run per frame and read pid, ``n``,
  quorums and the round's coordinator as plain attributes computed
  once: no read of ``config`` at all, no ``_active`` property and no
  ``has_decided(`` call (``tests/consensus/test_instance_budget.py``
  pins the resulting call counts);
* **closure-free wiring** — no ``lambda`` or nested function is handed
  to a registration a running system keeps (``on_crash``,
  ``on_adeliver``, ``on_decide``, ``on_vote``, detector ``on_change``)
  anywhere in ``repro``: bound methods and ``functools.partial`` only.
  ``copy.deepcopy`` copies those with the system but shares a closure,
  which then keeps calling into the original
  (``tests/stack/test_system_copy.py`` is the behavioural guard).

The first five are trivially easy to regress with an innocent-looking edit,
and no such regression fails a functional test — they just quietly
give back ns/event (``tests/net/test_frame_path_budget.py``
pins the resulting call counts).  CI runs this script so the
regression is loud instead.

Checks are deliberately layered: ``__slots__`` is verified at runtime
(importing the module sees exactly what CPython sees, including
dataclass-generated slots), while the drain bodies are checked on the
AST (a banned call is banned even on a path the benchmark never hits).

Usage::

    PYTHONPATH=src python tools/hotpath_lint.py
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from fnmatch import fnmatch
from pathlib import Path

#: Modules whose classes must all declare ``__slots__``.  Exception
#: types are exempt: ``BaseException`` instances carry a ``__dict__``
#: regardless, and none sit on a hot path.
SLOTTED_MODULES = (
    "repro.sim.equeue",
    "repro.sim.engine",
    "repro.sim.resources",
    "repro.sim.process",
    "repro.net.frame",
    "repro.obs.telemetry",
)

#: (module, method) bodies that must stay free of ``getattr`` calls
#: and dict-literal allocations: the fused drain loop and the
#: controlled loop that drains through it.
DRAIN_METHODS = (
    ("repro.sim.equeue", "drain"),
    ("repro.sim.engine", "_run_controlled"),
)

#: (module, method) bodies held to the run loops' rule: the per-event
#: scheduling sites, one heap push each.
SCHEDULING_METHODS = (
    ("repro.sim.resources", "stage"),
    ("repro.sim.process", "schedule"),
    ("repro.sim.process", "schedule_at"),
)

#: (module, method) bodies on the per-frame send path (every class's
#: definition of the method is checked): the send routine and the
#: model stage callbacks, and the one delivery route.
FRAME_PATH_METHODS = (
    ("repro.net.models", "multicast"),
    ("repro.net.models", "_transmit"),
    ("repro.net.models", "_enter_medium"),
    ("repro.net.models", "_enter_receiver"),
    ("repro.net.models", "_deliver"),
)

#: (module, method) bodies run once per recorded protocol event: the
#: trace's typed recorders, held to the frame path's rule.
RECORDER_METHODS = tuple(
    ("repro.sim.trace", name)
    for name in (
        "abroadcast", "adeliver", "rbroadcast", "rdeliver", "propose",
        "decide", "crash",
    )
)

#: Method-name patterns (``fnmatch``) of the per-frame protocol bodies,
#: checked in every class of every ``repro.consensus`` module: the
#: phase re-evaluations and the frame dispatchers (``_on_*`` covers
#: ``_on_decide_frame``).
PROTOCOL_PATH_METHODS = ("_try_phase*", "_enter_round", "_on_*")

#: A pipeline call is allowed only under an ``if`` testing one of these.
PIPELINE_GUARDS = frozenset({"armed", "has_delay"})

#: Registrations whose callback a running system keeps: each may be
#: handed a bound method or a ``functools.partial``, never a closure.
KEPT_REGISTRATIONS = frozenset(
    {"on_crash", "on_adeliver", "on_decide", "on_vote", "on_change"}
)

def check_slots(module_name: str) -> list[str]:
    module = importlib.import_module(module_name)
    problems = []
    for name, cls in vars(module).items():
        if not inspect.isclass(cls) or cls.__module__ != module_name:
            continue
        if issubclass(cls, BaseException):
            continue
        if "__slots__" not in cls.__dict__:
            problems.append(
                f"{module_name}.{name}: no __slots__ declaration "
                f"(instances allocate a __dict__)"
            )
    return problems


def _drain_defs(tree: ast.Module, method: str) -> list[tuple[str, ast.FunctionDef]]:
    found = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == method:
                    found.append((f"{node.name}.{method}", item))
    return found


def check_drain(
    module_name: str, method: str, where: str = "a run loop"
) -> list[str]:
    source_path = Path(
        importlib.import_module(module_name).__file__  # type: ignore[arg-type]
    )
    tree = ast.parse(source_path.read_text(), filename=str(source_path))
    return drain_problems(tree, module_name, method, where)


def drain_problems(
    tree: ast.Module, module_name: str, method: str, where: str = "a run loop"
) -> list[str]:
    """:func:`check_drain` on an already-parsed module; ``where`` names
    the kind of body in the diagnostics."""
    defs = _drain_defs(tree, method)
    if not defs:
        return [f"{module_name}: no {method!r} method found to lint"]
    problems = []
    for qualname, fn in defs:
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
            ):
                problems.append(
                    f"{module_name}:{node.lineno} {qualname}: getattr() "
                    f"in {where} (reflective dispatch per event)"
                )
            elif isinstance(node, (ast.Dict, ast.DictComp)):
                problems.append(
                    f"{module_name}:{node.lineno} {qualname}: dict "
                    f"literal in {where} (allocation per event)"
                )
    return problems


def _receiver_chain(func: ast.expr) -> set[str]:
    """Names along a call's receiver: ``self.pipeline.admit`` ->
    ``{"self", "pipeline"}``."""
    names: set[str] = set()
    node = func.value if isinstance(func, ast.Attribute) else None
    while isinstance(node, ast.Attribute):
        names.add(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        names.add(node.id)
    return names


def _mentions_pipeline_guard(test: ast.expr) -> bool:
    return any(
        (isinstance(node, ast.Name) and node.id in PIPELINE_GUARDS)
        or (isinstance(node, ast.Attribute) and node.attr in PIPELINE_GUARDS)
        for node in ast.walk(test)
    )


def check_frame_path(
    module_name: str, method: str, path: str = "the frame path"
) -> list[str]:
    """The per-frame bodies allocate nothing and ask nobody."""
    source_path = Path(
        importlib.import_module(module_name).__file__  # type: ignore[arg-type]
    )
    tree = ast.parse(source_path.read_text(), filename=str(source_path))
    return frame_path_problems(tree, module_name, method, path)


def frame_path_problems(
    tree: ast.Module, module_name: str, method: str,
    path: str = "the frame path",
) -> list[str]:
    """:func:`check_frame_path` on an already-parsed module; ``path``
    names the kind of body in the diagnostics."""
    defs = _drain_defs(tree, method)
    if not defs:
        return [f"{module_name}: no {method!r} method found to lint"]
    problems: list[str] = []

    def visit(node: ast.AST, qualname: str, guarded: bool) -> None:
        where = f"{module_name}:{getattr(node, 'lineno', '?')} {qualname}"
        if isinstance(node, ast.If):
            visit(node.test, qualname, guarded)
            inner = guarded or _mentions_pipeline_guard(node.test)
            for child in node.body:
                visit(child, qualname, inner)
            for child in node.orelse:
                visit(child, qualname, guarded)
            return
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "getattr":
                problems.append(f"{where}: getattr() on {path}")
            receiver = _receiver_chain(node.func)
            if "topology" in receiver:
                problems.append(
                    f"{where}: call on the topology per frame (use the "
                    f"pid -> segment table built on attach)"
                )
            if "pipeline" in receiver and not guarded:
                problems.append(
                    f"{where}: fault-pipeline call outside an "
                    f"armed/has_delay guard (an unarmed send asks nothing)"
                )
        elif isinstance(
            node, (ast.Dict, ast.DictComp, ast.List, ast.ListComp)
        ):
            problems.append(
                f"{where}: dict/list literal on {path} "
                f"(an allocation per call)"
            )
        for child in ast.iter_child_nodes(node):
            visit(child, qualname, guarded)

    for qualname, fn in defs:
        for statement in fn.body:
            visit(statement, qualname, False)
    return problems


def _protocol_modules() -> list[str]:
    package = importlib.import_module("repro.consensus")
    return [
        f"repro.consensus.{info.name}"
        for info in pkgutil.iter_modules(package.__path__)
    ]


def check_protocol_path(module_name: str) -> list[str]:
    """The consensus phase bodies read constants, not ``config``."""
    source_path = Path(
        importlib.import_module(module_name).__file__  # type: ignore[arg-type]
    )
    tree = ast.parse(source_path.read_text(), filename=str(source_path))
    return protocol_path_problems(tree, module_name)


def protocol_path_problems(tree: ast.Module, module_name: str) -> list[str]:
    """:func:`check_protocol_path` on an already-parsed module."""
    problems: list[str] = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if not isinstance(item, ast.FunctionDef) or not any(
                fnmatch(item.name, pattern) for pattern in PROTOCOL_PATH_METHODS
            ):
                continue
            for inner in ast.walk(item):
                if isinstance(inner, ast.Attribute) and inner.attr == "config":
                    what = ("reads config per step (use the service's "
                            "pid / n / quorum attributes)")
                elif isinstance(inner, ast.Attribute) and inner.attr == "_active":
                    what = ("_active property per step (inline the "
                            "proposed/stopped/crashed guard)")
                elif (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and inner.func.attr == "has_decided"
                ):
                    what = ("has_decided() per frame (test the decided "
                            "watermark inline)")
                else:
                    continue
                problems.append(
                    f"{module_name}:{inner.lineno} {node.name}.{item.name}: "
                    f"{what}"
                )
    return problems


def _closure_arg(arg: ast.expr, nested: set[str]) -> str | None:
    """What makes ``arg`` a closure (a lambda, a nested function, or a
    partial over one), or None."""
    if isinstance(arg, ast.Lambda):
        return "a lambda"
    if isinstance(arg, ast.Name) and arg.id in nested:
        return f"nested function {arg.id!r}"
    if isinstance(arg, ast.Call) and arg.args and (
        (isinstance(arg.func, ast.Name) and arg.func.id == "partial")
        or (isinstance(arg.func, ast.Attribute) and arg.func.attr == "partial")
    ):
        return _closure_arg(arg.args[0], nested)
    return None


def closure_registration_problems(
    tree: ast.Module, module_name: str
) -> list[str]:
    """Closures handed to a :data:`KEPT_REGISTRATIONS` call."""
    problems: dict[tuple[int, int], str] = {}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for fn in ast.walk(tree):
        if not isinstance(fn, functions):
            continue
        nested = {
            node.name
            for node in ast.walk(fn)
            if isinstance(node, functions) and node is not fn
        }
        for call in ast.walk(fn):
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in KEPT_REGISTRATIONS
            ):
                continue
            for arg in call.args:
                what = _closure_arg(arg, nested)
                if what is not None:
                    problems[(call.lineno, call.col_offset)] = (
                        f"{module_name}:{call.lineno} {fn.name}: {what} "
                        f"passed to .{call.func.attr}() (a copied system "
                        f"would share it; use a bound method or partial)"
                    )
    return [problems[key] for key in sorted(problems)]


def _repro_modules() -> list[str]:
    package = importlib.import_module("repro")
    return [
        info.name
        for info in pkgutil.walk_packages(package.__path__, "repro.")
    ]


def check_closure_registrations(module_name: str) -> list[str]:
    spec = importlib.util.find_spec(module_name)
    source_path = Path(spec.origin)  # type: ignore[union-attr, arg-type]
    tree = ast.parse(source_path.read_text(), filename=str(source_path))
    return closure_registration_problems(tree, module_name)


def main() -> int:
    problems: list[str] = []
    for module_name in SLOTTED_MODULES:
        problems += check_slots(module_name)
    for module_name, method in DRAIN_METHODS:
        problems += check_drain(module_name, method)
    for module_name, method in SCHEDULING_METHODS:
        problems += check_drain(module_name, method, "a scheduling site")
    for module_name, method in FRAME_PATH_METHODS:
        problems += check_frame_path(module_name, method)
    for module_name, method in RECORDER_METHODS:
        problems += check_frame_path(
            module_name, method, "the trace's record path"
        )
    protocol_modules = _protocol_modules()
    for module_name in protocol_modules:
        problems += check_protocol_path(module_name)
    wired_modules = _repro_modules()
    for module_name in wired_modules:
        problems += check_closure_registrations(module_name)
    if problems:
        print("hotpath-lint: allocation discipline regressed:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    drains = sum(
        len(_drain_defs(
            ast.parse(Path(
                importlib.import_module(m).__file__
            ).read_text()), meth,
        ))
        for m, meth in DRAIN_METHODS
    )
    print(
        f"hotpath-lint: OK ({len(SLOTTED_MODULES)} modules slotted, "
        f"{drains} run loops and {len(SCHEDULING_METHODS)} scheduling "
        f"sites clean, "
        f"{len(FRAME_PATH_METHODS)} frame-path methods and "
        f"{len(RECORDER_METHODS)} trace recorders bare, "
        f"{len(protocol_modules)} consensus modules read constants, "
        f"{len(wired_modules)} modules wire without closures)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
