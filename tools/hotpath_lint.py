#!/usr/bin/env python3
"""Allocation-discipline lint for the event-core hot path.

The event core, the frame path and the consensus phases hold their
per-event cost down by four disciplines that nothing in the type system
enforces:

* **no instance dicts** — every class in the hot modules
  (``sim/equeue.py``, ``sim/engine.py``, ``sim/resources.py``,
  ``net/frame.py``) declares ``__slots__`` (directly or via
  ``@dataclass(slots=True)``), so attribute access compiles to
  fixed-offset loads and no per-instance ``__dict__`` is allocated;
* **no reflective dispatch in the fused drain** — the drain loop
  (``EventQueue.drain``, entered through ``Engine.run``) binds
  the heap to a local once and never calls ``getattr`` or builds a
  dict literal per event;
* **a bare frame path** — the network's one send routine
  (``Network.multicast``) and the contention model's three stage
  callbacks run once per frame and do arithmetic plus one
  ``FifoResource.stage``:
  no ``getattr``, no dict/list literal, no call on the topology at all
  (segments are a table built on attach) and no call on the fault
  pipeline except under an ``armed`` / ``has_delay`` guard;
* **constant protocol steps** — the consensus phase bodies
  (``_try_phase*``, ``_enter_round``) and frame dispatchers (``_on_*``,
  ``_on_decide_frame`` included) run per frame and read pid, ``n``,
  quorums and the round's coordinator as plain attributes computed
  once: no read of ``config`` at all, no ``_active`` property and no
  ``has_decided(`` call (``tests/consensus/test_instance_budget.py``
  pins the resulting call counts).

All four are trivially easy to regress with an innocent-looking edit,
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
    "repro.net.frame",
    "repro.obs.telemetry",
)

#: (module, method) bodies that must stay free of ``getattr`` calls
#: and dict-literal allocations: the fused drain loop.
DRAIN_METHODS = (
    ("repro.sim.equeue", "drain"),
)

#: (module, method) bodies on the per-frame send path (every class's
#: definition of the method is checked): the send routine and the
#: model stage callbacks.
FRAME_PATH_METHODS = (
    ("repro.net.models", "multicast"),
    ("repro.net.models", "_transmit"),
    ("repro.net.models", "_enter_medium"),
    ("repro.net.models", "_enter_receiver"),
)

#: Method-name patterns (``fnmatch``) of the per-frame protocol bodies,
#: checked in every class of every ``repro.consensus`` module: the
#: phase re-evaluations and the frame dispatchers (``_on_*`` covers
#: ``_on_decide_frame``).
PROTOCOL_PATH_METHODS = ("_try_phase*", "_enter_round", "_on_*")

#: A pipeline call is allowed only under an ``if`` testing one of these.
PIPELINE_GUARDS = frozenset({"armed", "has_delay"})

#: Observer lifecycle hooks the obs layer may subscribe to.  Any call
#: of one of these inside an observer-bearing method must sit under an
#: ``if <name> is not None:`` guard, so the obs-off path stays a
#: single local-is-None test — the discipline the obs-off call-count
#: pin of ``tests/obs/test_telemetry.py::TestDisabledPath`` depends on.
OBSERVER_HOOKS = frozenset(
    {"on_push", "on_cancel", "on_fire", "on_defer", "on_block", "on_release"}
)

#: (module, method) bodies whose observer-hook calls must be guarded.
OBSERVER_METHODS = (
    ("repro.sim.equeue", "drain"),
    ("repro.sim.equeue", "push"),
    ("repro.sim.equeue", "push_entry"),
    ("repro.sim.equeue", "note_cancel"),
    ("repro.sim.resources", "stage"),
    ("repro.sim.engine", "_run_controlled"),
    ("repro.sim.engine", "_release_blocked"),
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


def check_drain(module_name: str, method: str) -> list[str]:
    source_path = Path(
        importlib.import_module(module_name).__file__  # type: ignore[arg-type]
    )
    tree = ast.parse(source_path.read_text(), filename=str(source_path))
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
                    f"in the fused drain (reflective dispatch per event)"
                )
            elif isinstance(node, (ast.Dict, ast.DictComp)):
                problems.append(
                    f"{module_name}:{node.lineno} {qualname}: dict "
                    f"literal in the fused drain (allocation per event)"
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


def check_frame_path(module_name: str, method: str) -> list[str]:
    """The per-frame bodies allocate nothing and ask nobody."""
    source_path = Path(
        importlib.import_module(module_name).__file__  # type: ignore[arg-type]
    )
    tree = ast.parse(source_path.read_text(), filename=str(source_path))
    return frame_path_problems(tree, module_name, method)


def frame_path_problems(
    tree: ast.Module, module_name: str, method: str
) -> list[str]:
    """:func:`check_frame_path` on an already-parsed module."""
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
                problems.append(f"{where}: getattr() on the frame path")
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
                f"{where}: dict/list literal on the frame path "
                f"(allocation per frame)"
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
                            "dict directly)")
                else:
                    continue
                problems.append(
                    f"{module_name}:{inner.lineno} {node.name}.{item.name}: "
                    f"{what}"
                )
    return problems


def _is_not_none_guard(test: ast.expr) -> bool:
    """True for ``<expr> is not None`` (the sanctioned observer guard)."""
    return (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.IsNot)
        and len(test.comparators) == 1
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    )


def check_observer_guards(module_name: str, method: str) -> list[str]:
    """Every observer-hook call must sit under an is-not-None guard."""
    source_path = Path(
        importlib.import_module(module_name).__file__  # type: ignore[arg-type]
    )
    tree = ast.parse(source_path.read_text(), filename=str(source_path))
    problems: list[str] = []

    def visit(node: ast.AST, guarded: bool) -> None:
        if isinstance(node, ast.If):
            inner = guarded or _is_not_none_guard(node.test)
            for child in node.body:
                visit(child, inner)
            for child in node.orelse:
                visit(child, guarded)
            return
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in OBSERVER_HOOKS
            and not guarded
        ):
            problems.append(
                f"{module_name}:{node.lineno} {method}: unguarded "
                f"observer hook .{node.func.attr}() (the obs-off path "
                f"must stay one is-None test)"
            )
        for child in ast.iter_child_nodes(node):
            visit(child, guarded)

    for _qualname, fn in _drain_defs(tree, method):
        for statement in fn.body:
            visit(statement, False)
    return problems


def main() -> int:
    problems: list[str] = []
    for module_name in SLOTTED_MODULES:
        problems += check_slots(module_name)
    for module_name, method in DRAIN_METHODS:
        problems += check_drain(module_name, method)
    for module_name, method in OBSERVER_METHODS:
        problems += check_observer_guards(module_name, method)
    for module_name, method in FRAME_PATH_METHODS:
        problems += check_frame_path(module_name, method)
    protocol_modules = _protocol_modules()
    for module_name in protocol_modules:
        problems += check_protocol_path(module_name)
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
        f"{drains} drain loops clean, "
        f"{len(OBSERVER_METHODS)} observer sites guarded, "
        f"{len(FRAME_PATH_METHODS)} frame-path methods bare, "
        f"{len(protocol_modules)} consensus modules read constants)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
