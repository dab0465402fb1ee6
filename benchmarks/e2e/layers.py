"""Fold a cProfile run by ``src/repro`` package.

The program carries no probes for this: the attribution is computed
from the profiler's function table and caller edges alone.

* A function defined under ``repro/<package>/`` belongs to that layer
  (``other`` when the package is not a catalogued layer).
* Everything else — builtins, the standard library, dataclass-generated
  methods, the benchmark's own frames — is *foreign*.  Its self time is
  charged to the layer of its nearest ``repro`` caller: each caller edge
  carries the self time spent under that caller, and a foreign caller
  passes its share on to its own callers in proportion to their call
  counts.  Foreign code no ``repro`` frame leads to lands in ``other``.
* Call counts are never redistributed: a foreign function's calls count
  under ``other``, so the layers' ``calls`` sum to the profile's total
  and ``calls_in`` counts exactly the edges whose two ends differ.
"""

from __future__ import annotations

from collections import defaultdict

from .catalogue import LAYERS, OTHER

#: pstats key: (filename, line, function name).
Func = tuple[str, int, str]


def home_of(func: Func) -> str | None:
    """The layer that defines ``func``; ``None`` for foreign code."""
    parts = func[0].replace("\\", "/").split("/")
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro":
            package = parts[index + 1]
            return package if package in LAYERS else OTHER
    return None


def fold(stats: dict) -> dict:
    """Per-layer ``self_share`` / ``calls`` / ``calls_in`` + totals.

    ``stats`` is ``pstats.Stats(...).stats``:
    ``{func: (primitive calls, calls, self time, cumulative, callers)}``
    with ``callers = {func: (calls, primitive calls, self, cumulative)}``.
    """
    home = {func: home_of(func) for func in stats}
    origins: dict[Func, dict[str, float]] = {}

    def origin(func: Func, trail: tuple[Func, ...]) -> dict[str, float]:
        """Where calls into foreign ``func`` come from, by layer."""
        known = origins.get(func)
        if known is not None:
            return known
        callers = stats[func][4]
        total = sum(edge[0] for edge in callers.values())
        if func in trail or not total:
            return {OTHER: 1.0}
        shares: dict[str, float] = defaultdict(float)
        for caller in sorted(callers):
            weight = callers[caller][0] / total
            layer = home.get(caller)
            if layer is not None:
                shares[layer] += weight
            else:
                for name, share in origin(caller, trail + (func,)).items():
                    shares[name] += weight * share
        origins[func] = dict(shares)
        return origins[func]

    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    calls_in: dict[str, int] = defaultdict(int)
    for func in sorted(stats):
        _, count, own, _, callers = stats[func]
        layer = home[func] or OTHER
        calls[layer] += count
        for caller, edge in callers.items():
            if (home.get(caller) or OTHER) != layer:
                calls_in[layer] += edge[0]
        if home[func] is not None:
            self_time[layer] += own
        elif not callers:
            self_time[OTHER] += own
        else:
            for caller in sorted(callers):
                charged = callers[caller][2]
                target = home.get(caller)
                if target is not None:
                    self_time[target] += charged
                else:
                    for name, share in origin(caller, (func,)).items():
                        self_time[name] += charged * share

    total_time = sum(self_time.values()) or 1.0
    return {
        "prof_calls": sum(calls.values()),
        "profiled_seconds": total_time,
        "layers": {
            layer: {
                "self_share": self_time[layer] / total_time,
                "calls": calls[layer],
                "calls_in": calls_in[layer],
            }
            for layer in LAYERS + (OTHER,)
        },
    }
