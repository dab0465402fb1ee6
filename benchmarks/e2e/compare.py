"""``compare A.json B.json``: do two result files agree within bounds?

For every (workload, end-to-end metric) present in both files: both
values, B's relative difference from A, the metric's bound, and whether
B is worse than A by more than the bound.  Simulated-clock metrics and
counts have tight bounds because same-code runs reproduce them exactly;
``failed_share`` has bound 0 — any increase is a breach.
"""

from __future__ import annotations

import json
from pathlib import Path

from .catalogue import END_TO_END


def change(a: float, b: float) -> float:
    """``b``'s difference from ``a`` as a share of ``a``.

    With ``a == 0`` the share is undefined; the absolute change is
    returned instead, which is what ``failed_share``'s bound of 0 needs.
    """
    return (b - a) / abs(a) if a else b - a


def compare(a: dict, b: dict) -> tuple[list[str], int]:
    """Report lines and the number of breaches."""
    lines = [
        f"{'workload':<14}{'metric':<22}{'A':>14}{'B':>14}"
        f"{'B vs A':>10}{'bound':>8}"
    ]
    if a.get("smoke") or b.get("smoke"):
        lines.insert(0, "WARNING: a smoke result is never comparable")
    breaches = 0
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        for metric in END_TO_END:
            cell_a = entry_a["end_to_end"].get(metric.name)
            cell_b = entry_b["end_to_end"].get(metric.name)
            if cell_a is None or cell_b is None:
                continue
            value_a, value_b = cell_a["value"], cell_b["value"]
            moved = change(value_a, value_b)
            worse = moved if metric.better == "lower" else -moved
            breach = worse > metric.bound
            breaches += breach
            lines.append(
                f"{workload:<14}{metric.name:<22}{value_a:>14.6g}"
                f"{value_b:>14.6g}{moved:>+10.2%}{metric.bound:>8.2f}"
                f"{'  BREACH' if breach else ''}"
            )
    return lines, breaches


def main(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    lines, breaches = compare(a, b)
    print("\n".join(lines))
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0
