"""Columnar query surface over experiment results.

A :class:`ResultSet` is the harness's answer shape: every
:class:`~repro.harness.experiment.ExperimentResult` of a suite becomes
one row, and every spec axis (throughput, payload, seed, stack layers)
plus every probe field (``"latency.mean_ms"``, ``"traffic.data_bytes"``,
``"utilisation.medium.0"``, ...) becomes one named column.  Storage is
columnar — ``{column: [values]}`` — so selection, filtering, grouping
and aggregation are list operations, and export to CSV/JSON is a
transpose away.

The figure assembly, the report renderer, the CLI exporter and the
examples are all written against this surface; registering a new metric
probe makes its fields appear here (and everywhere downstream) without
touching any of them.

Example::

    suite = run_suite(sweep)
    rs = ResultSet.from_suite(suite)
    for (label,), curve in rs.group_by("label").items():
        print(label, curve.mean("latency.mean_ms"))
    Path("sweep.csv").write_text(rs.to_csv())
"""

from __future__ import annotations

import io
import json
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from repro.harness.experiment import ExperimentResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.runner import SuiteResult

#: Spec-derived columns, in presentation order (before the probe columns).
SPEC_COLUMNS = (
    "name",
    "label",
    "abcast",
    "consensus",
    "rb",
    "fd",
    "network",
    "n",
    "seed",
    "workload",
    "throughput",
    "payload",
    "sent",
    "undelivered",
    "simulated_seconds",
    "wall_seconds",
)


def _flatten(result: ExperimentResult) -> dict[str, Any]:
    """One result as a flat row: spec axes + every probe field."""
    spec = result.spec
    row: dict[str, Any] = {
        "name": spec.name,
        "label": spec.label,
        "abcast": spec.stack.abcast,
        "consensus": spec.stack.consensus,
        "rb": spec.stack.rb,
        "fd": spec.stack.fd,
        "network": spec.stack.network,
        "n": spec.stack.n,
        "seed": spec.stack.seed,
        "workload": spec.workload,
        "throughput": spec.throughput,
        "payload": spec.payload,
        "sent": result.sent,
        "undelivered": result.undelivered,
        "simulated_seconds": result.simulated_seconds,
        "wall_seconds": result.wall_seconds,
    }
    for probe_name, value in result.metrics.items():
        for field_name, number in value.fields:
            row[f"{probe_name}.{field_name}"] = number
    return row


class ResultSet:
    """An immutable columnar table of experiment results.

    Rows keep their input order through every operation; ``None`` marks
    a column a particular row does not have (e.g. a probe only some
    variants measured, or a per-segment figure on a single-segment
    point).
    """

    def __init__(
        self,
        columns: Mapping[str, Sequence[Any]],
        results: Sequence[ExperimentResult] = (),
    ) -> None:
        self._columns: dict[str, tuple[Any, ...]] = {
            name: tuple(values) for name, values in columns.items()
        }
        lengths = {len(values) for values in self._columns.values()}
        if len(lengths) > 1:
            raise ValueError(
                f"ragged columns: lengths {sorted(lengths)}"
            )
        self._length = lengths.pop() if lengths else 0
        #: The underlying results (empty for purely columnar slices).
        self.results: tuple[ExperimentResult, ...] = tuple(results)
        if self.results and len(self.results) != self._length:
            raise ValueError(
                f"{len(self.results)} results but {self._length} rows"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_results(
        cls, results: Iterable[ExperimentResult]
    ) -> "ResultSet":
        """Flatten results into columns (union of all row keys)."""
        results = tuple(results)
        rows = [_flatten(result) for result in results]
        names: list[str] = [c for c in SPEC_COLUMNS]
        seen = set(names)
        for row in rows:
            for key in row:
                if key not in seen:
                    names.append(key)
                    seen.add(key)
        columns = {
            name: [row.get(name) for row in rows] for name in names
        }
        return cls(columns, results=results)

    @classmethod
    def from_suite(cls, suite: "SuiteResult") -> "ResultSet":
        return cls.from_results(suite.results)

    @classmethod
    def concat(
        cls, sets: Iterable["ResultSet"], strict: bool = True
    ) -> "ResultSet":
        """Stack result sets row-wise; see module-level :func:`concat`."""
        return concat(sets, strict=strict)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(self._columns)

    def column(self, name: str) -> tuple[Any, ...]:
        """All values of one column, in row order."""
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r} (columns: {', '.join(self._columns)})"
            ) from None

    # ------------------------------------------------------------------
    # Query operators
    # ------------------------------------------------------------------

    def select(self, *names: str) -> "ResultSet":
        """Restrict to the given columns (kept in the given order)."""
        return ResultSet(
            {name: self.column(name) for name in names},
            results=self.results,
        )

    def where(
        self,
        predicate: Callable[[dict[str, Any]], bool] | None = None,
        **equals: Any,
    ) -> "ResultSet":
        """Rows matching all ``column=value`` pairs (and ``predicate``,
        if given, called with the full row dict)."""
        for name in equals:
            self.column(name)  # unknown columns fail loudly
        keep = []
        for index in range(self._length):
            if any(
                self._columns[name][index] != value
                for name, value in equals.items()
            ):
                continue
            if predicate is not None and not predicate(self._row(index)):
                continue
            keep.append(index)
        return self._take(keep)

    def group_by(self, *names: str) -> dict[tuple, "ResultSet"]:
        """Partition rows by the given columns' value tuples.

        Keys appear in first-occurrence order, as tuples (also for a
        single grouping column, so unpacking is uniform).
        """
        groups: dict[tuple, list[int]] = {}
        for index in range(self._length):
            key = tuple(self.column(name)[index] for name in names)
            groups.setdefault(key, []).append(index)
        return {key: self._take(rows) for key, rows in groups.items()}

    def mean(self, name: str) -> float:
        """Mean of a numeric column (``None`` entries excluded)."""
        values = [v for v in self.column(name) if v is not None]
        if not values:
            raise ValueError(f"column {name!r} has no values to average")
        return sum(values) / len(values)

    def _row(self, index: int) -> dict[str, Any]:
        return {name: values[index] for name, values in self._columns.items()}

    def _take(self, indexes: list[int]) -> "ResultSet":
        return ResultSet(
            {
                name: [values[i] for i in indexes]
                for name, values in self._columns.items()
            },
            results=tuple(self.results[i] for i in indexes)
            if self.results
            else (),
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_rows(self) -> list[dict[str, Any]]:
        """Row dicts, one per result, every column present."""
        return [self._row(index) for index in range(self._length)]

    def to_csv(self) -> str:
        """RFC-4180 CSV with a header row (``None`` renders empty)."""
        import csv  # imported on first use: most processes never export

        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.columns)
        for index in range(self._length):
            writer.writerow(
                [
                    "" if value is None else value
                    for value in (
                        self._columns[name][index] for name in self.columns
                    )
                ]
            )
        return out.getvalue()

    def to_json(self, indent: int | None = None) -> str:
        """JSON array of row objects (stable column order per row)."""
        return json.dumps(self.to_rows(), indent=indent)


def concat(sets: Iterable[ResultSet], strict: bool = True) -> ResultSet:
    """Stack result sets row-wise.

    By default the inputs must share one schema — same columns, same
    order — and a mismatch raises :class:`ValueError` *naming the
    differing columns* (a silent union used to pad the holes with
    ``None``, which reads as "this point measured nothing" three
    operators later; merging per-shard slices is exactly where that
    bites).  Pass ``strict=False`` for the old union-with-``None``
    behaviour when heterogeneous inputs are intended (e.g. stacking
    figures that measured different probe sets).

    Column restrictions applied by the inputs (``select``) survive: the
    output has exactly the union of the inputs' columns, never the full
    flattened table.  Underlying results are carried along when every
    input still has them.
    """
    sets = list(sets)
    if strict and sets:
        reference = sets[0].columns
        for index, rs in enumerate(sets[1:], start=1):
            if rs.columns == reference:
                continue
            missing = [c for c in reference if c not in rs.columns]
            extra = [c for c in rs.columns if c not in reference]
            if missing or extra:
                detail = "; ".join(
                    part
                    for part in (
                        f"missing {missing}" if missing else "",
                        f"unexpected {extra}" if extra else "",
                    )
                    if part
                )
                raise ValueError(
                    f"concat schema mismatch: input {index} vs input 0: "
                    f"{detail} (pass strict=False to union-pad with None)"
                )
            raise ValueError(
                f"concat schema mismatch: input {index} has the same "
                f"columns as input 0 but in a different order: "
                f"{list(rs.columns)} vs {list(reference)} "
                f"(pass strict=False to union-pad)"
            )
    names: list[str] = []
    seen: set[str] = set()
    for rs in sets:
        for name in rs.columns:
            if name not in seen:
                names.append(name)
                seen.add(name)
    columns: dict[str, list[Any]] = {name: [] for name in names}
    for rs in sets:
        for name in names:
            if name in rs.columns:
                columns[name].extend(rs.column(name))
            else:
                columns[name].extend([None] * len(rs))
    results = tuple(r for rs in sets for r in rs.results)
    if not all(rs.results for rs in sets):
        results = ()
    return ResultSet(columns, results=results)
