"""Tests for the columnar ResultSet surface and its cache round trip."""

import json
import pickle

import pytest

from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.harness.results import ResultSet, concat
from repro.harness.runner import ResultCache, run_suite, spec_key
from repro.harness.suite import SweepSpec
from repro.net.setups import SETUP_1
from repro.stack.builder import StackSpec


def stack(**overrides):
    defaults = dict(n=3, abcast="indirect", consensus="ct-indirect",
                    rb="sender", params=SETUP_1)
    defaults.update(overrides)
    return StackSpec(**defaults)


def small_sweep(**overrides):
    defaults = dict(
        name="grid",
        variants=(
            ("indirect", stack()),
            ("messages", stack(abcast="on-messages", consensus="ct")),
        ),
        throughputs=(200.0, 400.0),
        payloads=(1, 500),
        target_messages=40,
        warmup=0.05,
        drain=0.5,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    return run_suite(
        small_sweep(), cache_dir=tmp_path_factory.mktemp("cache"),
    )


class TestResultSetQueries:
    def test_one_row_per_result_with_spec_and_probe_columns(self, suite):
        rs = suite.result_set()
        assert len(rs) == len(suite)
        for column in ("name", "label", "throughput", "payload",
                       "latency.mean_ms", "traffic.frames_total",
                       "consensus.instances_decided",
                       "fd.suspicions_raised", "utilisation.medium.0"):
            assert column in rs.columns, column

    def test_select_restricts_and_orders_columns(self, suite):
        rs = suite.result_set().select("payload", "latency.mean_ms")
        assert rs.columns == ("payload", "latency.mean_ms")
        assert len(rs) == len(suite)

    def test_where_filters_by_equality(self, suite):
        rs = suite.result_set()
        sub = rs.where(label="indirect", payload=500)
        assert len(sub) == 2  # two throughputs
        assert set(sub.column("throughput")) == {200.0, 400.0}
        assert all(v == "indirect" for v in sub.column("abcast"))

    def test_where_accepts_a_predicate(self, suite):
        rs = suite.result_set()
        heavy = rs.where(lambda row: row["throughput"] > 300.0)
        assert len(heavy) == len(rs) // 2

    def test_where_unknown_column_fails_loudly(self, suite):
        with pytest.raises(KeyError, match="no column"):
            suite.result_set().where(paylod=1)

    def test_group_by_partitions_in_first_seen_order(self, suite):
        groups = suite.result_set().group_by("label")
        assert list(groups) == [("indirect",), ("messages",)]
        assert all(len(g) == 4 for g in groups.values())

    def test_mean_aggregates_a_column(self, suite):
        rs = suite.result_set()
        values = rs.column("latency.mean_ms")
        assert rs.mean("latency.mean_ms") == pytest.approx(
            sum(values) / len(values)
        )

    def test_rows_keep_underlying_results_aligned(self, suite):
        sub = suite.result_set().where(label="messages")
        assert [r.spec.label for r in sub.results] == ["messages"] * 4
        assert list(sub.column("sent")) == [r.sent for r in sub.results]


class TestResultSetExport:
    def test_to_rows_round_trips_every_column(self, suite):
        rs = suite.result_set()
        rows = rs.to_rows()
        assert len(rows) == len(rs)
        assert all(set(row) == set(rs.columns) for row in rows)

    def test_to_csv_has_header_and_full_precision(self, suite):
        rs = suite.result_set()
        lines = rs.to_csv().splitlines()
        assert lines[0].split(",")[0] == "name"
        assert len(lines) == len(rs) + 1
        # Full precision: the raw float reparses exactly.
        column = list(rs.columns).index("latency.mean_ms")
        first = lines[1].split(",")[column]
        assert float(first) == rs.column("latency.mean_ms")[0]

    def test_to_json_is_a_list_of_row_objects(self, suite):
        rows = json.loads(suite.result_set().to_json())
        assert len(rows) == len(suite)
        assert rows[0]["payload"] == 1

    def test_concat_stacks_row_wise(self, suite):
        rs = suite.result_set()
        both = concat([rs, rs])
        assert len(both) == 2 * len(rs)
        assert both.columns == rs.columns
        assert len(both.results) == 2 * len(rs.results)

    def test_concat_preserves_column_restrictions(self, suite):
        # A selected (narrow) set must stay narrow through concat —
        # never re-flattened back to the full table.
        narrow = suite.result_set().select("name", "latency.mean_ms")
        out = concat([narrow, narrow])
        assert out.columns == ("name", "latency.mean_ms")
        assert len(out) == 2 * len(narrow)


class TestStrictConcat:
    """Schema mismatches must raise, naming the differing columns.

    The silent union used to pad holes with ``None`` — which reads as
    "this point measured nothing" three operators later.  Merging
    per-shard sweep slices is exactly where that bites, so strict is
    the default.
    """

    A = ResultSet({"name": ("a",), "goodput": (1.0,)})
    B = ResultSet({"name": ("b",), "shed": (2.0,)})

    def test_missing_and_extra_columns_are_named(self):
        with pytest.raises(ValueError) as err:
            concat([self.A, self.B])
        message = str(err.value)
        assert "input 1 vs input 0" in message
        assert "missing ['goodput']" in message
        assert "unexpected ['shed']" in message
        assert "strict=False" in message

    def test_same_columns_different_order_is_named(self):
        swapped = ResultSet({"goodput": (3.0,), "name": ("c",)})
        with pytest.raises(ValueError, match="different order"):
            concat([self.A, swapped])

    def test_mismatch_reports_the_offending_input_index(self):
        with pytest.raises(ValueError, match="input 2 vs input 0"):
            concat([self.A, self.A, self.B])

    def test_strict_false_union_pads_with_none(self):
        out = concat([self.A, self.B], strict=False)
        assert out.columns == ("name", "goodput", "shed")
        assert out.column("goodput") == (1.0, None)
        assert out.column("shed") == (None, 2.0)

    def test_matching_schemas_concat_cleanly(self):
        out = concat([self.A, self.A])
        assert out.columns == self.A.columns
        assert out.column("name") == ("a", "a")

    def test_classmethod_delegates(self):
        with pytest.raises(ValueError, match="schema mismatch"):
            ResultSet.concat([self.A, self.B])
        out = ResultSet.concat([self.A, self.B], strict=False)
        assert len(out) == 2

    def test_empty_input_stays_empty(self):
        assert len(concat([])) == 0


class TestCacheRoundTrip:
    def test_resultset_survives_the_on_disk_cache(self, tmp_path):
        sweep = small_sweep(payloads=(1,))
        first = run_suite(sweep, cache_dir=tmp_path)
        assert first.cache_misses == len(sweep)
        second = run_suite(sweep, cache_dir=tmp_path)
        assert second.cache_hits == len(sweep)
        # The columnar views are equal, column for column, row for row
        # (wall_seconds included: hits return the stored result).
        a, b = first.result_set(), second.result_set()
        assert a.columns == b.columns
        assert a.to_rows() == b.to_rows()

    def test_metric_values_pickle_stably(self, tmp_path):
        spec = ExperimentSpec(
            name="pickle", stack=stack(), throughput=200.0, payload=64,
            duration=0.3, warmup=0.05, drain=0.5,
        )
        result = run_experiment(spec)
        restored = pickle.loads(pickle.dumps(result))
        assert restored.metrics == result.metrics

    def test_pre_probe_cache_entries_are_cleanly_ignored(self, tmp_path):
        # A v1-era pickle (no generic metrics payload) sitting at the
        # *current* key path must be treated as a miss, never handed to
        # consumers mis-shaped.
        cache = ResultCache(tmp_path)
        spec = ExperimentSpec(
            name="legacy", stack=stack(), throughput=200.0, payload=64,
            duration=0.3, warmup=0.05, drain=0.5,
        )
        path = cache.path_for(spec, key=spec_key(spec))
        path.write_bytes(pickle.dumps({"latency_ms": 1.0, "sent": 10}))
        assert cache.load(spec) is None
        suite = run_suite([spec], cache_dir=tmp_path)
        assert suite.cache_misses == 1
        assert suite.results[0].metrics  # freshly computed, probe payload
