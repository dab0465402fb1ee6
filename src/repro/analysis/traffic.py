"""Traffic analysis: frames and bytes per protocol layer.

Decomposes a run's network usage into the categories the paper reasons
about: application **data** diffusion (reliable/uniform broadcast
payload frames) versus protocol **control** (consensus rounds, acks,
decisions, heartbeats).  This is where the O(n) vs O(n^2) broadcast
difference and the messages-vs-identifiers consensus difference become
countable facts rather than asymptotic claims.

The counters belong to the traffic probe and the data-versus-control
rule to the frame (:func:`~repro.net.frame.is_data_kind`);
:class:`TrafficBreakdown` is a view over the probe's value.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.probes import MetricValue, TrafficProbe
from repro.net.frame import is_data_kind
from repro.net.models import Network


@dataclass(frozen=True)
class TrafficBreakdown:
    """Frames/bytes split by frame kind and by data-vs-control.

    A view over one ``"traffic"`` probe value: read off a (possibly
    cached) :class:`~repro.harness.experiment.ExperimentResult` via
    :meth:`from_result`, or computed from a live network by
    :func:`traffic_breakdown` — so post-hoc analysis never needs to
    re-run the simulation.
    """

    value: MetricValue

    @classmethod
    def from_result(cls, result) -> "TrafficBreakdown":
        """The view over a result's traffic probe.

        Args:
            result: An :class:`~repro.harness.experiment.ExperimentResult`
                whose spec measured the ``"traffic"`` probe (it is in the
                default set) — fresh from ``run_experiment`` or loaded
                from the on-disk sweep cache.
        """
        return cls(result.metric("traffic"))

    def _by_kind(self, prefix: str) -> dict[str, int]:
        return {
            name[len(prefix):]: int(number)
            for name, number in self.value.fields
            if name.startswith(prefix)
        }

    @property
    def frames_by_kind(self) -> dict[str, int]:
        return self._by_kind("frames.")

    @property
    def bytes_by_kind(self) -> dict[str, int]:
        return self._by_kind("bytes.")

    @property
    def data_frames(self) -> int:
        return sum(
            n for kind, n in self.frames_by_kind.items() if is_data_kind(kind)
        )

    @property
    def control_frames(self) -> int:
        return self.total_frames - self.data_frames

    @property
    def data_bytes(self) -> int:
        return int(self.value["data_bytes"])

    @property
    def control_bytes(self) -> int:
        return int(self.value["control_bytes"])

    @property
    def total_frames(self) -> int:
        return int(self.value["frames_total"])

    @property
    def total_bytes(self) -> int:
        return int(self.value["bytes_total"])

    def frames_per_broadcast(self, broadcasts: int) -> float:
        """Average data frames shipped per application broadcast —
        ~n-1 for the O(n) reliable broadcast, ~n(n-1) for the flood."""
        if broadcasts == 0:
            return 0.0
        return self.data_frames / broadcasts

    def control_share(self) -> float:
        """Fraction of wire bytes spent on protocol control."""
        total = self.total_bytes
        if total == 0:
            return 0.0
        return self.control_bytes / total


def traffic_breakdown(network: Network) -> TrafficBreakdown:
    """The view over ``network``'s counters as they stand."""
    return TrafficBreakdown(TrafficProbe.measure(network))
