"""Key-hashed routing with admission control.

The :class:`Router` is the front door of the sharded service: clients
(or an aggregate open-loop workload's ``sink``) submit operations, the
router hashes the key to a shard with :func:`shard_for`, applies the
admission policy, and — after a forwarding latency — abroadcasts the
operation at a live replica of the owning group.  It is infrastructure
(like the paper's measurement harness), not a simulated process: it
never crashes, and its state is bookkeeping only.

Admission control bounds the number of *in-flight* operations per shard
(submitted but not yet first-adelivered).  Over the bound the policy is

* ``"shed"`` — drop the arrival and count it (open-loop overload turns
  into lost goodput, latency of admitted traffic stays bounded), or
* ``"delay"`` — park the arrival and retry after ``retry_delay``
  (overload turns into queueing delay; p99 sojourn explodes — the
  contrast the saturation probes are built to show).

Hashing is **stable**: :func:`shard_for` is a pure function of the key
bytes (SHA-256), so assignment is identical across runs, worker
processes, and interpreter restarts — unlike Python's per-process
salted ``hash``.  The router memoizes every assignment it makes and
:meth:`Router.rebalance` refuses (loudly, naming the keys) to change
the shard count once any memoized key would move: live resharding is a
data-migration protocol this layer does not implement, and silently
re-hashing would break per-key total order mid-run.
"""

from __future__ import annotations

import hashlib
from math import ceil
from typing import TYPE_CHECKING, Callable

from repro.core.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.message import AppMessage, Payload
    from repro.sim.engine import Engine
    from repro.stack.builder import System


def shard_for(key: str, shards: int) -> int:
    """Stable key→shard assignment: SHA-256 of the key, mod ``shards``.

    Pure and process-independent; the checker, the router, and any
    external client all compute the same owner for a key.
    """
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    digest = hashlib.sha256(f"shard-key:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % shards


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(q * len(sorted_values))))
    return sorted_values[rank]


class Router:
    """Admission-controlled front door over ``k`` abcast groups.

    Args:
        engine: The shared simulation engine (clock + timers).
        groups: The built per-shard systems, index = shard id.
        capacity: Max in-flight operations per shard before the
            admission policy engages.
        policy: ``"shed"`` or ``"delay"`` (see module docstring).
        forward_latency: Simulated client→entry-replica hop, seconds.
        retry_delay: Re-attempt interval for the ``"delay"`` policy.

    Attributes:
        deadline: Optional absolute time after which parked retries are
            shed instead of re-armed (set to the workload's end so a
            saturated ``"delay"`` run still quiesces).
        measure_from / measure_until: The measurement window for
            :meth:`window_stats`; arrivals outside it are warmup /
            cooldown and excluded from rates and percentiles.
    """

    def __init__(
        self,
        engine: "Engine",
        groups: list["System"],
        capacity: int = 64,
        policy: str = "shed",
        forward_latency: float = 50e-6,
        retry_delay: float = 2e-3,
    ) -> None:
        if not groups:
            raise ConfigurationError("router needs at least one group")
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        if policy not in ("shed", "delay"):
            raise ConfigurationError(f"unknown admission policy {policy!r}")
        self.engine = engine
        self.groups = groups
        self.capacity = capacity
        self.policy = policy
        self.forward_latency = forward_latency
        self.retry_delay = retry_delay
        self.deadline: float | None = None
        self.measure_from = 0.0
        self.measure_until: float | None = None

        k = len(groups)
        self._assignments: dict[str, int] = {}
        #: mid -> arrival time, per shard (the in-flight set).
        self._inflight: list[dict[object, float]] = [{} for _ in range(k)]
        #: Parked arrivals awaiting re-admission (``"delay"`` only).
        self._parked: list[int] = [0] * k
        #: In-flight plus parked operations over all shards, kept
        #: current at every change (``pending`` is read per event).
        self._pending = 0
        self._rr: list[int] = [0] * k
        self.offered = [0] * k
        self.admitted = [0] * k
        self.shed = [0] * k
        self.delayed = [0] * k
        #: Completed ops per shard: (arrival_time, sojourn_seconds).
        self.completions: list[list[tuple[float, float]]] = [
            [] for _ in range(k)
        ]
        for i, group in enumerate(groups):
            for pid in group.config.processes:
                group.abcasts[pid].on_adeliver(
                    lambda message, _i=i: self._on_adeliver(_i, message)
                )

    # ------------------------------------------------------------------
    # key assignment

    @property
    def shards(self) -> int:
        return len(self.groups)

    def shard_of(self, key: str) -> int:
        """Resolve (and memoize) the shard owning ``key``."""
        shard = self._assignments.get(key)
        if shard is None:
            shard = self._assignments[key] = shard_for(key, self.shards)
        return shard

    def rebalance(self, new_shards: int) -> None:
        """Refuse any resharding that would move an assigned key.

        Changing the modulus relocates ~``1 - 1/k`` of the keyspace;
        without a migration protocol that silently forks each moved
        key's history across two total orders.  Until such a protocol
        exists this fails loudly, naming the keys that would move.
        """
        moved = sorted(
            key
            for key, shard in self._assignments.items()
            if shard_for(key, new_shards) != shard
        )
        if moved:
            shown = ", ".join(repr(k) for k in moved[:8])
            more = f" (+{len(moved) - 8} more)" if len(moved) > 8 else ""
            raise ConfigurationError(
                f"rebalancing {self.shards} -> {new_shards} shards would "
                f"move keys {shown}{more} to new owners; key migration is "
                "not implemented — build a new sharded system instead"
            )

    # ------------------------------------------------------------------
    # admission + forwarding

    def submit(self, key: str, payload: "Payload") -> bool:
        """Route ``payload`` by ``key``; returns True iff admitted now."""
        return self.submit_shard(self.shard_of(key), payload)

    def sink(self, shard: int) -> Callable[["Payload"], bool]:
        """A per-shard submit callable (an open-loop workload ``sink``)."""
        return lambda payload: self.submit_shard(shard, payload)

    def submit_shard(self, shard: int, payload: "Payload") -> bool:
        """Offer ``payload`` to ``shard`` through admission control."""
        self.offered[shard] += 1
        return self._admit(shard, payload, self.engine.now, first=True)

    def _admit(
        self, shard: int, payload: "Payload", arrival: float, first: bool
    ) -> bool:
        if len(self._inflight[shard]) >= self.capacity:
            if self.policy == "shed":
                self.shed[shard] += 1
                return False
            if first:
                self.delayed[shard] += 1
            now = self.engine.now
            if self.deadline is not None and now + self.retry_delay >= self.deadline:
                self.shed[shard] += 1  # window over: parked op is lost
                return False
            self._parked[shard] += 1
            self._pending += 1
            self.engine.schedule(
                self.retry_delay, self._retry, shard, payload, arrival
            )
            return False
        self.admitted[shard] += 1
        # Reserve capacity at admission time; the mid exists only after
        # the forwarding hop, so park a placeholder keyed by a fresh
        # token and swap it for the mid when the abroadcast happens.
        token = object()
        self._inflight[shard][token] = arrival
        self._pending += 1
        self.engine.schedule(
            self.forward_latency, self._forward, shard, payload, token
        )
        return True

    def _retry(self, shard: int, payload: "Payload", arrival: float) -> None:
        self._parked[shard] -= 1
        self._pending -= 1
        self._admit(shard, payload, arrival, first=False)

    def _forward(self, shard: int, payload: "Payload", token: object) -> None:
        arrival = self._inflight[shard].pop(token)
        message = self._abroadcast(shard, payload)
        if message is None:
            # Every replica crashed; the op is lost, not in-flight.
            self.shed[shard] += 1
            self.admitted[shard] -= 1
            self._pending -= 1
            return
        self._inflight[shard][message.mid] = arrival

    def inject(self, shard: int, payload: "Payload") -> "AppMessage | None":
        """Control-plane abroadcast: bypass admission, pick a live entry.

        Used by the two-group commit layer for prepares and outcomes —
        shedding a commit decision would wedge a transaction, so the
        control plane is never subject to the data-plane bound.  Returns
        ``None`` only when every replica of the group has crashed.
        """
        return self._abroadcast(shard, payload)

    def _abroadcast(self, shard: int, payload: "Payload") -> "AppMessage | None":
        """Abroadcast at the next live replica (round-robin entry)."""
        group = self.groups[shard]
        pids = tuple(group.config.processes)
        for _ in range(len(pids)):
            pid = pids[self._rr[shard] % len(pids)]
            self._rr[shard] += 1
            message = group.abcasts[pid].abroadcast(payload)
            if message is not None:
                return message
        return None

    def _on_adeliver(self, shard: int, message: "AppMessage") -> None:
        arrival = self._inflight[shard].pop(message.mid, None)
        if arrival is None:
            return  # later replica of an already-completed op
        self._pending -= 1
        self.completions[shard].append((arrival, self.engine.now - arrival))

    # ------------------------------------------------------------------
    # introspection

    def pending(self) -> int:
        """Operations still in flight or parked (0 = quiescent router).

        O(1): ``run_shard_point``'s drain phase asks after every event.
        """
        return self._pending

    def shard_stats(self, shard: int) -> dict[str, float]:
        """Measurement-window counters for one shard."""
        lo = self.measure_from
        hi = self.measure_until
        window = [
            sojourn
            for arrival, sojourn in self.completions[shard]
            if arrival >= lo and (hi is None or arrival < hi)
        ]
        window.sort()
        span = (hi - lo) if hi is not None else (self.engine.now - lo)
        span = max(span, 1e-12)
        return {
            "offered": float(self.offered[shard]),
            "admitted": float(self.admitted[shard]),
            "shed": float(self.shed[shard]),
            "delayed": float(self.delayed[shard]),
            "completed": float(len(window)),
            "goodput": len(window) / span,
            "sojourn_p50_ms": _percentile(window, 0.50) * 1e3,
            "sojourn_p99_ms": _percentile(window, 0.99) * 1e3,
            "sojourn_mean_ms": (
                sum(window) / len(window) * 1e3 if window else 0.0
            ),
        }

    def window_count(self, window: float) -> int:
        """Number of fixed-width windows covering the measurement span.

        A pure function of the window width and the measurement bounds
        (not of the traffic), so every point of a sweep with the same
        ``duration``/``warmup`` produces the same windowed schema.
        """
        if window <= 0:
            raise ConfigurationError(f"window must be > 0, got {window}")
        lo = self.measure_from
        hi = (
            self.measure_until
            if self.measure_until is not None
            else self.engine.now
        )
        span = max(hi - lo, 0.0)
        return max(1, ceil(span / window - 1e-9))

    def windowed_stats(
        self, window: float, shard: int | None = None
    ) -> list[dict[str, float]]:
        """Fixed-width completion windows over the measurement span.

        Completions are bucketed by **arrival** time into
        :meth:`window_count` windows of ``window`` seconds starting at
        ``measure_from``; each bucket reports its bounds, completion
        count, goodput, and sojourn p99 — the time series the sweep
        layer exports as ``window.<i>.*`` columns and the telemetry
        sampler plots live.

        Args:
            window: Bucket width, simulated seconds.
            shard: One shard's completions, or ``None`` for all shards
                aggregated.
        """
        count = self.window_count(window)
        lo = self.measure_from
        hi = (
            self.measure_until
            if self.measure_until is not None
            else self.engine.now
        )
        buckets: list[list[float]] = [[] for _ in range(count)]
        if shard is None:
            source = [c for per_shard in self.completions for c in per_shard]
        else:
            source = list(self.completions[shard])
        for arrival, sojourn in source:
            if arrival < lo or arrival >= hi:
                continue
            index = min(count - 1, int((arrival - lo) / window))
            buckets[index].append(sojourn)
        out = []
        for i, bucket in enumerate(buckets):
            bucket.sort()
            start = lo + i * window
            end = min(hi, start + window)
            span = max(end - start, 1e-12)
            out.append(
                {
                    "start": start,
                    "end": end,
                    "completed": float(len(bucket)),
                    "goodput": len(bucket) / span,
                    "sojourn_p99_ms": _percentile(bucket, 0.99) * 1e3,
                }
            )
        return out

    def window_stats(self) -> dict[str, float]:
        """Aggregate measurement-window stats across all shards."""
        per_shard = [self.shard_stats(i) for i in range(self.shards)]
        total = {
            name: sum(s[name] for s in per_shard)
            for name in ("offered", "admitted", "shed", "delayed",
                         "completed", "goodput")
        }
        lo = self.measure_from
        hi = self.measure_until
        sojourns = sorted(
            sojourn
            for shard in self.completions
            for arrival, sojourn in shard
            if arrival >= lo and (hi is None or arrival < hi)
        )
        total["sojourn_p50_ms"] = _percentile(sojourns, 0.50) * 1e3
        total["sojourn_p99_ms"] = _percentile(sojourns, 0.99) * 1e3
        total["sojourn_mean_ms"] = (
            sum(sojourns) / len(sojourns) * 1e3 if sojourns else 0.0
        )
        offered = total["offered"]
        total["shed_rate"] = total["shed"] / offered if offered else 0.0
        return total
