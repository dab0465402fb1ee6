"""repro — a reproduction of *Solving Atomic Broadcast with Indirect
Consensus* (Ekwall & Schiper, DSN 2006).

The library implements, from scratch and over a deterministic
discrete-event simulation of a LAN cluster:

* the four ◇S consensus algorithms of the paper — Chandra-Toueg,
  Mostefaoui-Raynal, and their **indirect** adaptations (Algorithms
  2 and 3) that decide on message identifiers under the extra *No loss*
  guarantee;
* the reduction of atomic broadcast to (indirect) consensus
  (Algorithm 1) in all four evaluated stacks, including the *faulty*
  consensus-on-identifiers shortcut the paper warns about;
* the substrates: reliable broadcast (O(n) and O(n^2)), uniform
  reliable broadcast, heartbeat/oracle failure detectors, crash
  injection, and the contention network model behind the latency
  figures;
* trace checkers for every formal property, a workload/metrics/harness
  pipeline that regenerates every figure of the evaluation section.

Quickstart::

    from repro import StackSpec, build_system, make_payload

    spec = StackSpec(n=3, abcast="indirect", consensus="ct-indirect")
    with build_system(spec) as system:
        system.abcasts[1].abroadcast(make_payload(100, content="hello"))
        system.run_until_delivered(count=1, timeout=1.0)

See ``examples/quickstart.py`` for the guided version.
"""

from repro.checkers import (
    check_abcast,
    check_broadcast,
    check_consensus,
    check_shards,
)
from repro.explore import (
    ExploreSpec,
    explore_spec,
    registry_explore_specs,
    replay,
)
from repro.core import (
    AppMessage,
    MessageId,
    ProcessId,
    SystemConfig,
    make_payload,
)
from repro.failure.crash import CrashSchedule
from repro.metrics import PROBES, MetricValue, Probe, measure_latency
from repro.net.faults import (
    DelayRule,
    DuplicationRule,
    LossRule,
    PartitionWindow,
)
from repro.net.setups import SETUP_1, SETUP_2
from repro.net.topology import Topology
from repro.shard import (
    ShardSpec,
    ShardSweepSpec,
    build_sharded_system,
    run_shard_sweep,
    shard_for,
)
from repro.stack import StackSpec, System, build_system
from repro.workload import (
    BurstyWorkload,
    ClosedLoopWorkload,
    PoissonWorkload,
    SymmetricWorkload,
)

__version__ = "1.2.0"

__all__ = [
    "AppMessage",
    "BurstyWorkload",
    "ClosedLoopWorkload",
    "CrashSchedule",
    "DelayRule",
    "DuplicationRule",
    "ExploreSpec",
    "LossRule",
    "MessageId",
    "MetricValue",
    "PROBES",
    "PartitionWindow",
    "PoissonWorkload",
    "Probe",
    "ProcessId",
    "SETUP_1",
    "SETUP_2",
    "ShardSpec",
    "ShardSweepSpec",
    "StackSpec",
    "Topology",
    "SymmetricWorkload",
    "System",
    "SystemConfig",
    "build_sharded_system",
    "build_system",
    "check_abcast",
    "check_broadcast",
    "check_consensus",
    "check_shards",
    "explore_spec",
    "make_payload",
    "measure_latency",
    "registry_explore_specs",
    "replay",
    "run_shard_sweep",
    "shard_for",
]
