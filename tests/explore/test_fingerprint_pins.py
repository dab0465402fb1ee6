"""State fingerprints are a function of *descriptions*, pinned here.

``MessageId`` and ``Frame`` are tuples underneath (C-speed hashing and
construction), and ``_describe_value`` has a generic tuple branch: if
either type ever reached it, every fingerprint would silently change
— pruning would still work, just differently, and no functional test
would notice.  These pins make that loud: the descriptions themselves,
and every per-step ``Menu.fingerprint`` of one small exploration —
recorded eagerly, since the search itself fingerprints only the steps
it can expand (that subsequence is pinned too) — compared with values
recorded at commit f28252a (when both types were frozen dataclasses).

One more pin was recorded at commit 8b668fa, where an observer-fed
tracker still maintained the fingerprints: the outcome of the n = 3
registry matrix that CI explores.  Its ``pruned`` column (and the
search's own cut-off count and consulted fingerprints above) were
re-recorded when breadth-first search stopped expanding runs whose
children its budget can never reach; every other value is the old one.
"""

import hashlib

from repro.core.identifiers import MessageId
from repro.core.message import AppMessage, make_payload
from repro.explore import explore, explore_spec, registry_explore_specs
from repro.explore.executor import ScheduleExecutor
from repro.explore.fingerprint import _describe_value
from repro.explore.strategies import STRATEGIES
from repro.net.frame import Frame


class TestDescriptions:
    def test_message_id_describes_by_name_not_as_a_pair(self):
        mid = MessageId(origin=2, seq=5)
        assert _describe_value(mid) == "MessageId(origin=2, seq=5)"
        assert _describe_value((mid, 3)) == ("MessageId(origin=2, seq=5)", 3)
        assert _describe_value(frozenset({mid})) == (
            "set", "'MessageId(origin=2, seq=5)'",
        )

    def test_frame_description_excludes_seq_and_recurses_into_body(self):
        mid = MessageId(1, 1)
        described = _describe_value(
            Frame(1, 3, "cons.est", (4, frozenset({mid})), 12, seq=77)
        )
        assert described == (
            "frame", 1, 3, "cons.est", True, 12,
            (4, ("set", "'MessageId(origin=1, seq=1)'")),
        )
        assert described == _describe_value(
            Frame(1, 3, "cons.est", (4, frozenset({mid})), 12, seq=78)
        )

    def test_frozen_dataclass_embedding_an_id_keeps_its_repr(self):
        message = AppMessage(
            mid=MessageId(1, 2), sender=1, payload=make_payload(4)
        )
        assert _describe_value(message) == repr(message)
        assert "MessageId(origin=1, seq=2)" in repr(message)


class _RecordingExecutor(ScheduleExecutor):
    """Records what the search consulted and, for the same schedules,
    what an eager run (every step recorded) fingerprints."""

    def __init__(self, spec):
        super().__init__(spec)
        self.consulted: list[str] = []
        self.eager: list[str] = []

    def run(self, deviations=(), **kwargs):
        record = super().run(deviations, **kwargs)
        self.consulted.extend(menu.fingerprint for menu in record.menus)
        eager = super().run(deviations)
        self.eager.extend(menu.fingerprint for menu in eager.menus)
        return record


def _is_subsequence(short: list[str], long: list[str]) -> bool:
    remaining = iter(long)
    return all(item in remaining for item in short)


def test_pinned_exploration_fingerprints():
    """Faulty-ids stack, n=3, the first 50 delay-bounded schedules."""
    spec = explore_spec("faulty", n=3, budget=50, stop_after=0)
    executor = _RecordingExecutor(spec)
    result = STRATEGIES.get(spec.strategy).factory(executor, spec)
    assert (result.schedules, result.pruned, len(result.violations)) == (
        50, 0, 3,
    )
    # Every decision step of the 50 schedules, recorded eagerly: the
    # values of commit f28252a, unchanged.
    fingerprints = executor.eager
    assert len(fingerprints) == 2103
    assert len(set(fingerprints)) == 584
    assert fingerprints[:4] == [
        "90a0c29b1d09c6a7444aed4ee14a1129",
        "7e9c469a0feb9cf7e1d9dd4226570402",
        "fc6da96e7e83f70056e8ac9de489d501",
        "887746e9cab48ad8cb274d706232919e",
    ]
    assert fingerprints[-2:] == [
        "2e18cb3106dae4ad8eee02c5c37bd4b9",
        "46ffdeb09dd577d39e6be40f0ff36e86",
    ]
    assert hashlib.sha256("\n".join(fingerprints).encode()).hexdigest() == (
        "538cb6debbc5bf15da3384d924d5cb97f8b881f2abaca3cfa1ef2863b3d8629f"
    )
    # What the search itself reads: the expansion windows of the runs
    # whose children the budget can reach — here the root's alone.
    consulted = executor.consulted
    assert len(consulted) == 46
    assert _is_subsequence(consulted, fingerprints)
    assert hashlib.sha256("\n".join(consulted).encode()).hexdigest() == (
        "8d35955e4e6d144ce51e135fb8fdb54e15e023ef26abcc0c40252c7644e00892"
    )


#: label -> (schedules, pruned, exhausted, violations, property, repro).
#: Breadth-first at budget 300 expands few runs before its frontier
#: outgrows the budget, so few cut-offs remain to count.
REGISTRY_MATRIX = {
    "indirect/ct-indirect/flood": (300, 0, False, 0, "", ""),
    "indirect/ct-indirect/sender": (300, 0, False, 0, "", ""),
    "indirect/mr-indirect/flood": (300, 1, False, 0, "", ""),
    "indirect/mr-indirect/sender": (300, 1, False, 0, "", ""),
    "faulty-ids/ct/flood": (32, 0, False, 1, "Abcast Validity", "5:c2"),
    "faulty-ids/ct/sender": (32, 0, False, 1, "Abcast Validity", "5:c2"),
    "faulty-ids/mr/flood": (32, 0, False, 1, "Abcast Validity", "5:c2"),
    "faulty-ids/mr/sender": (32, 0, False, 1, "Abcast Validity", "5:c2"),
    "urb-ids/ct": (300, 0, False, 0, "", ""),
    "urb-ids/mr": (300, 0, False, 0, "", ""),
    "on-messages/ct/flood": (300, 0, False, 0, "", ""),
    "on-messages/ct/sender": (300, 0, False, 0, "", ""),
    "on-messages/mr/flood": (300, 0, False, 0, "", ""),
    "on-messages/mr/sender": (300, 0, False, 0, "", ""),
    "sequencer/none": (300, 0, False, 0, "", ""),
}


def test_pinned_registry_matrix_outcomes():
    """CI's matrix (n = 3, budget 300), searched serially in-process."""
    outcomes = {}
    for spec in registry_explore_specs(n=3, budget=300):
        outcome = explore(spec)
        first = outcome.violations[0] if outcome.violations else None
        outcomes[spec.label] = (
            outcome.schedules,
            outcome.pruned,
            outcome.exhausted,
            len(outcome.violations),
            first.prop if first else "",
            first.repro if first else "",
        )
    assert outcomes == REGISTRY_MATRIX
