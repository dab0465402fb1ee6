"""The outcome of the n = 3 registry matrix that CI explores, pinned.

Recorded at commit 8b668fa, where an observer-fed tracker still
maintained the state fingerprints the search then pruned on.  Deleting
the pruning changed none of these values (it dropped a ``pruned``
column): breadth-first search at budget 300 expands few runs before its
frontier outgrows the budget, and the one cut-off the pruning still
made, on ``mr-indirect``, left that row unchanged.
"""

from repro.explore import explore, registry_explore_specs

#: label -> (schedules, exhausted, violations, property, repro).
REGISTRY_MATRIX = {
    "indirect/ct-indirect/flood": (300, False, 0, "", ""),
    "indirect/ct-indirect/sender": (300, False, 0, "", ""),
    "indirect/mr-indirect/flood": (300, False, 0, "", ""),
    "indirect/mr-indirect/sender": (300, False, 0, "", ""),
    "faulty-ids/ct/flood": (32, False, 1, "Abcast Validity", "5:c2"),
    "faulty-ids/ct/sender": (32, False, 1, "Abcast Validity", "5:c2"),
    "faulty-ids/mr/flood": (32, False, 1, "Abcast Validity", "5:c2"),
    "faulty-ids/mr/sender": (32, False, 1, "Abcast Validity", "5:c2"),
    "urb-ids/ct": (300, False, 0, "", ""),
    "urb-ids/mr": (300, False, 0, "", ""),
    "on-messages/ct/flood": (300, False, 0, "", ""),
    "on-messages/ct/sender": (300, False, 0, "", ""),
    "on-messages/mr/flood": (300, False, 0, "", ""),
    "on-messages/mr/sender": (300, False, 0, "", ""),
    "sequencer/none": (300, False, 0, "", ""),
}


def test_pinned_registry_matrix_outcomes():
    """CI's matrix (n = 3, budget 300), searched serially in-process."""
    outcomes = {}
    for spec in registry_explore_specs(n=3, budget=300):
        outcome = explore(spec)
        first = outcome.violations[0] if outcome.violations else None
        outcomes[spec.label] = (
            outcome.schedules,
            outcome.exhausted,
            len(outcome.violations),
            first.prop if first else "",
            first.repro if first else "",
        )
    assert outcomes == REGISTRY_MATRIX
