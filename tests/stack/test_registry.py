"""Tests for the layer registry and registry-driven composition.

The tentpole acceptance tests: every registered ``(abcast, consensus,
rb, fd)`` combination the compatibility constraints allow builds and
*runs* (messages get adelivered and the safety checkers pass), and
unknown names / incompatible pairs raise ``ConfigurationError`` naming
the registry entry, with a closest-match suggestion for typos.
"""

import pytest

from repro import StackSpec, build_system, check_abcast, make_payload
from repro.core.exceptions import ConfigurationError
from repro.stack import LayerEntry, LayerRegistry, frame_kind_conflicts, layers

ALL_COMBINATIONS = sorted(layers.compatible_combinations())


class TestLayerRegistryMachinery:
    def test_register_get_names(self):
        registry = LayerRegistry("demo")
        registry.register("alpha", "first")
        registry.add(LayerEntry("beta", "second", meta={"bound": 3}))
        assert registry.names() == ("alpha", "beta")
        assert "alpha" in registry and "gamma" not in registry
        assert registry.get("beta")["bound"] == 3
        assert len(registry) == 2

    def test_duplicate_registration_rejected(self):
        registry = LayerRegistry("demo")
        registry.register("alpha", "first")
        with pytest.raises(ConfigurationError, match="already has an entry"):
            registry.register("alpha", "again")

    def test_unknown_name_suggests_closest_match(self):
        registry = LayerRegistry("demo")
        registry.register("sequencer", "x")
        registry.register("indirect", "y")
        with pytest.raises(ConfigurationError) as err:
            registry.get("sequencr")
        assert "unknown demo 'sequencr'" in str(err.value)
        assert "did you mean 'sequencer'?" in str(err.value)
        assert "indirect" in str(err.value)  # full catalog listed

    def test_missing_meta_attribute_names_the_entry(self):
        entry = LayerEntry("alpha", "first")
        with pytest.raises(ConfigurationError, match="'alpha' declares no"):
            entry["codec"]

    def test_frame_kind_conflicts(self):
        a = LayerEntry("a", "", frame_kinds=("x.data", "x.ack"))
        b = LayerEntry("b", "", frame_kinds=("x.data",))
        assert frame_kind_conflicts([a, b]) == {"x.data": ["a", "b"]}
        assert frame_kind_conflicts([a]) == {}

    def test_shipped_catalog_has_no_frame_kind_conflicts(self):
        """No two co-mountable layers claim the same wire kind."""
        entries = [
            entry
            for registry in layers.FAMILIES
            for entry in registry
        ]
        assert frame_kind_conflicts(entries) == {}

    def test_declared_frame_kinds_are_the_registered_ones(self):
        """Every kind the catalog declares (and ``--list-variants``
        prints) is registered on a transport by some combination, and no
        transport registers an undeclared kind."""
        assert {combo[3] for combo in ALL_COMBINATIONS} == {
            "oracle", "heartbeat",
        }
        registered = set()
        for abcast, consensus, rb, fd in ALL_COMBINATIONS:
            system = build_system(StackSpec(
                n=4, abcast=abcast, consensus=consensus, rb=rb, fd=fd,
            ))
            for transport in system.transports.values():
                registered.update(transport._handlers)
        declared = {
            kind
            for registry in layers.FAMILIES
            for entry in registry
            for kind in entry.frame_kinds
        }
        assert registered == declared


class TestSpecValidationThroughRegistry:
    def test_unknown_abcast_suggests(self):
        with pytest.raises(ConfigurationError) as err:
            StackSpec(n=3, abcast="indirct")
        assert "unknown abcast 'indirct'" in str(err.value)
        assert "did you mean 'indirect'?" in str(err.value)

    def test_unknown_consensus_suggests(self):
        with pytest.raises(ConfigurationError) as err:
            StackSpec(n=3, abcast="indirect", consensus="ct-indirekt")
        assert "unknown consensus" in str(err.value)
        assert "did you mean 'ct-indirect'?" in str(err.value)

    @pytest.mark.parametrize("abcast,consensus", [
        ("indirect", "ct"),            # indirect needs an indirect algorithm
        ("faulty-ids", "ct-indirect"),  # and vice versa
        ("urb-ids", "mr-indirect"),
        ("on-messages", "none"),
        ("sequencer", "ct"),           # the sequencer mounts no consensus
    ])
    def test_incompatible_pair_names_the_registry_entry(self, abcast, consensus):
        with pytest.raises(ConfigurationError) as err:
            StackSpec(n=4, abcast=abcast, consensus=consensus)
        message = str(err.value)
        assert f"abcast registry entry {abcast!r}" in message
        assert "requires consensus in" in message

    def test_unknown_rb_fd_network_suggest(self):
        with pytest.raises(ConfigurationError, match="unknown rb 'floood'"):
            StackSpec(n=3, rb="floood")
        with pytest.raises(ConfigurationError, match="unknown fd"):
            StackSpec(n=3, fd="hartbeat")
        with pytest.raises(ConfigurationError, match="unknown network"):
            StackSpec(n=3, network="contentoin")

    def test_uniform_rb_not_directly_selectable(self):
        with pytest.raises(ConfigurationError, match="not directly selectable"):
            StackSpec(n=3, rb="uniform")

    @pytest.mark.parametrize("network", ["constant", "contention"])
    def test_constant_knobs_validated_for_every_network(self, network):
        """A negative knob is a typo whether or not the knob is inert
        under the selected model (pre-registry behaviour preserved)."""
        for field in ("constant_latency", "constant_per_byte",
                      "constant_jitter"):
            with pytest.raises(ConfigurationError):
                StackSpec(n=3, network=network, **{field: -1e-6})


class TestEveryRegisteredCombinationRuns:
    """Build and run the full compatibility matrix (the smoke matrix the
    hand-wired builder could never enumerate)."""

    @pytest.mark.parametrize(
        "abcast,consensus,rb,fd",
        ALL_COMBINATIONS,
        ids=["-".join(combo) for combo in ALL_COMBINATIONS],
    )
    def test_combination_builds_runs_and_checks(self, abcast, consensus, rb, fd):
        spec = StackSpec(
            n=4, abcast=abcast, consensus=consensus, rb=rb, fd=fd,
            network="constant", constant_latency=2e-4, seed=1,
        )
        system = build_system(spec)
        for pid in (1, 2, 3):
            system.processes[pid].schedule_at(
                0.001 * pid,
                lambda p=pid: system.abcasts[p].abroadcast(make_payload(20)),
            )
        assert system.run_until_delivered(count=3, timeout=5.0), (
            f"{abcast}/{consensus}/{rb}/{fd} did not deliver"
        )
        check_abcast(system.trace, system.config)

    def test_matrix_covers_all_five_abcast_variants(self):
        assert {combo[0] for combo in ALL_COMBINATIONS} == {
            "indirect", "faulty-ids", "urb-ids", "on-messages", "sequencer",
        }


class TestRegistryExtensionSeam:
    """Registering a new variant composes through the untouched builder."""

    def test_new_abcast_entry_builds_without_composer_changes(self):
        from repro.abcast.sequencer import SequencerAtomicBroadcast

        class SlowSequencer(SequencerAtomicBroadcast):
            NAME = "abcast-slow-sequencer"

        name = "test-slow-sequencer"
        layers.ABCASTS.register(
            name,
            "sequencer with a lazy retry timer (test-only)",
            factory=lambda ctx, pid: (None, None, SlowSequencer(
                ctx.transports[pid], ctx.detectors[pid], ctx.config,
                resend_interval=0.5,
            )),
            meta={
                "compatible_consensus": ("none",),
                "codec": None,
                "rb_override": None,
                "default_f": lambda spec: spec.n - 1,
            },
        )
        try:
            system = build_system(StackSpec(
                n=3, abcast=name, consensus="none", network="constant",
            ))
            assert isinstance(system.abcasts[1], SlowSequencer)
            assert system.abcasts[1].resend_interval == 0.5
            # The new name participates in spec validation immediately.
            with pytest.raises(ConfigurationError, match="requires consensus"):
                StackSpec(n=3, abcast=name, consensus="ct")
        finally:
            layers.ABCASTS._entries.pop(name)

    def test_combination_enumeration_is_registry_driven(self):
        from repro.harness.suite import registry_variants

        variants = registry_variants(n=3, network="constant")
        labels = [label for label, _ in variants]
        assert any(label.startswith("sequencer") for label in labels)
        assert len(labels) == len(set(labels))
        for _, stack in variants:
            assert stack.n == 3
            assert stack.network == "constant"
