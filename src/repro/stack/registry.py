"""The layer registry: named factories per protocol-layer family.

Stack composition used to be hand-wired: the builder owned private
``_ABCAST_VARIANTS`` / ``_CONSENSUS_CLASSES`` tables, ``StackSpec``
hardcoded the legal names, and every new protocol stack meant editing
the builder, the spec validator, the suite axes, and the figure code in
lockstep.  This module replaces that with a small registry subsystem:

* a :class:`LayerRegistry` per **layer family** (network model,
  topology placement, failure detector, reliable broadcast, consensus,
  atomic broadcast, workload);
* one :class:`LayerEntry` per named variant, carrying its factory, its
  declared **compatibility constraints** (e.g. the ``indirect`` abcast
  requires an ``*-indirect`` consensus), the **frame kinds** it owns on
  the wire, and an optional per-entry ``StackSpec`` field validator;
* lookup errors that name the registry and suggest the closest
  registered entry, so a typo'd variant fails at spec construction with
  ``did you mean ...`` instead of a deep ``KeyError``.

The default entries live in :mod:`repro.stack.layers`; a new protocol
stack is registered there (or by any importing module) without touching
the composer in :mod:`repro.stack.builder` — the fixed-sequencer
baseline (:mod:`repro.abcast.sequencer`) is the worked example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, TYPE_CHECKING

from repro.core.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stack.builder import StackSpec


@dataclass(frozen=True)
class LayerEntry:
    """One registered variant of one layer family.

    Attributes:
        name: The registry key; what ``StackSpec`` fields name.
        description: One line for ``--list-variants`` and docs.
        factory: Family-specific build callable (the composer decides
            the calling convention per family; see
            :mod:`repro.stack.layers`).
        frame_kinds: Wire frame kinds this layer owns when mounted
            (``"rb1.data"``, ``"seq.order.data"``, ...).  Declarative: the
            transport still enforces uniqueness at runtime, but the
            registry can report ownership without building anything.
        validate_spec: Optional hook run at ``StackSpec`` construction;
            raises :class:`ConfigurationError` on bad field combinations
            for this entry.
        meta: Free-form family-specific attributes (compatibility
            constraints, codecs, resilience bounds, ...).  Read via
            :meth:`get` so a missing attribute fails loudly.
    """

    name: str
    description: str
    factory: Callable[..., Any] | None = None
    frame_kinds: tuple[str, ...] = ()
    validate_spec: Callable[["StackSpec"], None] | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        return self.meta.get(key, default)

    def __getitem__(self, key: str) -> Any:
        try:
            return self.meta[key]
        except KeyError:
            raise ConfigurationError(
                f"registry entry {self.name!r} declares no {key!r} attribute"
            ) from None


class LayerRegistry:
    """Named factories of one layer family, with helpful lookups.

    >>> consensus = LayerRegistry("consensus")
    >>> consensus.add(LayerEntry("ct", "Chandra-Toueg"))
    >>> consensus.get("ct").description
    'Chandra-Toueg'
    >>> consensus.get("cf")
    Traceback (most recent call last):
        ...
    repro.core.exceptions.ConfigurationError: unknown consensus 'cf'; \
did you mean 'ct'? (registered: ct)
    """

    def __init__(self, family: str) -> None:
        self.family = family
        self._entries: dict[str, LayerEntry] = {}

    def add(self, entry: LayerEntry) -> LayerEntry:
        """Register ``entry``; re-registering a name is a config error."""
        if entry.name in self._entries:
            raise ConfigurationError(
                f"{self.family} registry already has an entry named "
                f"{entry.name!r}"
            )
        self._entries[entry.name] = entry
        return entry

    def register(self, name: str, description: str, **kwargs: Any) -> LayerEntry:
        """Convenience: build and add a :class:`LayerEntry` in one call."""
        return self.add(LayerEntry(name=name, description=description, **kwargs))

    def get(self, name: str) -> LayerEntry:
        """Resolve ``name``; unknown names raise with a suggestion."""
        entry = self._entries.get(name)
        if entry is None:
            raise ConfigurationError(self.unknown_message(name))
        return entry

    def unknown_message(self, name: str) -> str:
        """The error text for an unknown ``name`` (with a suggestion)."""
        import difflib  # imported on first use: only a misspelt name needs it

        hint = ""
        close = difflib.get_close_matches(str(name), self._entries, n=1)
        if close:
            hint = f"; did you mean {close[0]!r}?"
        return (
            f"unknown {self.family} {name!r}{hint} "
            f"(registered: {', '.join(self.names())})"
        )

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[LayerEntry]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> tuple[str, ...]:
        """Registered names, in registration order."""
        return tuple(self._entries)

    def entries(self) -> tuple[LayerEntry, ...]:
        return tuple(self._entries.values())


def frame_kind_conflicts(entries: Iterator[LayerEntry]) -> dict[str, list[str]]:
    """Frame kinds claimed by more than one of ``entries``.

    A purely declarative check over the registry's ownership metadata:
    composing two layers that both claim a kind would fail at transport
    registration, and this reports it without building a system.
    """
    owners: dict[str, list[str]] = {}
    for entry in entries:
        for kind in entry.frame_kinds:
            owners.setdefault(kind, []).append(entry.name)
    return {kind: names for kind, names in owners.items() if len(names) > 1}
