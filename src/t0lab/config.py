"""Resource caps and run configuration.

All enumerative code paths consult a :class:`Caps` instance.  Below a cap
the definitional enumeration runs raw; above it, operations either raise
:class:`~t0lab.errors.CapExceeded` (user-facing enumerations) or switch to
an exact reduced evaluation and record that they did (checkers).
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace


def _hash_once(config) -> None:
    """Store the hash of a frozen config's fields on it.  Memo keys hold
    configs, and the generated ``__hash__`` would rehash every field on
    each lookup."""
    object.__setattr__(config, "_hash", hash(tuple(getattr(config, f.name) for f in fields(config))))


@dataclass(frozen=True)
class Caps:
    # carrier size up to which powerset-style enumerations run (2^n subsets)
    subset_enum: int = 12
    # carrier size cap for down-set (closed) and up-set (open) listings
    family_listing: int = 14
    # |K(X)| up to which H-families of compacts are listed raw, as the
    # H-members of the Smyth space listed per point; above it, generator instances
    compact_family_enum: int = 8
    # carrier size cap for m_family / property_q ground enumeration
    m_family: int = 12
    # largest Smyth or Hoare "closed" carrier we will materialize
    smyth_carrier: int = 2048
    # base carrier size allowed for the double Smyth power
    double_power_base: int = 3
    # |Y|^|X| bound for continuous-map enumeration
    map_count: int = 200000
    # carrier size up to which raw topology-family comparisons run
    topology_compare: int = 16
    # largest target size used by universal-property verification
    target_bound: int = 4
    # number of seeded spot-check samples used alongside reduced paths
    sample_count: int = 64

    def __post_init__(self):
        _hash_once(self)

    def __hash__(self):
        return self._hash

    def with_(self, **kw) -> "Caps":
        return replace(self, **kw)


@dataclass(frozen=True)
class RunConfig:
    caps: Caps = field(default_factory=Caps)
    seed: int = 0

    def __post_init__(self):
        _hash_once(self)

    def __hash__(self):
        return self._hash


DEFAULT = RunConfig()
