"""Subset systems: families of distinguished subsets, one per space.

The seven base tags and what they select on a finite carrier:

======  =====================================  ==========================
tag     selects                                finite-carrier note
======  =====================================  ==========================
``S``   singletons
``Cw``  countable nonempty chains              same sets as ``C``
``C``   nonempty chains
``Dw``  countable directed sets                same sets as ``D``
``D``   directed sets
``Rw``  countable irreducible sets             same sets as ``R``
``R``   irreducible sets
======  =====================================  ==========================

The countable tags are kept distinct so reports stay traceable even though
every subset of a finite carrier is countable.  A derived marker ``^d``,
``^R`` or ``^D`` widens a system to the sets it *determines* (sobriety-,
Rudin-, or strongly-determined).  On a finite carrier each derived system
collapses to the irreducible sets; the collapse is a theorem about finite
spaces, and the test suite pins it to the definitional predicates.

Family-level membership (a family of compact saturated sets as a subset of
the Smyth order, i.e. reverse inclusion) is the same predicate on the
family's own order, so power-space code and checkers share one
implementation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .config import DEFAULT, RunConfig
from .errors import (
    CapExceeded,
    EmptyFamily,
    EmptyMember,
    EmptySet,
    InternalError,
    MissingSystem,
    NotInM,
    PreconditionViolated,
    SpaceMismatch,
    UnsupportedDepth,
    UsageError,
)
from .spaces import (
    ClosedSet,
    CompactSat,
    FiniteSpace,
    _PerMask,
    _as_mask,
    _directed_mask,
    _inclusion_space,
    _irreducible_mask,
    bits,
)

__all__ = [
    "SubsetSystemId",
    "BASE_IDS",
    "ALL_IDS",
    "h_member",
    "h_family_member",
    "m_family",
    "rudin_minimal",
    "property_m_instance",
    "property_q_instance",
    "scott_h_open",
    "scott_h_continuous",
    "RudinWitness",
    "rudin_witness",
]

_BASES = ("S", "Cw", "C", "Dw", "D", "Rw", "R")
_DERIVED = ("d", "R", "D")
_ALIASES = {"Cω": "Cw", "Dω": "Dw", "Rω": "Rw"}

@dataclass(frozen=True)
class SubsetSystemId:
    """Identifier such as ``D``, ``Cw`` or ``D^R``.

    ``base`` is one of the seven tags; ``derived`` is ``None`` or one of
    ``d``/``R``/``D``.  Derived markers do not stack.
    """

    base: str
    derived: str | None = None

    def __post_init__(self):
        if self.base not in _BASES:
            raise MissingSystem(f"unknown subset system {self.base!r}")
        if self.derived is not None and self.derived not in _DERIVED:
            raise MissingSystem(f"unknown derived marker {self.derived!r}")

    @classmethod
    def parse(cls, text: str) -> "SubsetSystemId":
        if not isinstance(text, str) or not text:
            raise MissingSystem(f"not a subset-system id: {text!r}")
        parts = text.split("^")
        base = _ALIASES.get(parts[0], parts[0])
        if base not in _BASES:
            raise MissingSystem(f"unknown subset system {parts[0]!r}")
        if len(parts) == 1:
            return cls(base)
        if len(parts) > 2:
            raise UnsupportedDepth(f"derived markers do not stack: {text!r}")
        if parts[1] not in _DERIVED:
            raise MissingSystem(f"unknown derived marker {parts[1]!r} in {text!r}")
        return cls(base, parts[1])

    def __str__(self) -> str:
        return self.base if self.derived is None else f"{self.base}^{self.derived}"

    @property
    def base_core(self) -> str:
        """The tag with any countability marker dropped: S, C, D or R."""
        return self.base[:-1] if self.base.endswith("w") else self.base


BASE_IDS: tuple[SubsetSystemId, ...] = tuple(SubsetSystemId(b) for b in _BASES)
ALL_IDS: tuple[SubsetSystemId, ...] = BASE_IDS + tuple(
    SubsetSystemId(b, d) for b in _BASES for d in _DERIVED
)


def as_system(H) -> SubsetSystemId:
    if isinstance(H, SubsetSystemId):
        return H
    return SubsetSystemId.parse(H)


# -- membership: subsets of the carrier -----------------------------------


def _chain_mask(X: FiniteSpace, m: int) -> bool:
    """Is the nonempty mask ``m`` a chain?  Trusted, from the up rows:
    ``(up[i] >> j) & 1 or (up[j] >> i) & 1`` for each pair i < j, the
    second test only where the first fails."""
    up = X.up
    rest = m
    while rest:
        low = rest & -rest
        rest ^= low
        r = rest & ~up[low.bit_length() - 1]
        while r:
            lb = r & -r
            if not up[lb.bit_length() - 1] & low:
                return False
            r ^= lb
    return True


def _core_of(H: SubsetSystemId) -> str:
    """The S/C/D/R core that decides membership in H on a finite carrier:
    every derived system collapses to the irreducible sets."""
    return "R" if H.derived is not None else H.base_core


def _member(core: str, X: FiniteSpace, m: int) -> bool:
    """Membership of the nonempty mask ``m`` of X in the system with this
    S/C/D/R core, trusted.  Its validating fronts, ``h_member`` and
    ``spaces.is_directed``, ``is_irreducible`` and ``chain_core``, check
    their argument once and call the same forms."""
    if core == "S":
        return m & (m - 1) == 0
    if core == "C":
        return _chain_mask(X, m)
    if core == "D":
        return _directed_mask(X, m)
    return _irreducible_mask(X, m)


def _topped(X: FiniteSpace) -> Iterable[int]:
    """Each point x with every subset of its strict down-set: on a finite
    space the directed sets, and the irreducible sets, are exactly the
    nonempty sets with a greatest element."""
    for x, row in enumerate(X.down):
        rest = row & ~(1 << x)
        s = rest
        while True:
            yield 1 << x | s
            if not s:
                break
            s = (s - 1) & rest


def _chains(X: FiniteSpace) -> Iterable[int]:
    """The nonempty chains, each walked up the order from its least
    point along the up rows, as the sampled chains are, so a closure row
    that misses a point hides no chain from the paths that read closures.
    A step keeps the points strictly above the point it adds, dropping
    that point's own bit too, so the walk ends on any rows."""
    up = X.up
    for x in range(X.n):
        stack = [(1 << x, up[x] & ~(1 << x))]
        while stack:
            m, allowed = stack.pop()
            yield m
            for y in bits(allowed):
                stack.append((m | 1 << y, allowed & up[y] & ~(1 << y)))


def _singletons(X: FiniteSpace) -> Iterable[int]:
    return (1 << i for i in range(X.n))


_LISTINGS = {"S": _singletons, "C": _chains, "D": _topped, "R": _topped}


def _h_members(X: FiniteSpace, core: str) -> list[int]:
    """Every member of the system with this S/C/D/R core in ascending mask
    order, listed from the order at the cost of the list (D and R share
    one), built once per space: the one table every exhaustive quantifier
    over H(X) reads, and on a Smyth space the one listing of H-families of
    compacts.  ``_member`` is not consulted; ``d_space`` compares the D
    table with its raw 2^n scan.  Callers keep X.n within
    ``caps.subset_enum``, or a Smyth carrier within
    ``caps.compact_family_enum``."""
    listing = _LISTINGS[core]
    return X.memo(("h_members", listing), lambda: sorted(set(listing(X))))


def h_member(H, X: FiniteSpace, A) -> bool:
    """Is A a member of H(X)?

    Raises EmptySet for the empty set: all seven systems consist of
    nonempty sets.
    """
    H = as_system(H)
    m = _as_mask(X, A)
    if m == 0:
        raise EmptySet("subset-system members are nonempty")
    return _member(_core_of(H), X, m)


def _downsets(X: FiniteSpace, cap: int) -> list[int]:
    """``X.downsets()``, for a carrier of at most ``cap`` points."""
    if X.n > cap:
        raise CapExceeded(f"downset listing needs carrier <= {cap}, got {X.n}")
    return X.downsets()


# -- membership: families of compact saturated sets -----------------------


def family_masks(X: FiniteSpace, family) -> list[int]:
    masks = set()
    for K in family:
        if isinstance(K, CompactSat):
            if K.space is not X:
                raise SpaceMismatch("family member belongs to a different space")
            masks.add(K.mask)
        else:
            m = _as_mask(X, K)
            if m == 0:
                raise EmptyMember("compact saturated sets are nonempty")
            if not X.is_up(m):
                raise UsageError(f"{list(X.labels_of(m))} is not saturated (not an up-set)")
            masks.add(m)
    if not masks:
        raise EmptyFamily("the family has no members")
    return sorted(masks, key=lambda m: (m.bit_count(), m))


def sample_family(rng, X: FiniteSpace, ks: Sequence[int], steps: int, chain: bool) -> list[int]:
    """A seeded family of compact saturated sets, sorted by mask: a member
    k0 drawn from ``ks``, then ``steps`` more members, each the union of a
    random saturated set with the previous member (``chain``) or with k0.
    Every member contains k0, so k0 comes first."""
    k0 = ks[rng.randrange(len(ks))]
    fam = [k0]
    cur = k0
    for _ in range(steps):
        cur = (cur if chain else k0) | X.sat_mask(rng.getrandbits(X.n))
        fam.append(cur)
    return sorted(set(fam))


def _family_member(core: str, X: FiniteSpace, masks: Sequence[int]) -> bool:
    """Membership of the family, distinct masks sorted by (size, mask), in
    the system with this S/C/D/R core over the Smyth order: ``_member`` of
    the whole carrier of the family ordered by reverse inclusion.  Each
    family's order is built once per space, in one table of the memo
    (``"family spaces"``) keyed by the mask tuple."""
    table = X.memo("family spaces", lambda: _PerMask(lambda fam: _inclusion_space(X, fam, reverse=True)))
    F = table[tuple(masks)]
    return _member(core, F, F.full)


def h_family_member(H, X: FiniteSpace, family) -> bool:
    """Is the family a member of H(P_S(X)), P_S being the Smyth power space?

    Decided by the one membership predicate, ``_member``, on the family's
    own order, reverse inclusion, which is the specialization order of the
    Smyth power space restricted to the family.
    """
    return _family_member(_core_of(as_system(H)), X, family_masks(X, family))


# -- the M(family) machinery ----------------------------------------------


def m_family(X: FiniteSpace, family, config: RunConfig = DEFAULT) -> list[ClosedSet]:
    """Minimal closed sets meeting every member of the family, on a carrier
    of at most ``caps.m_family`` points."""
    masks = family_masks(X, family)
    members = [d for d in _downsets(X, config.caps.m_family) if all(d & k for k in masks)]
    # members is sorted by (size, mask); a member is minimal iff no
    # strictly smaller member is a subset of it
    out = []
    for i, d in enumerate(members):
        if not any(e != d and e & ~d == 0 for e in members[:i]):
            out.append(d)
    return [ClosedSet(X, d) for d in out]


def rudin_minimal(X: FiniteSpace, family, C) -> ClosedSet:
    """Shrink the closed set C to a minimal closed set still meeting every
    family member, by deleting maximal points greedily in index order.

    Greedy deletion does reach a minimal member: if a proper closed subset
    D of the current set still meets the family, some maximal point of the
    current set lies outside D (else D would contain all maximal points and
    hence the whole set), and deleting it keeps D inside, so a deletion is
    available whenever the current set is non-minimal.
    """
    masks = family_masks(X, family)
    cm = _as_mask(X, C)
    if not X.is_down(cm):
        raise UsageError("C must be closed")
    if not all(cm & k for k in masks):
        raise NotInM("C does not meet every member of the family")
    cur = cm
    changed = True
    while changed:
        changed = False
        for p in bits(X.max_mask(cur)):
            cand = cur & ~(1 << p)
            if cand and all(cand & k for k in masks):
                cur = cand
                changed = True
                break
    return ClosedSet(X, cur)


@dataclass(frozen=True)
class RudinWitness:
    """Evidence that a closed set is a minimal closed set meeting every
    member of some family from a given system."""

    system: SubsetSystemId
    space: FiniteSpace
    family: tuple[int, ...]
    minimal_set: int

    def recheck(self) -> bool:
        X = self.space
        if not h_family_member(self.system, X, list(self.family)):
            return False
        d = self.minimal_set
        if not X.is_down(d) or not all(d & k for k in self.family):
            return False
        # minimality: deleting any maximal point must lose some member
        for p in bits(X.max_mask(d)):
            cand = d & ~(1 << p)
            if cand and all(cand & k for k in self.family):
                return False
        return True

    def to_json(self) -> dict:
        X = self.space
        return {
            "system": str(self.system),
            "family": [list(X.labels_of(k)) for k in self.family],
            "minimal_set": list(X.labels_of(self.minimal_set)),
        }


def rudin_witness(H, X: FiniteSpace, A) -> RudinWitness | None:
    """A family witnessing that cl(A) is Rudin for the system H, or None.

    On a finite carrier an irreducible closed set has a greatest element t
    and the one-member family {up(t)} witnesses it; one-member families
    belong to every system.  Non-irreducible sets admit no witness for the
    systems here (their minimal meeting sets are point closures inside
    them); checked by ``recheck``, whose failure on the constructed
    witness is an :class:`InternalError`.
    """
    H = as_system(H)
    m = _as_mask(X, A)
    if m == 0:
        raise EmptySet("subset-system members are nonempty")
    cl = X.closure_mask(m)
    t = X.top_of(cl)
    if t is None:
        return None
    w = RudinWitness(H, X, (X.up[t],), cl)
    if not w.recheck():  # unreachable; keeps the witness honest
        raise InternalError("the one-member Rudin witness failed its recheck")
    return w


# -- property M and property Q, per instance ------------------------------


def _meeting_instance(H, X: FiniteSpace, family, A) -> tuple[str, list[int], int]:
    """The validated front of properties M and Q: the core of H, the
    family's masks and the mask of the closed set A, once the family is an
    H-family and A meets every member."""
    core = _core_of(as_system(H))
    masks = family_masks(X, family)
    am = _as_mask(X, A)
    if not X.is_down(am):
        raise UsageError("A must be closed")
    if not _family_member(core, X, masks):
        raise PreconditionViolated("the family is not an H-family")
    if not all(am & k for k in masks):
        raise NotInM("A does not meet every member of the family")
    return core, masks, am


def property_m_instance(H, X: FiniteSpace, family, A) -> bool:
    """Given an H-family and a closed set A meeting every member, is the
    derived family {up(K meet A)} again an H-family?"""
    core, masks, am = _meeting_instance(H, X, family, A)
    # distinct nonempty saturations in family order, so valid by construction
    derived = sorted({X.sat_mask(k & am) for k in masks}, key=lambda m: (m.bit_count(), m))
    return _family_member(core, X, derived)


def property_q_instance(H, X: FiniteSpace, family, A, config: RunConfig = DEFAULT) -> bool:
    """Given an H-family and a closed set A meeting every member, does A
    contain a *closed H-set* that still meets every member?  A may have at
    most ``caps.m_family`` points."""
    core, masks, am = _meeting_instance(H, X, family, A)
    cap = config.caps.m_family
    if am.bit_count() > cap:
        raise CapExceeded(f"property Q search needs |A| <= {cap}")
    # closed subsets of A are the down-sets of the induced poset on A
    sub = X.subspace(am)
    back = list(bits(am))
    for d in sub.downsets():
        if d == 0:
            continue
        c = 0
        for i in bits(d):
            c |= 1 << back[i]
        if all(c & k for k in masks) and _member(core, X, c):
            return True
    return False


# -- Scott-style open system ----------------------------------------------


def _sup_of(X: FiniteSpace, m: int) -> int | None:
    """Least upper bound of the set, as an index, if it exists, through
    one per-space table (``"sup_of"``) filled by ``_find_sup``."""
    table = X.memo("sup_of", dict)
    if m not in table:
        table[m] = _find_sup(X, m)
    return table[m]


def _find_sup(X: FiniteSpace, m: int) -> int | None:
    ubs = X.ubs_mask(m)
    if ubs == 0:
        return None
    least = X.min_mask(ubs)
    if least and least & (least - 1) == 0:
        t = least.bit_length() - 1
        if ubs & ~X.up[t] == 0:
            return t
    return None


def scott_h_open(H, X: FiniteSpace, U, config: RunConfig = DEFAULT) -> bool:
    """Is U open in the Scott-style system for H?

    Two clauses: U is an up-set, and whenever an H-set has a least upper
    bound lying in U, the set already meets U.  The H-set quantifier reads
    the member table (``_h_members``), so the carrier must fit under
    ``caps.subset_enum``.
    """
    H = as_system(H)
    um = _as_mask(X, U)
    if not X.is_up(um):
        return False
    cap = config.caps.subset_enum
    if X.n > cap:
        raise CapExceeded(f"Scott-open check enumerates subsets; needs carrier <= {cap}")
    for m in _h_members(X, _core_of(H)):
        t = _sup_of(X, m)
        if t is not None and (um >> t) & 1 and m & um == 0:
            return False
    return True


def scott_h_continuous(H, X: FiniteSpace, Y: FiniteSpace, mapping, config: RunConfig = DEFAULT) -> bool:
    """Does the point map preserve all existing least upper bounds of
    H-sets?  ``mapping`` is a dict of labels, a label list, or an index
    table; monotonicity is not assumed.  The H-sets are read from the
    member table (``_h_members``), so the source must fit under
    ``caps.subset_enum``.
    """
    H = as_system(H)
    if isinstance(mapping, dict):
        table = [Y.index(mapping[l]) for l in X.labels]
    else:
        table = [Y.index(v) if isinstance(v, str) else int(v) for v in mapping]
    if len(table) != X.n or any(not 0 <= v < Y.n for v in table):
        raise UsageError("mapping does not cover the source carrier")
    cap = config.caps.subset_enum
    if X.n > cap:
        raise CapExceeded(f"Scott-continuity check enumerates subsets; needs carrier <= {cap}")
    for m in _h_members(X, _core_of(H)):
        t = _sup_of(X, m)
        if t is None:
            continue
        img = 0
        for i in bits(m):
            img |= 1 << table[i]
        s = _sup_of(Y, img)
        if s is None or s != table[t]:
            return False
    return True
