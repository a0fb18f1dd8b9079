"""Power spaces over a finite T0 space.

Smyth power space: carrier = compact saturated sets (nonempty up-sets),
topology generated by the boxes ``box(U) = {K : K inside U}``.  Its
specialization order is reverse inclusion, and on a finite carrier the
topology is exactly the up-set topology of that order.  Rather than
materializing the topology, construction certifies this structurally:

* every box is an up-set of reverse inclusion, so every union of boxes is;
* the principal filter of each member K equals ``box(K)`` (K is itself
  open in the base), so every up-set, being a union of principal filters,
  is a union of boxes.

Both bullets are checked computationally on every instance; below a cap
the raw family-vs-family comparison runs too.

Hoare power space: carrier = a family of nonempty closed sets, topology
generated by ``diamond(U) = {A : A meets U}``.  Specialization order is
inclusion, certified the same way via ``up(A) = meet of diamond(up(x))``
over the points x of A.

Open filters of the open-set lattice are represented properly (no filter
contains the empty open); on a finite space they are exactly the principal
filters at nonempty opens, which makes the compact-saturated/open-filter
correspondence an honest bijection.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .config import DEFAULT, RunConfig
from .errors import (
    CapExceeded,
    EmptyFamily,
    EmptyIntersection,
    InternalError,
    NotAFilter,
    NotDirected,
    SpaceMismatch,
    UsageError,
)
from .spaces import (
    ClosedSet,
    CompactSat,
    FiniteSpace,
    PointSet,
    SpaceMap,
    _as_mask,
    bits,
)
from . import systems

__all__ = [
    "SmythSpace",
    "HoareSpace",
    "OpenFilter",
    "smyth",
    "xi_embed",
    "smyth_map",
    "smyth_union",
    "hoare",
    "hoare_map",
    "hoare_eta",
    "open_filters",
    "phi",
    "filter_of_family",
    "family_calculus",
    "hofmann_mislove_report",
]


def _set_label(X: FiniteSpace, mask: int) -> str:
    return "{" + ",".join(X.labels_of(mask)) + "}"


def _all_unions(parts: Sequence[int]) -> set[int]:
    out = {0}
    for p in parts:
        out |= {s | p for s in out}
    return out


def generated_topology(basics: Iterable[int], full: int) -> set[int]:
    """The topology on the carrier ``full`` generated by the basic opens:
    their finite meets (the empty meet is ``full``), closed under unions."""
    meets = {full}
    for b in basics:
        meets |= {s & b for s in meets}
    return _all_unions(sorted(meets))


@dataclass(frozen=True)
class SmythSpace:
    """The Smyth power space of a finite space, as a finite space itself."""

    base: FiniteSpace
    carrier: tuple[int, ...]  # member masks, sorted by (size, mask)
    space: FiniteSpace  # carrier ordered by reverse inclusion
    index: dict

    def compact(self, i: int) -> CompactSat:
        return CompactSat(self.base, self.carrier[i])

    def box_mask(self, U: int) -> int:
        """Members contained in the open U, as a mask over carrier indices."""
        m = 0
        for i, k in enumerate(self.carrier):
            if k & ~U == 0:
                m |= 1 << i
        return m

    def member_index(self, K) -> int:
        mask = _as_mask(self.base, K)
        try:
            return self.index[mask]
        except KeyError:
            raise UsageError("not a compact saturated set of the base space") from None

    def family_mask(self, family: Iterable) -> int:
        m = 0
        for K in family:
            m |= 1 << self.member_index(K)
        return m

    def family_from_mask(self, mask: int) -> list[int]:
        return [self.carrier[i] for i in bits(mask)]


def smyth(X: FiniteSpace, config: RunConfig = DEFAULT) -> SmythSpace:
    """Build (and cache, per caps) the Smyth power space of X."""
    return X.memo(("smyth", config.caps), lambda: _smyth(X, config.caps))


def _smyth(X: FiniteSpace, caps) -> SmythSpace:
    if X.n > 20:
        raise CapExceeded("Smyth power space: base carrier too large to enumerate")
    carrier = tuple(X.nonempty_upsets())
    if len(carrier) > caps.smyth_carrier:
        raise CapExceeded(
            f"Smyth carrier has {len(carrier)} members, cap is {caps.smyth_carrier}"
        )
    m = len(carrier)
    # reverse inclusion: K_i below K_j iff K_j inside K_i
    rows = []
    for i in range(m):
        ki = carrier[i]
        r = 0
        for j in range(m):
            if carrier[j] & ~ki == 0:
                r |= 1 << j
        rows.append(r)
    labels = [_set_label(X, k) for k in carrier]
    space = FiniteSpace(labels, rows)
    S = SmythSpace(X, carrier, space, {k: i for i, k in enumerate(carrier)})
    # structural certification that the box topology is the up-set topology
    opens = X.upsets()
    for U in opens:
        bm = S.box_mask(U)
        if not space.is_up(bm):
            raise InternalError("box of an open failed to be an up-set")  # unreachable
    for i in range(m):
        if space.up[i] != S.box_mask(carrier[i]):
            raise InternalError("principal filter differs from its box")  # unreachable
    if m <= caps.topology_compare:
        # raw comparison: unions of boxes vs all up-sets
        fam = _all_unions([S.box_mask(U) for U in opens])
        if fam != set(space.upsets()):
            raise InternalError("box topology mismatch")  # unreachable
    return S


def xi_embed(X: FiniteSpace, config: RunConfig = DEFAULT) -> SpaceMap:
    """The unit x -> up(x) into the Smyth power space; a topological and
    order embedding (checked)."""
    S = smyth(X, config)
    table = tuple(S.index[X.up[i]] for i in range(X.n))
    f = SpaceMap(X, S.space, table)
    if not f.is_injective() or not f.is_order_embedding():
        raise InternalError("unit into the Smyth power space failed to embed")  # unreachable
    for U in X.upsets():
        img_U = f.image_mask(U)
        img_X = f.image_mask(X.full)
        if img_U != img_X & S.box_mask(U):
            raise InternalError("unit image of an open is not a trace of a box")  # unreachable
    return f


def smyth_map(f: SpaceMap, config: RunConfig = DEFAULT) -> SpaceMap:
    """Functorial action on the Smyth power spaces: K -> sat(f(K)).

    Checks naturality with the units and the box preimage identity
    ``(P f)^{-1}(box V) = box(f^{-1} V)``.
    """
    SX = smyth(f.source, config)
    SY = smyth(f.target, config)
    Y = f.target
    table = []
    for k in SX.carrier:
        img = Y.sat_mask(f.image_mask(k))
        table.append(SY.index[img])
    Pf = SpaceMap(SX.space, SY.space, tuple(table))
    # naturality: P(f) after unit_X equals unit_Y after f
    uX = xi_embed(f.source, config)
    uY = xi_embed(f.target, config)
    if uX.then(Pf).table != tuple(uY.table[f.table[i]] for i in range(f.source.n)):
        raise InternalError("Smyth action is not natural in the units")  # unreachable
    for V in Y.upsets():
        if Pf.preimage_mask(SY.box_mask(V)) != SX.box_mask(f.preimage_mask(V)):
            raise InternalError("box preimage identity failed")  # unreachable
    return Pf


def smyth_union(X: FiniteSpace, config: RunConfig = DEFAULT) -> SpaceMap:
    """The union map from the double Smyth power space to the single one.

    A compact family of compact sets has a compact union; on finite
    carriers this is plain: a nonempty up-family of nonempty up-sets has a
    nonempty up-set union.  Checks the preimage identity
    ``union^{-1}(box U) = box(box U)``.
    """
    if X.n > config.caps.double_power_base:
        raise CapExceeded(
            f"double power space needs base carrier <= {config.caps.double_power_base}"
        )
    S1 = smyth(X, config)
    S2 = smyth(S1.space, config)
    table = []
    for fam_mask in S2.carrier:
        u = 0
        for i in bits(fam_mask):
            u |= S1.carrier[i]
        table.append(S1.index[u])
    un = SpaceMap(S2.space, S1.space, tuple(table))
    for U in X.upsets():
        b1 = S1.box_mask(U)  # an open of S1.space (certified up-set)
        if un.preimage_mask(b1) != S2.box_mask(b1):
            raise InternalError("union preimage identity failed")  # unreachable
    return un


# -- Hoare side -----------------------------------------------------------


@dataclass(frozen=True)
class HoareSpace:
    """A Hoare-style power space on a chosen family of nonempty closed sets."""

    base: FiniteSpace
    carrier: tuple[int, ...]
    space: FiniteSpace  # carrier ordered by inclusion
    index: dict

    def closed(self, i: int) -> ClosedSet:
        return ClosedSet(self.base, self.carrier[i])

    def diamond_mask(self, U: int) -> int:
        m = 0
        for i, a in enumerate(self.carrier):
            if a & U:
                m |= 1 << i
        return m


def hoare(X: FiniteSpace, which="irr_closed", config: RunConfig = DEFAULT) -> HoareSpace:
    """Build a Hoare power space on ``which``: ``irr_closed`` (default),
    ``closed`` (all nonempty closed sets), or an explicit list of closed
    sets.  The two named carriers are cached per caps."""
    if which == "irr_closed":
        return X.memo(("hoare", which, config.caps), lambda: _hoare(X, X.irr_downsets(), config.caps))
    if which == "closed":
        return X.memo(("hoare", which, config.caps), lambda: _hoare(X, [d for d in X.downsets() if d], config.caps))
    carrier = []
    for A in which:
        m = _as_mask(X, A)
        if m == 0 or not X.is_down(m):
            raise UsageError("Hoare carrier members must be nonempty closed sets")
        carrier.append(m)
    return _hoare(X, sorted(set(carrier), key=lambda m: (m.bit_count(), m)), config.caps)


def _hoare(X: FiniteSpace, carrier: list[int], caps) -> HoareSpace:
    if not carrier:
        raise EmptyFamily("the Hoare carrier is empty")
    m = len(carrier)
    rows = []
    for i in range(m):
        ai = carrier[i]
        r = 0
        for j in range(m):
            if ai & ~carrier[j] == 0:
                r |= 1 << j
        rows.append(r)
    labels = [_set_label(X, a) for a in carrier]
    space = FiniteSpace(labels, rows)
    H = HoareSpace(X, tuple(carrier), space, {a: i for i, a in enumerate(carrier)})
    # structural certification: diamonds are up-sets of inclusion, and each
    # principal filter is a finite meet of diamonds at principal opens.
    # diamond commutes with unions of opens, so the principal opens decide
    # the up-set check; small instances rerun the whole topology raw below
    for x in range(X.n):
        if not space.is_up(H.diamond_mask(X.up[x])):
            raise InternalError("diamond of an open failed to be an up-set")  # unreachable
    full = (1 << m) - 1
    for i in range(m):
        acc = full
        for x in bits(carrier[i]):
            acc &= H.diamond_mask(X.up[x])
        if acc != space.up[i]:
            raise InternalError("principal filter is not the meet of its diamonds")  # unreachable
    # raw re-derivation of the whole diamond topology; the cost driver is
    # |opens| * |up-sets of the carrier order|, so both are counted first
    if m <= caps.topology_compare and X.n <= caps.subset_enum:
        opens = X.upsets()
        tops = space.upsets() if len(opens) <= 1024 else None
        if tops is not None and len(opens) * len(tops) <= 1 << 18:
            if generated_topology([H.diamond_mask(U) for U in opens], full) != set(tops):
                raise InternalError("diamond topology mismatch")  # unreachable
    return H


def hoare_map(f: SpaceMap, which="closed", config: RunConfig = DEFAULT) -> SpaceMap:
    """Functorial action on Hoare power spaces: A -> cl(f(A)).

    Checks naturality with the point-closure units and the diamond
    preimage identity ``(P f)^{-1}(diamond V) = diamond(f^{-1} V)``.
    """
    HX = hoare(f.source, which, config)
    HY = hoare(f.target, which, config)
    Y = f.target
    table = []
    for a in HX.carrier:
        img = Y.closure_mask(f.image_mask(a))
        j = HY.index.get(img)
        if j is None:
            raise UsageError("image closure is not in the target carrier")
        table.append(j)
    Pf = SpaceMap(HX.space, HY.space, tuple(table))
    uX = hoare_eta(HX, config)
    uY = hoare_eta(HY, config)
    if uX.then(Pf).table != tuple(uY.table[f.table[i]] for i in range(f.source.n)):
        raise InternalError("Hoare action is not natural in the units")  # unreachable
    for V in Y.upsets():
        if Pf.preimage_mask(HY.diamond_mask(V)) != HX.diamond_mask(f.preimage_mask(V)):
            raise InternalError("diamond preimage identity failed")  # unreachable
    return Pf


def hoare_eta(H: HoareSpace, config: RunConfig = DEFAULT) -> SpaceMap:
    """The unit x -> cl{x} into a Hoare power space whose carrier contains
    all point closures; a topological embedding (checked)."""
    X = H.base
    try:
        table = tuple(H.index[X.down[i]] for i in range(X.n))
    except KeyError:
        raise UsageError("the carrier must contain every point closure") from None
    f = SpaceMap(X, H.space, table)
    if not f.is_injective() or not f.is_order_embedding():
        raise InternalError("unit into the Hoare power space failed to embed")  # unreachable
    img = f.image_mask(X.full)
    # image and diamond both commute with unions of opens, so the principal
    # opens decide the trace identity; small bases recheck every open
    if X.n <= config.caps.subset_enum:
        opens = X.upsets()
    else:
        opens = [X.up[i] for i in range(X.n)]
    for U in opens:
        if f.image_mask(U) != img & H.diamond_mask(U):
            raise InternalError("unit image of an open is not a trace of a diamond")  # unreachable
    return f


# -- open filters ---------------------------------------------------------


@dataclass(frozen=True)
class OpenFilter:
    """A proper filter of nonempty opens, Scott-open in the open-set
    lattice.  On a finite lattice Scott-openness is upward closure, and a
    proper filter is principal at its least member."""

    space: FiniteSpace
    opens: tuple[int, ...]  # sorted by (size, mask)

    def __post_init__(self):
        X = self.space
        fam = set(self.opens)
        if not fam:
            raise NotAFilter("a filter has at least one member")
        all_opens = set(X.upsets())
        for U in fam:
            if U not in all_opens:
                raise NotAFilter("filter members must be opens of the space")
        if 0 in fam:
            raise NotAFilter("a proper filter does not contain the empty open")
        for U in fam:
            for V in all_opens:
                if U & ~V == 0 and V not in fam:
                    raise NotAFilter(
                        f"not upward closed: contains {list(X.labels_of(U))} but "
                        f"not {list(X.labels_of(V))}"
                    )
        for U in fam:
            for V in fam:
                if (U & V) not in fam:
                    raise NotAFilter(
                        f"not meet closed: {list(X.labels_of(U))} and "
                        f"{list(X.labels_of(V))}"
                    )

    def least(self) -> int:
        m = self.space.full
        for U in self.opens:
            m &= U
        return m

    def __contains__(self, U) -> bool:
        return _as_mask(self.space, U) in set(self.opens)

    def to_json(self) -> dict:
        X = self.space
        return {
            "least": list(X.labels_of(self.least())),
            "size": len(self.opens),
        }


def phi(X: FiniteSpace, K) -> OpenFilter:
    """The open filter of neighbourhoods of a compact saturated set."""
    mask = _as_mask(X, K)
    CompactSat(X, mask)
    members = tuple(U for U in X.upsets() if mask & ~U == 0)
    return OpenFilter(X, members)


def open_filters(X: FiniteSpace) -> list[OpenFilter]:
    """All open filters.  On a finite space every proper Scott-open filter
    is the principal filter at its (nonempty) least member, so the list is
    indexed by the compact saturated sets; a brute-force oracle in the test
    suite backs this up."""
    return [phi(X, k) for k in X.nonempty_upsets()]


def filter_of_family(X: FiniteSpace, family) -> OpenFilter:
    """The filter of opens containing some member of the family.

    This is a filter exactly when the family is irreducible in the Smyth
    power space; both sides of that equivalence are evaluated, and a
    non-filter raises ``NotAFilter`` with the failing pair.
    """
    masks = systems.family_masks(X, family)
    members = tuple(U for U in X.upsets() if any(k & ~U == 0 for k in masks))
    irr = systems.family_base_ok("R", masks)
    try:
        filt = OpenFilter(X, members)
    except NotAFilter:
        if irr:
            raise InternalError("irreducible family induced a non-filter")  # unreachable
        raise
    if not irr:
        # a filter from a non-irreducible family would break the
        # equivalence; find the witnessing pair instead of returning it
        for a in masks:
            for b in masks:
                if not any(c & ~(a & b) == 0 for c in masks):
                    raise NotAFilter(
                        f"family is not directed under reverse inclusion: no member "
                        f"inside {list(X.labels_of(a))} meet {list(X.labels_of(b))}"
                    )
        raise InternalError("non-irreducible family produced a filter")  # unreachable
    return filt


def hofmann_mislove_report(X: FiniteSpace, config: RunConfig = DEFAULT) -> dict:
    """The compact-saturated / open-filter correspondence, verified.

    K -> phi(K) is a bijection onto the open filters, with inverse
    F -> least(F), and it reverses order on a sample of pairs (raw on all
    pairs for small carriers).
    """
    ks = X.nonempty_upsets()
    filters = open_filters(X)
    recovered = [f.least() for f in filters]
    bijective = recovered == ks and len({tuple(f.opens) for f in filters}) == len(ks)
    # order reversal: phi(K1) inside phi(K2) iff K2 inside K1
    pairs_ok = True
    idx = range(len(ks))
    if len(ks) <= 64:
        sample = [(i, j) for i in idx for j in idx]
    else:
        rng = random.Random(config.seed)
        sample = [(rng.randrange(len(ks)), rng.randrange(len(ks))) for _ in range(512)]
    sets = [frozenset(f.opens) for f in filters]
    for i, j in sample:
        if (sets[i] <= sets[j]) != (ks[j] & ~ks[i] == 0):
            pairs_ok = False
            break
    return {
        "compacts": len(ks),
        "filters": len(filters),
        "bijective": bijective,
        "order_reversing": pairs_ok,
        "pairs_checked": len(sample),
    }


# -- family calculus ------------------------------------------------------


def family_calculus(X: FiniteSpace, family, which: str, config: RunConfig = DEFAULT):
    """Small calculus on families of compact saturated sets.

    ``intersection``: plain intersection as a point set.
    ``sup``: the least upper bound in the Smyth order, which exists iff the
    intersection is nonempty and then equals it (checked); raises
    ``EmptyIntersection`` otherwise.
    ``closure_intersection``: True iff the intersection is unchanged by
    passing to the closure of the family in the Smyth order (always the
    case, but evaluated on the instance).
    ``least``: the least member of a filtered family (raises
    ``NotDirected`` if the family is not filtered).
    """
    masks = systems.family_masks(X, family)
    inter = masks[0]
    for k in masks[1:]:
        inter &= k
    if which == "intersection":
        return PointSet(X, inter)
    if which == "sup":
        if inter == 0:
            raise EmptyIntersection("the family has empty intersection; no sup exists")
        sup = CompactSat(X, inter)
        # least upper bound: an upper bound is any compact inside every
        # member; all of those sit inside the intersection
        for k in X.nonempty_upsets():
            if all(k & ~m == 0 for m in masks) and k & ~inter != 0:
                raise InternalError("sup is not least")  # unreachable
        return sup
    if which == "closure_intersection":
        # the closure of the family in the Smyth order consists of the
        # supersets of members, so intersect over those
        closure_inter = X.full
        for k in X.nonempty_upsets():
            if any(m & ~k == 0 for m in masks):
                closure_inter &= k
        return closure_inter == inter
    if which == "least":
        if not systems.family_base_ok("D", masks):
            raise NotDirected("the family is not filtered")
        if inter not in set(masks):
            raise InternalError("filtered family without least member")  # unreachable
        return CompactSat(X, inter)
    raise UsageError(f"unknown family operation {which!r}")
