"""Power spaces over a finite T0 space.

Smyth power space: carrier = compact saturated sets (nonempty up-sets),
topology generated by the boxes ``box(U) = {K : K inside U}``; its
specialization order is reverse inclusion.  Hoare power space: carrier =
a family of nonempty closed sets, topology generated by the diamonds
``diamond(U) = {A : A meets U}``; its specialization order is inclusion.
The pointwise function space of ``construct`` is built the same way.

The Hoare carrier ``closed`` shares the Smyth carrier's caps (the two
families are equinumerous by complement); ``irr_closed``, the point
closures, lists no family and is built at any base size.

On a finite carrier each of these topologies is exactly the up-set
topology of its order.  Rather than materializing the topology, one
certifier, ``_certify_topology``, checks this structurally on every
instance:

* every basic open is an up-set of the order, so every union of basic
  opens is;
* the principal filter of each member is the meet of its generating
  basic opens (``box(K)`` for K; the diamonds at the principal opens of
  the points of A; the evaluation sets at the values of a map), so every
  up-set, being a union of principal filters, is open.

Below each caller's caps the raw family-vs-family comparison against
``generated_topology`` runs too.  One unit check (``_unit``) certifies the
point embeddings x -> up(x) and x -> cl{x} once per space, and one lift
(``_lift``) gives the functorial action of a map on the Smyth and Hoare
spaces and on the reflections built over Hoare spaces, checked to land in
the target carrier (else an ``InternalError``); it is natural in these
units by theorem.  The union map checks its box-preimage identity.  Each
of these run-time certificates is the first to raise under some injected
fault of ``tests/mutants.py``, which a tier-1 test asserts.

Open filters of the open-set lattice are represented properly (no filter
contains the empty open); on a finite space they are exactly the principal
filters at nonempty opens, which makes the compact-saturated/open-filter
correspondence an honest bijection.  A family is tested at its meet, and
the open filters are listed under the Smyth carrier's caps.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from .config import DEFAULT, RunConfig
from .errors import (
    CapExceeded,
    EmptyFamily,
    EmptyIntersection,
    InternalError,
    NotAFilter,
    NotDirected,
    UsageError,
)
from .spaces import (
    CompactSat,
    FiniteSpace,
    PointSet,
    SpaceMap,
    _PerMask,
    _as_mask,
    _inclusion_space,
    _point_columns,
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


def generated_topology(basics: Iterable[int], full: int) -> set[int]:
    """The topology on the carrier ``full`` generated by the basic opens:
    their finite meets (the empty meet is ``full``), closed under unions.
    The union closure adds the meets in ascending order and skips a meet
    it already holds."""
    meets = {full}
    for b in basics:
        meets |= {s & b for s in meets}
    out = {0}
    for p in sorted(meets):
        # out is closed under unions after every step, since
        # (a|p) | (b|p) = (a|b)|p; so a meet already in out adds nothing
        if p not in out:
            out |= {s | p for s in out}
    return out


def _certify_topology(space: FiniteSpace, basics: Iterable[int], principal: Iterable[Iterable[int]], raw) -> None:
    """Certify that the topology generated by some basic opens is the
    up-set topology of ``space``: each of ``basics`` is an up-set, and the
    i-th member of ``principal`` lists basic opens meeting to the
    principal filter of point i.  Unless ``raw`` is None, the topology
    that list of basic opens generates is also compared with every up-set."""
    for b in basics:
        if not space.is_up(b):
            raise InternalError("a basic open failed to be an up-set")  # unreachable
    for i, gens in enumerate(principal):
        acc = space.full
        for g in gens:
            acc &= g
        if acc != space.up[i]:
            raise InternalError("principal filter is not the meet of its basic opens")  # unreachable
    if raw is not None and generated_topology(raw, space.full) != set(space.upsets()):
        raise InternalError("generated topology differs from the up-set topology")  # unreachable


def _unit(X: FiniteSpace, space: FiniteSpace, table: tuple[int, ...], basic, opens) -> SpaceMap:
    """The unit ``X -> space`` given by ``table``, certified a topological
    embedding: injective, an order embedding, and the image of each open U
    in ``opens`` is the trace of the basic open ``basic(U)`` on the image."""
    # an order embedding is monotone, so the certificate checks the table
    f = SpaceMap._trusted(X, space, table)
    if not f.is_injective() or not f.is_order_embedding():
        raise InternalError("unit into the power space failed to embed")  # unreachable
    img = f.image_mask(X.full)
    for U in opens:
        if f.image_mask(U) != img & basic(U):
            raise InternalError("unit image of an open is not a trace of a basic open")  # unreachable
    return f


def _member_points(P) -> list[tuple[int, ...]]:
    """Each member's points, listed once per power space (``"member points"``)."""
    return P.space.memo("member points", lambda: [tuple(bits(a)) for a in P.carrier])


def _member_table(points: list[tuple[int, ...]], table: tuple[int, ...], entry) -> tuple[int, ...] | None:
    """Per member, given by its ``points``, ``entry[img]`` at its image
    ``img``, the OR of ``1 << table[x]`` over its points; None if some
    member's entry is None."""
    at = [1 << v for v in table]
    out = []
    for pts in points:
        img = 0
        for x in pts:
            img |= at[x]
        out.append(entry[img])
    return None if None in out else tuple(out)


def _lift(f: SpaceMap, PX, PY, hull) -> SpaceMap:
    """The functorial action of f between power spaces over its endpoints:
    each member A of ``PX.carrier`` goes to ``hull(f(A))`` in ``PY``.

    One entry of ``PX.space``'s memo, ``("lift", PY.space, hull)``, holds
    PX's member points and the carrier index in PY of each image's hull
    (``PY.space``'s ``("lift", hull)`` table), so another hull reads its own
    table.  A hull outside ``PY``'s carrier is an internal break: the named
    carriers hold every hull.
    """
    points, lifted = PX.space.memo(("lift", PY.space, hull), lambda: (_member_points(PX), PY.space.memo(
        ("lift", hull), lambda: _PerMask(lambda img: PY.index.get(hull(img))))))
    table = _member_table(points, f.table, lifted)
    if table is None:
        raise InternalError("image hull is not in the target carrier")
    # image and hull keep inclusion, so the lift is monotone in either order
    return SpaceMap._trusted(PX.space, PY.space, table)


@dataclass(frozen=True)
class SmythSpace:
    """The Smyth power space of a finite space, as a finite space itself."""

    base: FiniteSpace
    carrier: tuple[int, ...]  # member masks, sorted by (size, mask)
    space: FiniteSpace  # carrier ordered by reverse inclusion
    index: dict
    missing: tuple[int, ...]  # per base point, the members without it

    def box_mask(self, U: int) -> int:
        """Members contained in the open U, as a mask over carrier indices:
        the AND of ``missing`` over the points outside U."""
        m = self.space.full
        outside = self.base.full & ~U
        while outside:
            low = outside & -outside
            m &= self.missing[low.bit_length() - 1]
            outside ^= low
        return m


def smyth(X: FiniteSpace, config: RunConfig = DEFAULT) -> SmythSpace:
    """Build (and cache, per caps) the Smyth power space of X."""
    return X.memo(("smyth", config.caps), lambda: _smyth(X, config.caps))


def _nonempty_members(X: FiniteSpace, sets, caps, name: str) -> list[int]:
    """The nonempty members of ``sets()``, the opens or the closed sets of
    X (equinumerous by complement), under the caps both carriers share."""
    if X.n > 20:
        raise CapExceeded(f"{name} power space: base carrier too large to enumerate")
    carrier = [m for m in sets() if m]
    if len(carrier) > caps.smyth_carrier:
        raise CapExceeded(
            f"{name} carrier has {len(carrier)} members, cap is {caps.smyth_carrier}"
        )
    return carrier


def _smyth(X: FiniteSpace, caps) -> SmythSpace:
    carrier = tuple(_nonempty_members(X, X.upsets, caps, "Smyth"))
    cols = _point_columns(X.n, carrier)
    space = _inclusion_space(X, carrier, reverse=True, cols=cols)
    missing = tuple(space.full & ~c for c in cols)
    S = SmythSpace(X, carrier, space, {k: i for i, k in enumerate(carrier)}, missing)
    # each member K is itself open, and its principal filter is box(K)
    boxes = [S.box_mask(U) for U in X.upsets()]
    raw = boxes if len(carrier) <= caps.topology_compare else None
    _certify_topology(space, boxes, ([S.box_mask(k)] for k in carrier), raw)
    return S


def xi_embed(X: FiniteSpace, config: RunConfig = DEFAULT) -> SpaceMap:
    """The unit x -> up(x) into the Smyth power space; a topological and
    order embedding (checked).  Built once per space and caps."""

    def build():
        S = smyth(X, config)
        table = tuple(S.index.get(r) for r in X.up)
        if None in table:
            raise InternalError("a point's up-set is not in the Smyth carrier")
        return _unit(X, S.space, table, S.box_mask, X.upsets())

    return X.memo(("xi_embed", config.caps), build)


def smyth_map(f: SpaceMap, config: RunConfig = DEFAULT) -> SpaceMap:
    """Functorial action on the Smyth power spaces: K -> sat(f(K)); both
    power spaces and the hull are kept per (target, caps) in the source's memo."""
    X, Y = f.source, f.target
    SX, SY, hull = X.memo(("smyth_map", Y, config.caps), lambda: (smyth(X, config), smyth(Y, config), Y.sat_mask))
    return _lift(f, SX, SY, hull)


def smyth_union(X: FiniteSpace, config: RunConfig = DEFAULT) -> SpaceMap:
    """The union map from the double Smyth power space to the single one.

    A compact family of compact sets has a compact union; on finite
    carriers this is plain: a nonempty up-family of nonempty up-sets has a
    nonempty up-set union.  Checks the preimage identity
    ``union^{-1}(box U) = box(box U)``, which a wrong union table fails.
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
    # union keeps inclusion, so the table is monotone for reverse inclusion;
    # a wrong table fails the preimage identity
    un = SpaceMap._trusted(S2.space, S1.space, tuple(table))
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

    def diamond_mask(self, U: int) -> int:
        m = 0
        for i, a in enumerate(self.carrier):
            if a & U:
                m |= 1 << i
        return m


def hoare(X: FiniteSpace, which="irr_closed", config: RunConfig = DEFAULT) -> HoareSpace:
    """Build a Hoare power space on ``which``: ``irr_closed`` (default),
    the point closures, at any base size; ``closed``, all nonempty closed
    sets, under the Smyth carrier's caps; or an explicit list of closed
    sets.  The two named carriers are cached per caps."""
    if which == "irr_closed":
        return X.memo(("hoare", which, config.caps), lambda: _hoare(X, X.irr_downsets(), config.caps))
    if which == "closed":
        return X.memo(("hoare", which, config.caps),
                      lambda: _hoare(X, _nonempty_members(X, X.downsets, config.caps, "Hoare"), config.caps))
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
    space = _inclusion_space(X, carrier, reverse=False)
    H = HoareSpace(X, tuple(carrier), space, {a: i for i, a in enumerate(carrier)})
    # diamond commutes with unions of opens, so the diamonds at principal
    # opens decide the up-set check and generate each principal filter
    dia = [H.diamond_mask(X.up[x]) for x in range(X.n)]
    # the raw cost driver is |opens| * |up-sets of the carrier order|, so
    # both are counted first
    raw = None
    if len(carrier) <= caps.topology_compare and X.n <= caps.subset_enum:
        opens = X.upsets()
        tops = space.upsets() if len(opens) <= 1024 else None
        if tops is not None and len(opens) * len(tops) <= 1 << 18:
            raw = [H.diamond_mask(U) for U in opens]
    _certify_topology(space, dia, ([dia[x] for x in bits(a)] for a in carrier), raw)
    return H


def hoare_map(f: SpaceMap, which="closed", config: RunConfig = DEFAULT) -> SpaceMap:
    """Functorial action on Hoare power spaces: A -> cl(f(A)).

    ``which`` names both endpoints' carrier: ``closed`` or ``irr_closed``.
    Both carriers hold every hull, so an empty named carrier (or any usage
    error past ``which``) is an ``InternalError``.
    """
    if which not in ("closed", "irr_closed"):
        raise UsageError("hoare_map takes a named carrier: 'closed' or 'irr_closed'")
    X, Y = f.source, f.target
    try:
        HX, HY, hull = X.memo(("hoare_map", which, Y, config.caps),
                              lambda: (hoare(X, which, config), hoare(Y, which, config), Y.closure_mask))
        return _lift(f, HX, HY, hull)
    except UsageError as e:
        raise InternalError(f"a named Hoare carrier was refused: {e}") from None


def hoare_eta(H: HoareSpace) -> SpaceMap:
    """The unit x -> cl{x} into a Hoare power space whose carrier contains
    all point closures; a topological embedding (checked).  Image and
    diamond both commute with unions of opens, so the principal opens
    decide the trace identity.  Built once per Hoare space, in the memo of
    ``H.space``."""
    X = H.base

    def build():
        try:
            table = tuple(H.index[X.down[i]] for i in range(X.n))
        except KeyError:
            raise UsageError("the carrier must contain every point closure") from None
        return _unit(X, H.space, table, H.diamond_mask, X.up)

    return H.space.memo("hoare_eta", build)


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
        if not all(X.is_up(U) for U in fam):
            raise NotAFilter("filter members must be opens of the space")
        if 0 in fam:
            raise NotAFilter("a proper filter does not contain the empty open")
        # a proper filter of a finite lattice holds its meet and is the
        # up-set of it; that up-set is a proper filter when the meet is
        # not the empty open
        m = self.least()
        if m == 0:
            raise NotAFilter("the members meet in the empty open")
        for V in X.upsets():
            if m & ~V == 0 and V not in fam:
                raise NotAFilter(f"not upward closed: misses {list(X.labels_of(V))}, which contains the meet")

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


def open_filters(X: FiniteSpace, config: RunConfig = DEFAULT) -> list[OpenFilter]:
    """All open filters.  On a finite space every proper Scott-open filter
    is the principal filter at its (nonempty) least member, so the list is
    indexed by the compact saturated sets, the Smyth points, under the
    Smyth carrier's caps; a brute-force oracle in the test suite backs
    this up.  Built once per space and caps.  Each filter is ``phi`` of
    one of X's own compacts, so refusing either is an ``InternalError``."""

    def build():
        try:
            return [phi(X, k) for k in _nonempty_members(X, X.upsets, config.caps, "Smyth")]
        except UsageError as e:
            raise InternalError(f"the neighbourhoods of a compact are not an open filter: {e}") from None

    return X.memo(("open_filters", config.caps), build)


def filter_of_family(X: FiniteSpace, family) -> OpenFilter:
    """The filter of opens containing some member of the family.

    This is a filter exactly when the family is irreducible in the Smyth
    power space.  A non-filter raises ``NotAFilter`` naming the empty meet
    or the first open above the meet that is missing, unless the family is
    irreducible, which breaks that equivalence and is an ``InternalError``.
    """
    masks = systems.family_masks(X, family)
    members = tuple(U for U in X.upsets() if any(k & ~U == 0 for k in masks))
    try:
        return OpenFilter(X, members)
    except NotAFilter:
        if systems._family_member("R", X, masks):
            raise InternalError("irreducible family induced a non-filter")  # unreachable
        raise


def hofmann_mislove_report(X: FiniteSpace, config: RunConfig = DEFAULT) -> dict:
    """The compact-saturated / open-filter correspondence, verified.

    K -> phi(K) is a bijection onto the open filters, with inverse
    F -> least(F), and it reverses order on a sample of pairs (raw on all
    pairs for small carriers).
    """
    filters = open_filters(X, config)
    ks = X.nonempty_upsets()
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
    intersection is nonempty and then equals it; raises
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
        return CompactSat(X, inter)
    if which == "closure_intersection":
        # the closure of the family in the Smyth order consists of the
        # supersets of members, so intersect over those
        closure_inter = X.full
        for k in X.nonempty_upsets():
            if any(m & ~k == 0 for m in masks):
                closure_inter &= k
        return closure_inter == inter
    if which == "least":
        if not systems._family_member("D", X, masks):
            raise NotDirected("the family is not filtered")
        if inter not in set(masks):
            raise InternalError("filtered family without least member")  # unreachable
        return CompactSat(X, inter)
    raise UsageError(f"unknown family operation {which!r}")
