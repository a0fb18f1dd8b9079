"""Categorical constructions: products, map enumeration, function spaces,
poset enumeration up to isomorphism, and the sobriety-style reflections
with their universal property."""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, permutations
from itertools import product as _product  # construct.product shadows it
from operator import itemgetter

from .config import DEFAULT, RunConfig
from .errors import (
    CapExceeded,
    EndpointMismatch,
    InternalError,
    NoHomeomorphism,
    NotT0,
    UsageError,
)
from .spaces import FiniteSpace, SpaceMap, _PerMask, _map_label, _pair_labels, _point_columns, bits
from . import powers, systems

__all__ = [
    "Product",
    "product",
    "continuous_maps",
    "function_space",
    "enumerate_posets",
    "homeomorphic",
    "Reflection",
    "reflect",
    "universal_property_verify",
    "reflection_functor",
    "product_preservation",
]


# -- products -------------------------------------------------------------


@dataclass(frozen=True)
class Product:
    space: FiniteSpace
    left: SpaceMap
    right: SpaceMap
    factors: tuple[FiniteSpace, FiniteSpace]

    def pair_index(self, i: int, j: int) -> int:
        return i * self.factors[1].n + j


def product(X: FiniteSpace, Y: FiniteSpace, config: RunConfig = DEFAULT) -> Product:
    """Componentwise-ordered product with its projections.

    Points are labelled ``(x,y)``, the components escaped.  The
    projections are continuous by construction (the order is
    componentwise, hence T0, so a refused order is an ``InternalError``);
    saturation of a sampled handful of sets is checked to commute with them.
    """
    labels = _pair_labels(X, Y)
    up = []
    for i in range(X.n):
        above = [a * Y.n for a in bits(X.up[i])]
        for row in Y.up:
            m = 0
            for shift in above:
                m |= row << shift
            up.append(m)
    try:
        P = FiniteSpace(labels, up)
    except NotT0 as e:
        raise InternalError(f"the product order is not T0: {e}") from None
    left = SpaceMap._trusted(P, X, tuple(i for i in range(X.n) for _ in range(Y.n)))
    right = SpaceMap._trusted(P, Y, tuple(j for _ in range(X.n) for j in range(Y.n)))
    rng = random.Random(f"{config.seed}|product|{X.n}|{Y.n}")
    for _ in range(min(16, config.caps.sample_count)):
        m = rng.getrandbits(P.n)
        if not m:
            continue
        # projections are open maps here: image of saturation = saturation of image
        for pr in (left, right):
            if pr.image_mask(P.sat_mask(m)) != pr.target.sat_mask(pr.image_mask(m)):
                raise InternalError("projection failed a saturation sample")
    return Product(space=P, left=left, right=right, factors=(X, Y))


# -- map enumeration and function spaces ----------------------------------


def _map_tables(X: FiniteSpace, Y: FiniteSpace, config: RunConfig = DEFAULT) -> tuple[tuple[int, ...], ...]:
    """The tables of all continuous (= monotone) maps X -> Y, sorted;
    ``CapExceeded`` above ``caps.map_count``, checked on every call.

    Fills one position of a linear extension of X at a time, over all
    partial tables at once: a point's allowed values are the AND of
    ``Y.up`` at the values already placed below it, so every table is
    monotone by construction, and comes out sorted when the extension is
    the point order (else the tables are reordered and sorted).  They read
    no cap, so X's memo keeps them per target (``("map tables", Y)``).
    """
    if Y.n ** X.n > config.caps.map_count:
        raise CapExceeded(
            f"{Y.n}^{X.n} candidate maps exceed the cap {config.caps.map_count}"
        )
    return X.memo(("map tables", Y), lambda: _monotone_tables(X, Y))


def _monotone_tables(X: FiniteSpace, Y: FiniteSpace) -> tuple[tuple[int, ...], ...]:
    order = sorted(range(X.n), key=lambda i: (X.down[i].bit_count(), i))
    partial = [()]
    for pos, i in enumerate(order):
        below = [q for q in range(pos) if (X.down[i] >> order[q]) & 1]
        grown = []
        for t in partial:
            allowed = Y.full
            for q in below:
                allowed &= Y.up[t[q]]
            while allowed:
                low = allowed & -allowed
                grown.append((*t, low.bit_length() - 1))
                allowed ^= low
        partial = grown
    at = sorted(range(X.n), key=order.__getitem__)  # each point's position
    if at != sorted(at):
        partial = sorted(map(itemgetter(*at), partial))
    return tuple(partial)


def continuous_maps(X: FiniteSpace, Y: FiniteSpace, config: RunConfig = DEFAULT) -> list[SpaceMap]:
    """All continuous (= monotone) maps X -> Y, one per ``_map_tables`` table."""
    return [SpaceMap._trusted(X, Y, t) for t in _map_tables(X, Y, config)]


def function_space(X: FiniteSpace, Y: FiniteSpace, config: RunConfig = DEFAULT) -> FiniteSpace:
    """Space of all continuous maps X -> Y under the pointwise order.

    Certifies that the pointwise-order topology is the one generated by
    the sets {f : f(x) in U}: each such set is an up-set, and each
    principal filter of a map is the finite intersection of them at its
    values.  For very small map counts the generated family is also
    compared raw.
    """
    maps = _map_tables(X, Y, config)
    if len(maps) > 4096:
        raise CapExceeded(f"{len(maps)} maps exceed the function-space bound")
    up = []
    for f in maps:
        m = 0
        for gi, g in enumerate(maps):
            if all((Y.up[f[i]] >> g[i]) & 1 for i in range(X.n)):
                m |= 1 << gi
        up.append(m)
    F = FiniteSpace([_map_label(X, Y, f) for f in maps], up)

    def subbasic(x: int, U: int) -> int:
        m = 0
        for gi, g in enumerate(maps):
            if (U >> g[x]) & 1:
                m |= 1 << gi
        return m

    basics = [subbasic(x, U) for x in range(X.n) for U in Y.upsets()]
    principal = ([subbasic(x, Y.up[f[x]]) for x in range(X.n)] for f in maps)
    powers._certify_topology(F, basics, principal, basics if len(maps) <= config.caps.topology_compare else None)
    return F


# -- poset enumeration up to isomorphism ----------------------------------

# the sorted canonical keys of the classes by n; the classes by (n, prefix)
_POSET_KEYS: dict[int, list[tuple]] = {1: [(1,)]}
_POSET_CACHE: dict[tuple[int, str], list[FiniteSpace]] = {}


def _wl_labels(n: int, down: list[int], up: list[int]) -> list:
    """Isomorphism-invariant point labels by two rounds of neighborhood
    refinement; comparable across spaces."""
    lab = [(down[i].bit_count(), up[i].bit_count()) for i in range(n)]
    for _ in range(2):
        nxt = []
        for i in range(n):
            nxt.append(
                (
                    lab[i],
                    tuple(sorted(lab[j] for j in bits(down[i] & ~(1 << i)))),
                    tuple(sorted(lab[j] for j in bits(up[i] & ~(1 << i)))),
                )
            )
        lab = nxt
    return lab


def _canon_key(n: int, up: list[int]) -> tuple:
    """The least row tuple over the relabelings that keep each
    ``_wl_labels`` class in one block of slots: at most 7! = 5,040, as
    ``enumerate_posets`` stops at 7 points."""
    labels = _wl_labels(n, _point_columns(n, up), up)
    groups: dict = {}
    for i, l in enumerate(labels):
        groups.setdefault(l, []).append(i)
    best = None
    for blocks in _product(*(permutations(groups[c]) for c in sorted(groups))):
        pi = [0] * n
        for slot, src in enumerate(chain.from_iterable(blocks)):
            pi[src] = slot
        relabeled = [0] * n
        for i in range(n):
            m = 0
            for j in bits(up[i]):
                m |= 1 << pi[j]
            relabeled[pi[i]] = m
        key = tuple(relabeled)
        if best is None or key < best:
            best = key
    return best


def enumerate_posets(n: int, prefix: str = "p") -> list[FiniteSpace]:
    """All T0 spaces on n points up to homeomorphism.

    Deleting a maximal point of a poset on n points leaves a poset on
    n - 1 points, and the deleted point sat above a down-set of it.  So
    each class one point smaller, extended by a new greatest-index point
    above each of its down-sets (the empty one included), gives every
    class; the candidates are deduped by a canonical relabeling key and
    returned in key order.  The keys are built once per n, whatever the
    prefix the points are labelled with.
    """
    if n < 1 or n > 7:
        raise CapExceeded("poset enumeration supports 1..7 points")
    out = _POSET_CACHE.get((n, prefix))
    if out is None:
        labels = [f"{prefix}{i}" for i in range(n)]
        out = _POSET_CACHE[n, prefix] = [FiniteSpace(labels, list(key)) for key in _poset_keys(n)]
    return list(out)


def _poset_keys(n: int) -> list[tuple]:
    if n not in _POSET_KEYS:
        top = 1 << (n - 1)
        _POSET_KEYS[n] = sorted({
            _canon_key(n, [row | top if (d >> i) & 1 else row for i, row in enumerate(R.up)] + [top])
            for R in enumerate_posets(n - 1)
            for d in R.downsets()
        })
    return _POSET_KEYS[n]


def homeomorphic(X: FiniteSpace, Y: FiniteSpace) -> SpaceMap | None:
    """An order isomorphism X -> Y, or None.

    Prefilters on point count, relation size and refined degree classes,
    then backtracks within matching classes.
    """
    if X.n != Y.n:
        return None
    if sum(m.bit_count() for m in X.up) != sum(m.bit_count() for m in Y.up):
        return None
    lx = _wl_labels(X.n, list(X.down), list(X.up))
    ly = _wl_labels(Y.n, list(Y.down), list(Y.up))
    if sorted(lx) != sorted(ly):
        return None
    # candidate targets per source point: identical refined labels
    cands = []
    for i in range(X.n):
        cands.append([j for j in range(Y.n) if lx[i] == ly[j]])
    order = sorted(range(X.n), key=lambda i: len(cands[i]))
    table = [-1] * X.n
    used = [False] * Y.n

    def rec(pos: int) -> bool:
        if pos == X.n:
            return True
        i = order[pos]
        for j in cands[i]:
            if used[j]:
                continue
            ok = True
            for q in range(pos):
                a = order[q]
                if ((X.up[a] >> i) & 1) != ((Y.up[table[a]] >> j) & 1):
                    ok = False
                    break
                if ((X.up[i] >> a) & 1) != ((Y.up[j] >> table[a]) & 1):
                    ok = False
                    break
            if ok:
                table[i] = j
                used[j] = True
                if rec(pos + 1):
                    return True
                used[j] = False
                table[i] = -1
        return False

    if not rec(0):
        return None
    f = SpaceMap._trusted(X, Y, tuple(table))
    if not (f.is_injective() and f.is_order_embedding()):
        raise InternalError("backtracked isomorphism is not an order embedding")
    return f


# -- reflections ----------------------------------------------------------

_KINDS = ("sobrification", "h_sobrification", "super_h_sobrification")


@dataclass(frozen=True)
class Reflection:
    base: FiniteSpace
    system: str
    kind: str
    hoare: powers.HoareSpace  # the determined closed sets under inclusion
    unit: SpaceMap
    iso: SpaceMap | None

    @property
    def space(self) -> FiniteSpace:
        return self.hoare.space

    @property
    def carrier(self) -> tuple[int, ...]:
        return self.hoare.carrier

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "system": self.system,
            "points": self.space.n,
            "carrier": [sorted(self.base.labels_of(m)) for m in self.carrier],
            "unit": self.unit.to_json(),
            "iso_to_base": None if self.iso is None else self.iso.to_json(),
        }


def reflect(
    X: FiniteSpace,
    system="R",
    kind: str = "h_sobrification",
    config: RunConfig = DEFAULT,
) -> Reflection:
    """The sobriety reflection of the named kind: the space of determined
    closed sets under inclusion, with the point-closure unit x -> cl{x}.

    For every system and kind these are the point closures, so the carrier
    is ``powers.hoare(X, "irr_closed")``, certified determined, and no
    checker runs.  The unit is certified a topological embedding by
    ``powers.hoare_eta``, so when it is onto (always, on finite carriers)
    it is the homeomorphism ``iso`` from the base, else ``iso`` is None.
    """
    if kind not in _KINDS:
        raise UsageError(f"kind must be one of {_KINDS}")
    H = systems.as_system(system)
    HS = powers.hoare(X, "irr_closed", config)
    unit = powers.hoare_eta(HS)
    return Reflection(
        base=X,
        system=str(H),
        kind=kind,
        hoare=HS,
        unit=unit,
        iso=unit if unit.image_mask(X.full) == HS.space.full else None,
    )


def _extend_along_unit(refl: Reflection, Y: FiniteSpace, table: tuple[int, ...]) -> tuple[int, ...]:
    """The table of the unique continuous extension f* with f* . unit = f,
    for f given by its table into Y: a member goes to the generic point of
    the closure of its image (``powers._member_table``), read from a table
    kept in Y's memo (``"extension tops"``), so computed once per target,
    and read with the member points from one entry (``("extension", Y)``)."""
    points, tops = refl.space.memo(("extension", Y), lambda: (powers._member_points(refl.hoare), Y.memo(
        "extension tops", lambda: _PerMask(lambda img: Y.top_of(Y.closure_mask(img))))))
    star = powers._member_table(points, table, tops)
    if star is None:
        raise InternalError("target is not sober enough to extend along the unit")
    return star


def universal_property_verify(
    refl: Reflection,
    Y: FiniteSpace,
    f: SpaceMap | None = None,
    config: RunConfig = DEFAULT,
) -> dict:
    """Check the reflection's universal property against one target: every
    continuous map from the base extends uniquely through the unit.

    With ``f`` omitted, all continuous maps into the target are tried.
    Uniqueness is verified by grouping *all* continuous maps from the
    reflected space by their restriction along the unit.  Maps are read
    as tables; both enumerations run before ``f``'s endpoints are checked.
    """
    all_f = _map_tables(refl.base, Y, config)
    all_g = _map_tables(refl.space, Y, config)
    if f is not None and (f.source is not refl.base or f.target is not Y):
        raise EndpointMismatch("map endpoints do not match the reflection")
    unit = refl.unit.table
    by_restriction: dict[tuple, list[tuple]] = {}
    for g in all_g:
        by_restriction.setdefault(tuple([g[u] for u in unit]), []).append(g)
    fs = all_f if f is None else [f.table]
    unique = commute = True
    for t in fs:
        star = _extend_along_unit(refl, Y, t)
        if tuple([star[u] for u in unit]) != t:
            commute = False
        if by_restriction.get(t) != [star]:
            unique = False
    # restriction along the unit is a bijection onto the continuous maps
    surj = all(len(v) == 1 for v in by_restriction.values()) and len(by_restriction) == len(all_f)
    return {
        "target_points": Y.n,
        "maps_checked": len(fs),
        "factorizations_commute": commute,
        "factorizations_unique": unique,
        "restriction_bijective": surj,
        "ok": commute and unique and surj,
    }


def reflection_functor(refl_X: Reflection, refl_Y: Reflection, f: SpaceMap) -> SpaceMap:
    """The functorial lift of f between reflections (closure of the image,
    member by member), checked to commute with the units: the one lift
    whose units come from the caller, in its ``Reflection``s."""
    if f.source is not refl_X.base or f.target is not refl_Y.base:
        raise EndpointMismatch("map endpoints do not match the reflections")
    Rf = powers._lift(f, refl_X.hoare, refl_Y.hoare, f.target.closure_mask)
    if refl_X.unit.then(Rf).table != tuple(refl_Y.unit.table[y] for y in f.table):
        raise InternalError("lift is not natural in the units")  # unreachable
    return Rf


def product_preservation(
    X: FiniteSpace,
    Y: FiniteSpace,
    system="R",
    kind: str = "h_sobrification",
    config: RunConfig = DEFAULT,
) -> dict:
    """Compare the reflection of a binary product with the product of the
    reflections through the canonical map A -> (cl pi1 A, cl pi2 A), certified
    injective, onto and an order embedding (else NoHomeomorphism).  Returns
    the map as ``iso``, the number of ``reflection_points`` and ``ok``, which
    is true on every return."""
    P = product(X, Y, config)
    RP = reflect(P.space, system, kind, config)
    RX = reflect(X, system, kind, config)
    RY = reflect(Y, system, kind, config)
    RXY = product(RX.space, RY.space, config)
    table = tuple(
        RXY.pair_index(RX.hoare.index[X.closure_mask(P.left.image_mask(m))],
                       RY.hoare.index[Y.closure_mask(P.right.image_mask(m))])
        for m in RP.carrier
    )
    # an order embedding is monotone, so these checks certify the table
    iso = SpaceMap._trusted(RP.space, RXY.space, table)
    if not (iso.is_injective() and iso.image_mask(RP.space.full) == RXY.space.full and iso.is_order_embedding()):
        raise NoHomeomorphism(
            "the map A -> (cl pi1 A, cl pi2 A) is not a homeomorphism onto the product of the reflections"
        )
    return {"iso": iso, "reflection_points": RP.space.n, "ok": True}
