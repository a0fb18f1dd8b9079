"""Brute-force reference implementations used to pin the package's
reduced/clever paths to the raw definitions.

Everything here works by exhaustive enumeration straight from the
definitions (powersets, all splits, all families) and deliberately avoids
the package's own shortcuts: no top-of-closure criteria, no least-member
reductions (``has_least_member`` states that criterion itself, for a test
too large for ``family_h_member``), no structural certifications.  Only
usable on small spaces.
"""
from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import and_

from t0lab import construct, systems
from t0lab.config import DEFAULT
from t0lab.errors import EndpointMismatch, MalformedDocument, NotT0
from t0lab.spaces import FiniteSpace, SpaceMap, bits


def closure(X: FiniteSpace, m: int) -> int:
    out = 0
    for i in bits(m):
        out |= X.down[i]
    return out


def saturation(X: FiniteSpace, m: int) -> int:
    out = 0
    for i in bits(m):
        out |= X.up[i]
    return out


def upper_bounds(X: FiniteSpace, m: int) -> int:
    out = X.full
    for i in bits(m):
        out &= X.up[i]
    return out


def maximal(X: FiniteSpace, m: int) -> int:
    out = 0
    for i in bits(m):
        if X.up[i] & m == 1 << i:
            out |= 1 << i
    return out


def minimal(X: FiniteSpace, m: int) -> int:
    out = 0
    for i in bits(m):
        if X.down[i] & m == 1 << i:
            out |= 1 << i
    return out


def greatest(X: FiniteSpace, m: int):
    """The point of m above every point of m, or None."""
    for i in bits(m):
        if all((X.up[j] >> i) & 1 for j in bits(m)):
            return i
    return None


def order_down_rows(labels, up) -> tuple[int, ...]:
    """The order-row validation of ``FiniteSpace``, row by row through
    ``bits``: the same checks, in the same order, with the same classes
    and messages; returns the transposed rows of a valid order."""
    n = len(labels)
    if len(up) != n:
        raise MalformedDocument("order table size does not match labels")
    full = (1 << n) - 1
    for i, row in enumerate(up):
        if row & ~full:
            raise MalformedDocument("order row mentions unknown points")
        if not (row >> i) & 1:
            raise MalformedDocument("order must be reflexive")
    for i in range(n):
        for j in bits(up[i]):
            if j != i and (up[j] >> i) & 1:
                raise NotT0(
                    f"points {labels[i]!r} and {labels[j]!r} lie in each "
                    f"other's closure; the description is not T0"
                )
    for i in range(n):
        acc = up[i]
        for j in bits(up[i]):
            acc |= up[j]
        if acc != up[i]:
            raise MalformedDocument("order table is not transitive")
    down = [0] * n
    for i in range(n):
        for j in bits(up[i]):
            down[j] |= 1 << i
    return tuple(down)


# the order-calculus kernel of FiniteSpace and its per-bit definition
KERNEL = (
    ("closure_mask", closure),
    ("sat_mask", saturation),
    ("ubs_mask", upper_bounds),
    ("max_mask", maximal),
    ("min_mask", minimal),
    ("top_of", greatest),
)


def naturally_labelled_posets(n: int) -> list[tuple[int, ...]]:
    """The order rows of every class on n points, in canonical-key order:
    every naturally labelled poset (each point's strict down-set a
    down-closed set of the points before it), deduped by
    ``construct._canon_key``.  Lists 96,428 posets at n = 7."""
    results: set[tuple] = set()
    up: list[int] = []

    def rec(k: int):
        if k == n:
            results.add(construct._canon_key(n, up))
            return
        for m in range(1 << k):
            # down-closure: a point outside m may not lie under a point of m
            if any(not (m >> i) & 1 and up[i] & m & ~(1 << i) for i in range(k)):
                continue
            for j in bits(m):
                up[j] |= 1 << k
            up.append(1 << k)
            rec(k + 1)
            up.pop()
            for j in bits(m):
                up[j] &= ~(1 << k)

    rec(0)
    return sorted(results)


def downsets(X: FiniteSpace) -> list[int]:
    out = []
    for m in range(X.full + 1):
        if all((m >> j) & 1 for i in bits(m) for j in bits(X.down[i])):
            out.append(m)
    return out


def upsets(X: FiniteSpace) -> list[int]:
    return [X.full & ~d for d in downsets(X)]


def irreducible(X: FiniteSpace, m: int) -> bool:
    """Definitional: nonempty, and no cover of the closure by two proper
    relatively-closed parts."""
    if m == 0:
        return False
    cl = closure(X, m)
    downs = [d for d in downsets(X) if d & cl != cl]
    for c1 in downs:
        for c2 in downs:
            if cl & ~(c1 | c2) == 0:
                return False
    return True


def directed(X: FiniteSpace, m: int) -> bool:
    if m == 0:
        return False
    for i in bits(m):
        for j in bits(m):
            if not (X.up[i] & X.up[j] & m):
                return False
    return True


def chain(X: FiniteSpace, m: int) -> bool:
    if m == 0:
        return False
    for i in bits(m):
        for j in bits(m):
            if not ((X.up[i] >> j) & 1 or (X.up[j] >> i) & 1):
                return False
    return True


def h_member(core: str, X: FiniteSpace, m: int) -> bool:
    if core == "S":
        return m != 0 and m & (m - 1) == 0
    if core == "C":
        return chain(X, m)
    if core == "D":
        return directed(X, m)
    if core == "R":
        return irreducible(X, m)
    raise ValueError(core)


def sup_of(X: FiniteSpace, m: int):
    ubs = [i for i in range(X.n) if all((X.up[j] >> i) & 1 for j in bits(m))]
    least = [i for i in ubs if all((X.up[i] >> j) & 1 for j in ubs)]
    return least[0] if least else None


def sober(X: FiniteSpace) -> bool:
    for d in downsets(X):
        if not irreducible(X, d):
            continue
        generics = [i for i in range(X.n) if X.down[i] == d]
        if len(generics) != 1:
            return False
    return True


def d_space(X: FiniteSpace) -> bool:
    for m in range(1, X.full + 1):
        if not directed(X, m):
            continue
        s = sup_of(X, m)
        if s is None or closure(X, m) != X.down[s]:
            return False
    return True


def compacts(X: FiniteSpace) -> list[int]:
    # on a finite space the compact saturated sets are the nonempty up-sets
    return [u for u in upsets(X) if u]


def filtered_family(X: FiniteSpace, fam: tuple[int, ...]) -> bool:
    if not fam:
        return False
    for a in fam:
        for b in fam:
            if not any(c & ~(a & b) == 0 for c in fam):
                return False
    return True


def well_filtered(X: FiniteSpace, max_family_base: int = 12) -> bool:
    ks = compacts(X)
    if len(ks) > max_family_base:
        raise ValueError("space too large for the raw oracle")
    opens = upsets(X)
    for r in range(1, len(ks) + 1):
        for fam in combinations(ks, r):
            if not filtered_family(X, fam):
                continue
            inter = X.full
            for k in fam:
                inter &= k
            for U in opens:
                if inter & ~U == 0 and not any(k & ~U == 0 for k in fam):
                    return False
    return True


def h_sober(X: FiniteSpace, core: str) -> bool:
    for d in downsets(X):
        if d == 0 or not h_member(core, X, d):
            continue
        generics = [i for i in range(X.n) if X.down[i] == d]
        if len(generics) != 1:
            return False
    return True


def smyth_space(X: FiniteSpace) -> tuple[list[int], FiniteSpace]:
    ks = compacts(X)
    up = []
    for a in ks:
        m = 0
        for j, b in enumerate(ks):
            if b & ~a == 0:  # reverse inclusion
                m |= 1 << j
        up.append(m)
    return ks, FiniteSpace([f"k{i}" for i in range(len(ks))], up)


def family_h_member(core: str, X: FiniteSpace, fam: tuple[int, ...]) -> bool:
    """Definitional membership of a family of compacts in the system over
    the Smyth order, via the raw Smyth space."""
    ks, S = smyth_space(X)
    idx = {k: i for i, k in enumerate(ks)}
    m = 0
    for k in fam:
        m |= 1 << idx[k]
    return h_member(core, S, m)


def has_least_member(fam: tuple[int, ...]) -> bool:
    """Does the family of compacts have a least member under inclusion,
    i.e. is its meet one of its members?  That is the criterion for a
    family to be irreducible in the Smyth order, stated on the masks with
    no Smyth space; ``family_h_member`` is the definitional form."""
    return reduce(and_, fam) in fam


def super_h_sober(X: FiniteSpace, core: str, max_family_base: int = 12) -> bool:
    """Definitional: every H-family of compacts has a member inside each
    open neighborhood of its intersection."""
    ks, S = smyth_space(X)
    if len(ks) > max_family_base:
        raise ValueError("space too large for the raw oracle")
    idx = {k: i for i, k in enumerate(ks)}
    opens = upsets(X)
    for r in range(1, len(ks) + 1):
        for fam in combinations(ks, r):
            fm = 0
            for k in fam:
                fm |= 1 << idx[k]
            if not h_member(core, S, fm):
                continue
            inter = X.full
            for k in fam:
                inter &= k
            for U in opens:
                if inter & ~U == 0 and not any(k & ~U == 0 for k in fam):
                    return False
    return True


def scott_h_open(core: str, X: FiniteSpace, U: int) -> bool:
    if any((U >> j) & 1 == 0 for i in bits(U) for j in bits(X.up[i])):
        return False
    for m in range(1, X.full + 1):
        if not h_member(core, X, m):
            continue
        s = sup_of(X, m)
        if s is not None and (U >> s) & 1 and not (m & U):
            return False
    return True


def is_open_filter(X: FiniteSpace, fam) -> bool:
    """Definitional: a nonempty family of nonempty opens, upward closed
    among the opens and closed under pairwise meets."""
    opens = upsets(X)
    fs = set(fam)
    if not fs or 0 in fs or not fs <= set(opens):
        return False
    if any(u & ~v == 0 and v not in fs for u in fs for v in opens):
        return False
    return all(u & v in fs for u in fs for v in fs)


def open_filters(X: FiniteSpace) -> list[frozenset]:
    """All proper filters of nonempty opens, by powerset enumeration."""
    opens = [u for u in upsets(X) if u]
    return [frozenset(fam) for r in range(1, len(opens) + 1)
            for fam in combinations(opens, r) if is_open_filter(X, fam)]


def minimal_meeting_closed(X: FiniteSpace, fam: tuple[int, ...]) -> list[int]:
    meet_all = [
        d for d in downsets(X) if d and all(d & k for k in fam)
    ]
    out = []
    for d in meet_all:
        if not any(e != d and e & ~d == 0 for e in meet_all):
            out.append(d)
    return sorted(out, key=lambda m: (m.bit_count(), m))


def map_from_labels(X: FiniteSpace, Y: FiniteSpace, mapping: dict) -> SpaceMap:
    """The checked map X -> Y sending each point label to ``mapping[label]``."""
    return SpaceMap(X, Y, tuple(Y.index(mapping[l]) for l in X.labels))


def continuous_tables(X: FiniteSpace, Y: FiniteSpace) -> list[tuple[int, ...]]:
    """All monotone tables by raw product enumeration."""
    out = []
    tables = [()]
    for _ in range(X.n):
        tables = [t + (y,) for t in tables for y in range(Y.n)]
    for t in tables:
        if all(
            (Y.up[t[i]] >> t[j]) & 1
            for i in range(X.n)
            for j in bits(X.up[i])
        ):
            out.append(t)
    return sorted(out)


def universal_property_records(refl, Y: FiniteSpace, f: SpaceMap | None = None, config=DEFAULT) -> dict:
    """The report of ``construct.universal_property_verify``, computed over
    ``SpaceMap`` records: the maps from ``continuous_maps``, each extension
    built member by member as the greatest point of the closure of the
    member's image, and the unit applied by ``then``."""
    X = refl.base
    fs = [f] if f is not None else construct.continuous_maps(X, Y, config)
    all_g = construct.continuous_maps(refl.space, Y, config)
    by_restriction: dict[tuple, list[SpaceMap]] = {}
    for g in all_g:
        key = tuple(g.table[refl.unit.table[i]] for i in range(X.n))
        by_restriction.setdefault(key, []).append(g)
    checked = 0
    unique = True
    commute = True
    for fmap in fs:
        if fmap.source is not X or fmap.target is not Y:
            raise EndpointMismatch("map endpoints do not match the reflection")
        star = SpaceMap(refl.space, Y, tuple(greatest(Y, closure(Y, fmap.image_mask(m))) for m in refl.carrier))
        checked += 1
        if refl.unit.then(star).table != fmap.table:
            commute = False
        cls = by_restriction.get(fmap.table, [])
        if len(cls) != 1 or cls[0].table != star.table:
            unique = False
    all_f = fs if f is None else construct.continuous_maps(X, Y, config)
    surj = all(len(v) == 1 for v in by_restriction.values()) and len(by_restriction) == len(all_f)
    return {
        "target_points": Y.n,
        "maps_checked": checked,
        "factorizations_commute": commute,
        "factorizations_unique": unique,
        "restriction_bijective": surj,
        "ok": commute and unique and surj,
    }


def sampled_h_sets(P: FiniteSpace, H, rng, count: int) -> list[int]:
    """The per-sample build of ``checkers._sampled_h_sets``, kept as the
    reference for its draws and output: the index lists are rebuilt for
    every sample and step, and every sample goes through
    ``systems._member``."""
    core = systems._core_of(H)
    out = []
    for _ in range(count):
        x = rng.randrange(P.n)
        if core == "S":
            m = 1 << x
        elif core == "C":
            m = 1 << x
            cur = x
            for _ in range(3):
                above = P.up[cur] & ~(1 << cur)
                if not above:
                    break
                choices = list(bits(above))
                cur = choices[rng.randrange(len(choices))]
                m |= 1 << cur
        else:
            below = list(bits(P.down[x]))
            m = 1 << x
            for _ in range(min(4, len(below))):
                m |= 1 << below[rng.randrange(len(below))]
        if systems._member(core, P, m):
            out.append(m)
    return out
