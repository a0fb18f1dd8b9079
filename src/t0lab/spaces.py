"""Finite T0 spaces as labelled posets.

A finite T0 space is the same data as a finite poset: opens are exactly the
up-sets of the specialization order ``x <= y iff x in cl{y}``.  Closure,
saturation, compactness and irreducibility all become order calculus, so a
space is stored as precomputed bitmask rows (``up[i]`` = points above ``i``,
``down[i]`` = points below ``i``) and subsets of the carrier travel as plain
int bitmasks wrapped in :class:`PointSet` at the API boundary.

The order calculus (closure, saturation, common bounds, maximal and minimal
points) is one kernel: an OR over the rows at the set bits of a mask,
answered by lookup tables over 4-bit chunks of the mask (the "four
Russians" method of Arlazarov, Dinic, Kronrod and Faradzev).  Each row
family's table is built on first use, so a space that never asks pays
nothing.

Useful finite facts (each pinned to definitional code by the test suite):

* compact saturated sets are exactly the nonempty up-sets;
* a nonempty set is irreducible iff its closure has a greatest element;
* a nonempty set is directed iff every pair has an upper bound inside it,
  and a finite directed set contains its own greatest element.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    ContinuityError,
    DuplicateLabel,
    EmptyMember,
    EmptySet,
    EndpointMismatch,
    InternalError,
    MalformedDocument,
    NotAlexandroffConsistent,
    NotATopology,
    NotDirected,
    NotT0,
    SpaceMismatch,
    UsageError,
)

__all__ = [
    "bits",
    "mask_of_indices",
    "FiniteSpace",
    "PointSet",
    "ClosedSet",
    "CompactSat",
    "SpaceMap",
    "parse_space",
    "closure",
    "is_directed",
    "chain_core",
    "is_irreducible",
    "random_space",
    "to_dot",
]


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_CHUNK = 4  # bits of a mask answered by one table lookup; two chunks per byte
_CHUNK_MASK = (1 << _CHUNK) - 1


def _join_table(rows: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """``t[c][b]`` = OR of ``rows[_CHUNK * c + j]`` over the set bits ``j``
    of ``b``: one table of 2^_CHUNK joins per chunk of the rows."""
    size = 1 << _CHUNK
    out = []
    for c in range(0, len(rows), _CHUNK):
        part = rows[c:c + _CHUNK]
        t = [0] * size
        for b in range(1, size):
            low = b & -b
            j = low.bit_length() - 1
            t[b] = t[b ^ low] | (part[j] if j < len(part) else 0)
        out.append(tuple(t))
    return tuple(out)


def _join(tables: tuple[tuple[int, ...], ...], mask: int) -> int:
    """OR of the table's rows at the set bits of ``mask``.

    A mask reaching past 64 points with fewer than one set bit in 8 ORs
    the rows at its set bits, each read as the table's singleton entry;
    any other such mask is read once as bytes, and each nonzero byte ORs
    the entries of its two chunks.  A smaller mask reads one entry per
    chunk up to its highest bit, so a space of at most 64 points pays one
    comparison for the choice."""
    m = 0
    if mask >= 1 << 64:
        if 8 * mask.bit_count() < mask.bit_length():
            while mask:
                i = mask.bit_length() - 1
                m |= tables[i // _CHUNK][1 << (i % _CHUNK)]
                mask ^= 1 << i
            return m
        # two chunks per byte; chunks past the last table are ignored
        k = len(tables)
        data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
        for c, b in zip(range(0, k - 1, 2), data):
            if b:
                m |= tables[c][b & _CHUNK_MASK] | tables[c + 1][b >> _CHUNK]
        if k & 1:
            m |= tables[k - 1][(mask >> (_CHUNK * (k - 1))) & _CHUNK_MASK]
        return m
    for t in tables:
        m |= t[mask & _CHUNK_MASK]
        mask >>= _CHUNK
        if not mask:
            break
    return m


def mask_of_indices(idxs: Iterable[int]) -> int:
    m = 0
    for i in idxs:
        m |= 1 << i
    return m


def _checked_labels(labels: Sequence[str]) -> tuple[str, ...]:
    """The labels as a tuple, checked nonempty and free of duplicates."""
    labels = tuple(labels)
    if not labels:
        raise MalformedDocument("a space needs at least one point")
    if len(set(labels)) != len(labels):
        dupes = sorted({l for l in labels if labels.count(l) > 1})
        raise DuplicateLabel(f"duplicate point labels: {dupes}")
    return labels


def _point_columns(n: int, carrier: Sequence[int]) -> list[int]:
    """For each point x < n, the mask of the carrier indices whose members
    hold x: the transpose of the rows ``carrier``, so the down rows of the
    up rows."""
    cols = [0] * n
    bit = 1
    for b in carrier:
        while b:
            low = b & -b
            cols[low.bit_length() - 1] |= bit
            b ^= low
        bit <<= 1
    return cols


class FiniteSpace:
    """A finite T0 space, stored as its specialization poset.

    Instances are immutable; identity is used for ownership checks on
    subsets, so build a space once and pass it around.
    """

    # the ``_t_*`` slots hold the kernel's join tables, each set on first use
    __slots__ = (
        "labels", "up", "down", "n", "full", "_index", "_cache",
        "_t_down", "_t_up", "_t_not_up", "_t_below", "_t_above",
    )

    def __init__(self, labels: Sequence[str], up: Sequence[int]):
        labels = _checked_labels(labels)
        up = tuple(up)
        n = len(labels)
        if len(up) != n:
            raise MalformedDocument("order table size does not match labels")
        full = (1 << n) - 1
        for i, row in enumerate(up):
            if row & ~full:
                raise MalformedDocument("order row mentions unknown points")
            if not (row >> i) & 1:
                raise MalformedDocument("order must be reflexive")
        down = tuple(_point_columns(n, up))
        # antisymmetry: a cycle would merge two points, violating T0; j lies
        # in i's up-set and i in j's exactly when j is in up[i] & down[i]
        for i in range(n):
            both = up[i] & down[i] & ~(1 << i)
            if both:
                j = (both & -both).bit_length() - 1
                raise NotT0(
                    f"points {labels[i]!r} and {labels[j]!r} lie in each "
                    f"other's closure; the description is not T0"
                )
        # transitivity is an internal contract of the constructors
        for row in up:
            rest = row
            while rest:
                low = rest & -rest
                if up[low.bit_length() - 1] & ~row:
                    raise MalformedDocument("order table is not transitive")
                rest ^= low
        self._fill(labels, up, down)

    def _fill(self, labels: tuple[str, ...], up: tuple[int, ...], down: tuple[int, ...]) -> "FiniteSpace":
        """Set the slots, in slot order, and return the space: the one
        writer of the slots.  ``__init__`` calls it once its checks pass,
        ``_inclusion_space`` on a fresh instance and unchecked."""
        n = len(labels)
        index = {l: i for i, l in enumerate(labels)}
        for slot, value in zip(self.__slots__, (labels, up, down, n, (1 << n) - 1, index, {})):
            object.__setattr__(self, slot, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("FiniteSpace is immutable")

    # -- basic structure -------------------------------------------------

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise MalformedDocument(f"unknown point label {label!r}") from None

    def leq(self, i: int, j: int) -> bool:
        return bool((self.up[i] >> j) & 1)

    def mask_of(self, labels: Iterable[str]) -> int:
        return mask_of_indices(self.index(l) for l in labels)

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in bits(mask))

    def __repr__(self) -> str:
        preview = ",".join(self.labels[:4]) + ("…" if self.n > 4 else "")
        return f"FiniteSpace({self.n} points: {preview})"

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_covers(cls, labels: Sequence[str], covers: Iterable[tuple[str, str]]) -> "FiniteSpace":
        """Build from strict order edges ``(a, b)`` meaning ``a < b``.

        Edges need not be a Hasse diagram; the reflexive-transitive closure
        is taken.  The constructor validates the rows, so a cycle raises
        :class:`NotT0` there.
        """
        labels = tuple(labels)
        index = {l: i for i, l in enumerate(labels)}
        n = len(labels)
        rows = [1 << i for i in range(n)]
        for edge in covers:
            if len(edge) != 2:
                raise MalformedDocument(f"cover edge {edge!r} is not a pair")
            a, b = edge
            if a not in index or b not in index:
                raise MalformedDocument(f"cover edge {edge!r} mentions unknown points")
            if a == b:
                raise MalformedDocument(f"cover edge {edge!r} is a self-loop")
            rows[index[a]] |= 1 << index[b]
        # Floyd-Warshall style transitive closure on bit rows
        for k in range(n):
            bit = 1 << k
            row_k = rows[k]
            for i in range(n):
                if rows[i] & bit:
                    rows[i] |= row_k
        return cls(labels, rows)

    @classmethod
    def from_opens(cls, labels: Sequence[str], opens: Iterable[Iterable[str]]) -> "FiniteSpace":
        """Build from an explicit list of open sets.

        The family must be a topology on the points and must equal the
        up-set family of its own specialization order (every finite space
        determines and is determined by that order).
        """
        labels = _checked_labels(labels)
        index = {l: i for i, l in enumerate(labels)}
        n = len(labels)
        full = (1 << n) - 1
        fam: set[int] = set()
        for U in opens:
            m = 0
            for l in U:
                if l not in index:
                    raise MalformedDocument(f"open set mentions unknown point {l!r}")
                m |= 1 << index[l]
            fam.add(m)
        if 0 not in fam or full not in fam:
            raise NotATopology("the family must contain the empty set and the whole carrier")
        fam_list = sorted(fam)
        for a in fam_list:
            for b in fam_list:
                if (a | b) not in fam:
                    raise NotATopology(
                        f"not closed under union: {sorted(labels[i] for i in bits(a))} "
                        f"| {sorted(labels[i] for i in bits(b))}"
                    )
                if (a & b) not in fam:
                    raise NotATopology(
                        f"not closed under intersection: {sorted(labels[i] for i in bits(a))} "
                        f"& {sorted(labels[i] for i in bits(b))}"
                    )
        # specialization order: x <= y iff every open containing x contains y
        rows = []
        for i in range(n):
            m = full
            for U in fam_list:
                if (U >> i) & 1:
                    m &= U
            rows.append(m)
        for i in range(n):
            for j in bits(rows[i]):
                if j != i and (rows[j] >> i) & 1:
                    raise NotT0(
                        f"points {labels[i]!r} and {labels[j]!r} have the same "
                        f"open neighbourhoods"
                    )
        space = cls(labels, rows)
        expected = set(space.upsets())
        if fam != expected:
            missing = sorted(expected - fam)
            extra = sorted(fam - expected)
            detail = []
            if missing:
                detail.append(f"missing up-set {list(space.labels_of(missing[0]))}")
            if extra:
                detail.append(f"extra open {list(space.labels_of(extra[0]))}")
            raise NotAlexandroffConsistent(
                "the family is a topology but not the up-set topology of its "
                "specialization order: " + "; ".join(detail)
            )
        return space

    # -- order calculus on masks ----------------------------------------

    def _keep(self, slot: str, rows: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """Build the join table of ``rows`` and keep it in ``slot``."""
        t = _join_table(rows)
        object.__setattr__(self, slot, t)
        return t

    def closure_mask(self, mask: int) -> int:
        try:
            t = self._t_down
        except AttributeError:
            t = self._keep("_t_down", self.down)
        return _join(t, mask)

    def sat_mask(self, mask: int) -> int:
        try:
            t = self._t_up
        except AttributeError:
            t = self._keep("_t_up", self.up)
        return _join(t, mask)

    def ubs_mask(self, mask: int) -> int:
        """Common upper bounds; the whole carrier when ``mask`` is empty."""
        try:
            t = self._t_not_up
        except AttributeError:
            t = self._keep("_t_not_up", [self.full ^ r for r in self.up])
        return self.full & ~_join(t, mask)

    def max_mask(self, mask: int) -> int:
        # a point of mask is maximal iff it lies strictly below no point of it
        try:
            t = self._t_below
        except AttributeError:
            t = self._keep("_t_below", [r ^ (1 << i) for i, r in enumerate(self.down)])
        return mask & ~_join(t, mask)

    def min_mask(self, mask: int) -> int:
        try:
            t = self._t_above
        except AttributeError:
            t = self._keep("_t_above", [r ^ (1 << i) for i, r in enumerate(self.up)])
        return mask & ~_join(t, mask)

    def is_down(self, mask: int) -> bool:
        return self.closure_mask(mask) == mask

    def is_up(self, mask: int) -> bool:
        return self.sat_mask(mask) == mask

    def top_of(self, mask: int) -> int | None:
        """The greatest element of ``mask`` as an index, or ``None``."""
        m = self.max_mask(mask)
        if m and m & (m - 1) == 0:
            t = m.bit_length() - 1
            if mask & ~self.down[t] == 0:
                return t
        return None

    # -- family enumeration ---------------------------------------------

    def downsets(self) -> list[int]:
        """All down-sets (closed sets), sorted by (size, mask).

        Output-sensitive: built over a linear extension, so cost is
        O(#downsets * n), never 2^n.
        """
        return self.memo("downsets", self._downsets)

    def _downsets(self) -> list[int]:
        order = sorted(range(self.n), key=lambda i: (self.down[i].bit_count(), i))
        ideals = [0]
        for i in order:
            need = self.down[i] & ~(1 << i)
            bit = 1 << i
            ideals += [I | bit for I in ideals if need & ~I == 0]
        return sorted(ideals, key=lambda m: (m.bit_count(), m))

    def upsets(self) -> list[int]:
        """All up-sets (opens), sorted by (size, mask); one shared list."""
        downs = self.downsets()
        full = self.full
        return self.memo("upsets", lambda: sorted((full ^ d for d in downs), key=lambda m: (m.bit_count(), m)))

    def nonempty_upsets(self) -> list[int]:
        return [u for u in self.upsets() if u]

    def irr_downsets(self) -> list[int]:
        """Irreducible closed sets, sorted by (size, mask): on a finite
        space the point closures, each certified to have its own point as
        greatest element, so no family is listed at any size."""

        def build():
            for x, d in enumerate(self.down):
                if self.top_of(d) != x:
                    raise InternalError("principal closure failed determinacy")
            return sorted(self.down, key=lambda m: (m.bit_count(), m))

        return self.memo("irr_downsets", build)

    # -- memo ------------------------------------------------------------

    def memo(self, key, build):
        """The space's one cache: the value stored under ``key``, made by
        ``build()`` on first use.  The key names everything the value
        depends on besides the space itself; a value whose build reads the
        caps has the caps in its key, so no cap is bypassed by a value
        built under other caps.  A value may be a table filled lazily after
        the build, most often a :class:`_PerMask`: the checkers' per-mask
        tables (saturated cuts, sampled members' membership, the
        neighborhood-filtration and under-the-top outcomes, and
        ``d_space``'s principal tops), their cut rows, the least upper
        bounds of ``systems`` and its family orders (``"family spaces"``, keyed by
        a family's mask tuple), and the escaped labels (``"escaped labels"``) that
        every derived label reads.  A source space keeps, per target Y, its
        sorted monotone tables (``("map tables", Y)``) and each lift's power
        spaces and hull (``("smyth_map", Y, caps)``, ``("hoare_map", which,
        Y, caps)``).  A power space's own space lists each member's points
        (``"member points"``) and the carrier index of ``hull(image)`` per
        image mask (``("lift", hull)``); a target space, the generic point of
        the closure of each image mask (``"extension tops"``).  One entry per
        pair holds a member-points list and one of those tables: ``("lift",
        target space, hull)`` per lift out of a power space, and
        ``("extension", Y)`` per reflected space and target.
        A Smyth space lists its H-members as families of compacts
        (``("families", core)``), and its cut table (``"cut_sat"``) serves
        the four cores' ``checkers.crosscheck_super``.  The walk tables
        of ``checkers._sampled_h_sets`` (``"above_index"``,
        ``"below_index"``) hold per point an index tuple, its length, the
        length's bit count and, for the down-sets, the range of picks.  A
        table's key must name everything an entry depends on, the path
        included, and none of those tables reads a cap.  The checkers keep
        one record per S/C/D/R core: an H-parameterized verdict's paths and
        evidence (``("paths", property, core, config)``) and a battery's
        report (``(battery, core, config)``), from which every system with
        that core renders its own; each per-system verdict is kept under
        ``("verdict", property, system, config)``.  Each key holds the run
        config, so a run under other caps never reuses them."""
        cache = self._cache
        value = cache.get(key, cache)  # the cache itself marks a miss
        if value is cache:
            value = cache[key] = build()
        return value

    # -- presentation ----------------------------------------------------

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Hasse diagram edges (i, j) with i < j and nothing strictly between."""
        out = []
        for i in range(self.n):
            above = self.up[i] & ~(1 << i)
            for j in bits(above):
                between = above & self.down[j] & ~(1 << j)
                if between == 0:
                    out.append((i, j))
        return out

    def to_doc(self) -> dict:
        covers = [[self.labels[i], self.labels[j]] for i, j in self.cover_pairs()]
        return {"points": list(self.labels), "covers": covers}

    def subspace(self, mask: int) -> "FiniteSpace":
        """Induced subspace on the points of ``mask`` (labels preserved)."""
        if mask == 0:
            raise EmptySet("a subspace needs at least one point")
        keep = list(bits(mask))
        pos = {old: new for new, old in enumerate(keep)}
        rows = []
        for old in keep:
            r = 0
            for j in bits(self.up[old] & mask):
                r |= 1 << pos[j]
            rows.append(r)
        return FiniteSpace(tuple(self.labels[i] for i in keep), rows)


class _PerMask(dict):
    """The mask function ``f`` wrapped in a dict: ``table[m]`` is ``f(m)``,
    computed on the first read of ``m`` (a mask, or a tuple of masks) and
    kept, so a read of a known mask makes no Python call.  Kept in a
    space's memo, the table decides each mask once per space; the checkers'
    sampled paths read every sample (a list under ``all``), so a kernel
    that raises on a later sample still raises."""

    __slots__ = ("f",)

    def __init__(self, f: Callable[[int], object]):
        self.f = f

    def __missing__(self, m: int):
        v = self[m] = self.f(m)
        return v


# -- derived labels -------------------------------------------------------

# A derived label, of a set ``{a,b}``, a pair ``(x,y)`` or a map
# ``[a>x,b>y]``, puts a backslash before each reserved character of its
# components, so it splits one way only: distinct values, distinct labels.
_ESCAPE = str.maketrans({c: "\\" + c for c in "\\,{}()[]>"})


def _escaped(X: FiniteSpace) -> tuple[str, ...]:
    """X's labels, escaped once per space (unchanged if none is reserved)."""
    return X.memo("escaped labels", lambda: tuple(l.translate(_ESCAPE) for l in X.labels))


def _set_label(X: FiniteSpace, mask: int) -> str:
    e = _escaped(X)
    return "{" + ",".join(e[i] for i in bits(mask)) + "}"


def _pair_labels(X: FiniteSpace, Y: FiniteSpace) -> list[str]:
    return [f"({a},{b})" for a in _escaped(X) for b in _escaped(Y)]


def _map_label(X: FiniteSpace, Y: FiniteSpace, table: Sequence[int]) -> str:
    ex, ey = _escaped(X), _escaped(Y)
    return "[" + ",".join(f"{ex[i]}>{ey[v]}" for i, v in enumerate(table)) + "]"


_MEMBER = re.compile(r"(?:\\.|[^\\,])*")  # up to the next unescaped comma


def _set_mask(X: FiniteSpace, label: str) -> int | None:
    """The one mask whose ``_set_label`` is ``label``, or None; ``{}`` is
    read as the set of a point labelled "" if X has one, else as 0."""
    index = {e: 1 << i for i, e in enumerate(_escaped(X))}
    mask, pos = 0, 1
    while pos < len(label):
        m = _MEMBER.match(label, pos, len(label) - 1)
        mask |= index.get(m.group(), 0)
        pos = m.end() + 1
    return mask if _set_label(X, mask) == label else None


# -- inclusion orders -----------------------------------------------------


def _inclusion_space(X: FiniteSpace, carrier: Sequence[int], reverse: bool,
                     cols: Sequence[int] | None = None) -> FiniteSpace:
    """The carrier of subsets of X ordered by inclusion, or by reverse
    inclusion when ``reverse``: member i lies below member j iff the
    order relates their masks.  The supersets of a are the members holding
    every point of a, and its subsets the members missing every point
    outside a: one AND per point over the ``_point_columns`` (``cols``,
    built here when not given).  The two row families are each other's
    transposes and the members' set labels are distinct, so the space is
    built with no check."""
    if cols is None:
        cols = _point_columns(X.n, carrier)
    supersets, subsets = [], []
    for a in carrier:
        sup = sub = (1 << len(carrier)) - 1
        for x, c in enumerate(cols):
            if (a >> x) & 1:
                sup &= c
            else:
                sub &= ~c
        supersets.append(sup)
        subsets.append(sub)
    up, down = (subsets, supersets) if reverse else (supersets, subsets)
    labels = tuple(_set_label(X, a) for a in carrier)
    return FiniteSpace.__new__(FiniteSpace)._fill(labels, tuple(up), tuple(down))


# -- subset wrappers ------------------------------------------------------


@dataclass(frozen=True)
class PointSet:
    """A subset of a space's carrier.  Equality is structural; the owning
    space is compared by identity, which is what SpaceMismatch checks use."""

    space: FiniteSpace
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask <= self.space.full:
            raise UsageError("subset mask does not fit the carrier")

    @classmethod
    def of(cls, space: FiniteSpace, labels: Iterable[str]) -> "PointSet":
        return cls(space, space.mask_of(labels))

    @property
    def labels(self) -> tuple[str, ...]:
        return self.space.labels_of(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return bits(self.mask)

    def __bool__(self) -> bool:
        return self.mask != 0

    def to_json(self) -> list[str]:
        return list(self.labels)


class ClosedSet(PointSet):
    def __post_init__(self):
        super().__post_init__()
        if not self.space.is_down(self.mask):
            raise UsageError(
                f"{list(self.space.labels_of(self.mask))} is not closed "
                f"(not a down-set)"
            )


class CompactSat(PointSet):
    """A compact saturated set: on a finite space, a nonempty up-set."""

    def __post_init__(self):
        super().__post_init__()
        if self.mask == 0:
            raise EmptyMember("compact saturated sets are nonempty")
        if not self.space.is_up(self.mask):
            raise UsageError(
                f"{list(self.space.labels_of(self.mask))} is not saturated "
                f"(not an up-set)"
            )


def _as_mask(space: FiniteSpace, A) -> int:
    if isinstance(A, PointSet):
        if A.space is not space:
            raise SpaceMismatch("subset does not belong to this space")
        return A.mask
    if isinstance(A, int):
        if not 0 <= A <= space.full:
            raise UsageError("subset mask does not fit the carrier")
        return A
    return space.mask_of(A)


# -- operations -----------------------------------------------------------


def parse_space(doc) -> FiniteSpace:
    """Parse a space description.

    Accepts a dict (or JSON string) of the form
    ``{"points": [...], "covers": [[a, b], ...]}`` with ``a < b``, or
    ``{"points": [...], "opens": [[...], ...]}``.
    """
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as e:
            raise MalformedDocument(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise MalformedDocument("space description must be an object")
    if "points" not in doc:
        raise MalformedDocument('space description needs a "points" list')
    points = doc["points"]
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise MalformedDocument('"points" must be a list of strings')
    has_covers = "covers" in doc
    has_opens = "opens" in doc
    if has_covers == has_opens:
        raise MalformedDocument('give exactly one of "covers" or "opens"')
    extra = set(doc) - {"points", "covers", "opens", "name"}
    if extra:
        raise MalformedDocument(f"unknown keys in space description: {sorted(extra)}")
    if has_covers:
        covers = doc["covers"]
        if not isinstance(covers, list):
            raise MalformedDocument('"covers" must be a list of pairs')
        return FiniteSpace.from_covers(points, [tuple(e) for e in covers])
    opens = doc["opens"]
    if not isinstance(opens, list):
        raise MalformedDocument('"opens" must be a list of lists')
    return FiniteSpace.from_opens(points, opens)


def closure(X: FiniteSpace, A) -> ClosedSet:
    return ClosedSet(X, X.closure_mask(_as_mask(X, A)))


def _directed_mask(X: FiniteSpace, m: int) -> bool:
    """Directedness of the nonempty mask ``m``, trusted, from the up rows:
    ``m & up[a] & up[b] != 0`` for each pair a < b, save where b is above
    a, which b itself settles (up rows are reflexive).  Its validating
    fronts are ``is_directed`` and ``chain_core``."""
    up = X.up
    rest = m
    while rest:
        low = rest & -rest
        rest ^= low
        ua = m & up[low.bit_length() - 1]
        r = rest & ~ua
        while r:
            lb = r & -r
            if ua & up[lb.bit_length() - 1] == 0:
                return False
            r ^= lb
    return True


def _irreducible_mask(X: FiniteSpace, m: int) -> bool:
    """Irreducibility of the nonempty mask ``m``, trusted: the closure has
    a greatest element.  ``is_irreducible`` is its validating front."""
    return X.top_of(X.closure_mask(m)) is not None


def is_directed(X: FiniteSpace, A) -> bool:
    """Every pair of elements has an upper bound *inside* the set."""
    m = _as_mask(X, A)
    if m == 0:
        raise EmptySet("directedness is about nonempty sets")
    return _directed_mask(X, m)


def chain_core(X: FiniteSpace, D) -> PointSet:
    """A chain inside a directed set with the same down-closure.

    A finite directed set has a greatest element, so the core is that
    single point; checked, not assumed.
    """
    m = _as_mask(X, D)
    if m == 0:
        raise EmptySet("directedness is about nonempty sets")
    if not _directed_mask(X, m):
        raise NotDirected(f"{list(X.labels_of(m))} is not directed")
    t = X.top_of(m)
    if t is None:  # unreachable for finite directed sets; guards the claim
        raise InternalError("finite directed set without greatest element")
    core = 1 << t
    if X.closure_mask(core) != X.closure_mask(m):
        raise InternalError("chain core failed to have the same closure")  # unreachable
    return PointSet(X, core)


def is_irreducible(X: FiniteSpace, A) -> bool:
    """Irreducibility of a nonempty set: not covered by two closed proper
    cut-downs.  On a finite space this holds iff the closure of the set has
    a greatest element, which is what is evaluated here."""
    m = _as_mask(X, A)
    if m == 0:
        raise EmptySet("irreducibility is about nonempty sets")
    return _irreducible_mask(X, m)


# -- maps -----------------------------------------------------------------


@dataclass(frozen=True)
class SpaceMap:
    """A continuous map between finite spaces.

    On finite spaces continuity is exactly monotonicity for the
    specialization orders, and that is checked at construction.
    ``table[i]`` is the target index of source point ``i``.
    """

    source: FiniteSpace
    target: FiniteSpace
    table: tuple[int, ...]

    def __post_init__(self):
        if len(self.table) != self.source.n:
            raise UsageError("map table size does not match the source carrier")
        for v in self.table:
            if not 0 <= v < self.target.n:
                raise UsageError("map table points outside the target carrier")
        src, tgt, tab = self.source, self.target, self.table
        for i in range(src.n):
            for j in bits(src.up[i]):
                if not tgt.leq(tab[i], tab[j]):
                    raise ContinuityError(
                        f"not monotone: {src.labels[i]!r} <= {src.labels[j]!r} "
                        f"but {tgt.labels[tab[i]]!r} !<= {tgt.labels[tab[j]]!r}"
                    )

    @classmethod
    def _trusted(cls, source: FiniteSpace, target: FiniteSpace, table: tuple[int, ...]) -> "SpaceMap":
        """A map whose table is monotone by construction, as a public function
        returns it: no ``__post_init__`` check, the fields set in ``__dict__``."""
        f = object.__new__(cls)
        d = f.__dict__
        d["source"] = source
        d["target"] = target
        d["table"] = table
        return f

    @classmethod
    def identity(cls, X: FiniteSpace) -> "SpaceMap":
        return cls(X, X, tuple(range(X.n)))

    def __call__(self, i: int) -> int:
        return self.table[i]

    def image_mask(self, mask: int) -> int:
        m = 0
        table = self.table
        while mask:
            low = mask & -mask
            m |= 1 << table[low.bit_length() - 1]
            mask ^= low
        return m

    def preimage_mask(self, mask: int) -> int:
        m = 0
        for i, v in enumerate(self.table):
            if (mask >> v) & 1:
                m |= 1 << i
        return m

    def then(self, other: "SpaceMap") -> "SpaceMap":
        """Composition: first self, then other."""
        if other.source is not self.target:
            raise EndpointMismatch("composition endpoints do not match")
        # a composite of monotone maps is monotone
        return SpaceMap._trusted(self.source, other.target, tuple(other.table[v] for v in self.table))

    def is_injective(self) -> bool:
        return len(set(self.table)) == len(self.table)

    def is_order_embedding(self) -> bool:
        """f(i) <= f(j) iff i <= j: the preimage of the up-set at f(i) is ``up[i]``."""
        src, tgt, tab = self.source, self.target, self.table
        pre = [0] * tgt.n
        for i, v in enumerate(tab):
            pre[v] |= 1 << i
        for i, v in enumerate(tab):
            m = 0
            for t in bits(tgt.up[v]):
                m |= pre[t]
            if m != src.up[i]:
                return False
        return True

    def to_json(self) -> dict:
        return {
            self.source.labels[i]: self.target.labels[v]
            for i, v in enumerate(self.table)
        }


# -- random generation ----------------------------------------------------


def random_space(rng, max_points: int, prefix: str = "p") -> FiniteSpace:
    """Seeded random poset: pick a size, pick an edge density from
    {0.15, 0.3, 0.5}, keep DAG edges (i < j by index) in shuffled order,
    then close transitively."""
    n = rng.randint(1, max_points)
    density = rng.choice([0.15, 0.3, 0.5])
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    labels = [f"{prefix}{i}" for i in range(n)]
    edges = [
        (labels[i], labels[j]) for i, j in pairs if rng.random() < density
    ]
    return FiniteSpace.from_covers(labels, edges)


# -- rendering ------------------------------------------------------------


def to_dot(X: FiniteSpace, name: str = "space", highlight: Iterable[str] = ()) -> str:
    """Hasse diagram in DOT, bottom-up."""
    hi = set(highlight)
    lines = [f"digraph {json.dumps(name)} {{", "  rankdir=BT;", "  node [shape=ellipse];"]
    for l in X.labels:
        attrs = ' [style=filled, fillcolor="lightblue"]' if l in hi else ""
        lines.append(f"  {json.dumps(l)}{attrs};")
    for i, j in X.cover_pairs():
        lines.append(f"  {json.dumps(X.labels[i])} -> {json.dumps(X.labels[j])};")
    lines.append("}")
    return "\n".join(lines) + "\n"
