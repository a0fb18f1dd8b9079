"""Witness-oriented encodings of three classical infinite counterexample
spaces, with machine-checked certificates for the properties this package
relies on them for.

No general decision procedures run on these spaces.  Each registered
claim produces a transcript of finitely many membership / order / algebra
facts, every one of which re-evaluates under the space's predicates, plus
exhaustive corroboration on finite truncations where the claim's key
lemma admits one.  Claims whose quantifiers range over unrepresentable
sets report ``checked_to_depth`` instead of ``verified``.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from .errors import UnknownClaim, Unrepresentable
from .spaces import FiniteSpace

__all__ = [
    "CofiniteSet",
    "CocountableSet",
    "SymbolicSpace",
    "SPACES",
    "CertificateReport",
    "johnstone_leq",
    "johnstone_truncate",
    "verify_claim",
    "list_claims",
]

INF = float("inf")


# -- set representations --------------------------------------------------


@dataclass(frozen=True)
class CofiniteSet:
    """A subset of the naturals that is finite or cofinite.

    ``members`` is the set itself when ``finite`` and the complement
    otherwise.
    """

    finite: bool
    members: frozenset

    @classmethod
    def of(cls, *members: int) -> "CofiniteSet":
        return cls(True, frozenset(members))

    @classmethod
    def without(cls, *members: int) -> "CofiniteSet":
        return cls(False, frozenset(members))

    def contains(self, n: int) -> bool:
        return (n in self.members) == self.finite

    def is_empty(self) -> bool:
        return self.finite and not self.members

    def complement(self) -> "CofiniteSet":
        return CofiniteSet(not self.finite, self.members)

    def union(self, other: "CofiniteSet") -> "CofiniteSet":
        if self.finite and other.finite:
            return CofiniteSet(True, self.members | other.members)
        if not self.finite and not other.finite:
            return CofiniteSet(False, self.members & other.members)
        fin, cof = (self, other) if self.finite else (other, self)
        return CofiniteSet(False, cof.members - fin.members)

    def intersect(self, other: "CofiniteSet") -> "CofiniteSet":
        return self.complement().union(other.complement()).complement()

    def minus(self, other: "CofiniteSet") -> "CofiniteSet":
        return self.intersect(other.complement())

    def subset_of(self, other: "CofiniteSet") -> bool:
        return self.minus(other).is_empty()

    def is_open(self) -> bool:
        return self.is_empty() or not self.finite

    def is_closed(self) -> bool:
        return self.finite or not self.members  # finite, or everything

    def to_json(self) -> dict:
        key = "finite" if self.finite else "cofinite"
        return {key: sorted(self.members)}

    @classmethod
    def from_json(cls, doc: dict) -> "CofiniteSet":
        if set(doc) == {"finite"}:
            return cls(True, frozenset(doc["finite"]))
        if set(doc) == {"cofinite"}:
            return cls(False, frozenset(doc["cofinite"]))
        raise Unrepresentable(f"not a finite/cofinite description: {doc}")


def _norm_tail(extras: frozenset, tail) -> tuple[frozenset, object]:
    if tail is None:
        return extras, None
    while tail - 1 in extras:
        tail -= 1
    return frozenset(i for i in extras if i < tail), tail


@dataclass(frozen=True)
class CocountableSet:
    """A subset of an uncountable carrier whose points are opaque tokens
    s0, s1, ... generated on demand (plus unnamed points that are never
    enumerated).

    The countable description ``{s_i : i in extras} ∪ {s_k : k >= tail}``
    either is the set (``small``) or is its complement.  The class is
    closed under the boolean operations the certificates perform; anything
    else raises Unrepresentable.
    """

    small: bool
    extras: frozenset
    tail: object  # int or None

    def __post_init__(self):
        if self.tail is not None and (not isinstance(self.tail, int) or self.tail < 0):
            raise Unrepresentable("tail must be a nonnegative integer or None")
        e, t = _norm_tail(self.extras, self.tail)
        object.__setattr__(self, "extras", e)
        object.__setattr__(self, "tail", t)

    @classmethod
    def of_tokens(cls, *idx: int) -> "CocountableSet":
        return cls(True, frozenset(idx), None)

    @classmethod
    def tail_from(cls, n: int) -> "CocountableSet":
        return cls(True, frozenset(), n)

    def complement(self) -> "CocountableSet":
        return CocountableSet(not self.small, self.extras, self.tail)

    def contains_token(self, k: int) -> bool:
        inside = k in self.extras or (self.tail is not None and k >= self.tail)
        return inside == self.small

    def is_empty(self) -> bool:
        # a cocountable set always keeps unnamed points
        return self.small and not self.extras and self.tail is None

    def is_countable(self) -> bool:
        return self.small

    def is_open(self) -> bool:
        return self.is_empty() or not self.small

    def is_closed(self) -> bool:
        return self.small or (not self.extras and self.tail is None)

    def _desc_union(self, other: "CocountableSet") -> tuple[frozenset, object]:
        tails = [t for t in (self.tail, other.tail) if t is not None]
        return self.extras | other.extras, min(tails) if tails else None

    def _desc_intersect(self, other: "CocountableSet") -> tuple[frozenset, object]:
        out = set(self.extras & other.extras)
        if other.tail is not None:
            out |= {i for i in self.extras if i >= other.tail}
        if self.tail is not None:
            out |= {i for i in other.extras if i >= self.tail}
        if self.tail is not None and other.tail is not None:
            return frozenset(out), max(self.tail, other.tail)
        return frozenset(out), None

    def _desc_minus(self, other: "CocountableSet") -> tuple[frozenset, object]:
        # (extras ∪ tail) minus (extras' ∪ tail'), all within the tokens
        out = set()
        for i in self.extras:
            if not (i in other.extras or (other.tail is not None and i >= other.tail)):
                out.add(i)
        if self.tail is None:
            return frozenset(out), None
        if other.tail is None:
            # tail minus a finite set: keep the tail, cut holes explicitly
            cut = max(other.extras, default=-1) + 1
            start = max(self.tail, 0)
            for i in range(start, max(cut, start)):
                if i not in other.extras:
                    out.add(i)
            return frozenset(out), max(cut, self.tail)
        for i in range(self.tail, other.tail):
            if i not in other.extras:
                out.add(i)
        return frozenset(out), None

    def union(self, other: "CocountableSet") -> "CocountableSet":
        if self.small and other.small:
            e, t = self._desc_union(other)
            return CocountableSet(True, e, t)
        if not self.small and not other.small:
            # complement is an intersection of countables = countable
            e, t = self._desc_intersect(other)
            return CocountableSet(False, e, t)
        small, big = (self, other) if self.small else (other, self)
        e, t = big.complement()._desc_minus(small)
        return CocountableSet(False, e, t)

    def intersect(self, other: "CocountableSet") -> "CocountableSet":
        return self.complement().union(other.complement()).complement()

    def minus(self, other: "CocountableSet") -> "CocountableSet":
        return self.intersect(other.complement())

    def subset_of(self, other: "CocountableSet") -> bool:
        return self.minus(other).is_empty()

    def to_json(self) -> dict:
        desc = {"extras": sorted(self.extras), "tail": self.tail}
        return {"countable" if self.small else "cocountable": desc}

    @classmethod
    def from_json(cls, doc: dict) -> "CocountableSet":
        for key, small in (("countable", True), ("cocountable", False)):
            if set(doc) == {key}:
                d = doc[key]
                return cls(small, frozenset(d["extras"]), d["tail"])
        raise Unrepresentable(f"not a countable/cocountable description: {doc}")


# -- the Johnstone order --------------------------------------------------


def johnstone_leq(p, q) -> bool:
    """(j,k) <= (m,n)  iff  j = m and k <= n,  or  n = inf and k <= m."""
    (j, k), (m, n) = p, q
    return (j == m and k <= n) or (n == INF and k <= m)


_TRUNC_CACHE: dict = {}


def johnstone_truncate(j_max: int, k_max: int) -> FiniteSpace:
    """The finite window with columns j < j_max, rows k < k_max plus the
    infinity row, ordered by the same two clauses."""
    if j_max < 1 or k_max < 1 or j_max > 16 or k_max > 16:
        raise Unrepresentable("truncations support 1..16 columns and rows")
    cached = _TRUNC_CACHE.get((j_max, k_max))
    if cached is not None:
        return cached
    pts = [(j, k) for j in range(j_max) for k in list(range(k_max)) + [INF]]
    lab = lambda p: f"({p[0]},{'inf' if p[1] == INF else p[1]})"
    up = []
    for p in pts:
        m = 0
        for i, q in enumerate(pts):
            if johnstone_leq(p, q):
                m |= 1 << i
        up.append(m)
    X = FiniteSpace([lab(p) for p in pts], up)
    X._cache["points"] = pts
    _TRUNC_CACHE[(j_max, k_max)] = X
    return X


def _johnstone_up_formula(p, j_max: int, k_max: int) -> set:
    """The expected principal filter of (j,k) inside a window: the rest of
    its column plus the infinity points from index k on."""
    j, k = p
    out = set()
    for n in list(range(k_max)) + [INF]:
        if k <= n:
            out.add((j, n))
    for m in range(j_max):
        if k <= m:
            out.add((m, INF))
    return out


def _tail_contains(n: int, p) -> bool:
    return p[1] == INF and p[0] >= n


# -- symbolic spaces ------------------------------------------------------


@dataclass(frozen=True)
class SymbolicSpace:
    name: str
    set_class: str


SPACES = {
    "cofinite_nat": SymbolicSpace(
        name="cofinite_nat",
        set_class="finite/cofinite subsets of the naturals",
    ),
    "cocountable": SymbolicSpace(
        name="cocountable",
        set_class="countable/cocountable token sets over an uncountable carrier",
    ),
    "johnstone": SymbolicSpace(
        name="johnstone",
        set_class="principal upper sets and infinity-row tails",
    ),
}


# -- fact evaluators ------------------------------------------------------

_FACTS: dict[str, Callable[[dict], bool]] = {}


def _fact(name):
    def register(fn):
        _FACTS[name] = fn
        return fn

    return register


def _cof(doc):
    return CofiniteSet.from_json(doc)


def _coc(doc):
    return CocountableSet.from_json(doc)


def _jpt(doc):
    return (doc[0], INF if doc[1] == "inf" else doc[1])


@_fact("cofinite.open")
def _f_cof_open(a):
    return _cof(a["set"]).is_open()


@_fact("cofinite.difference_with_open_is_finite")
def _f_cof_diff(a):
    A, U = _cof(a["set"]), _cof(a["open"])
    return U.is_open() and not U.is_empty() and A.minus(U).finite


@_fact("cofinite.finite_subcover")
def _f_cof_subcover(a):
    A = _cof(a["set"])
    cover = [_cof(u) for u in a["cover"]]
    if A.is_empty() or not all(u.is_open() for u in cover):
        return False
    u0 = next((u for u in cover if not u.is_empty()), None)
    if u0 is None:
        return False
    rest = A.minus(u0)
    if not rest.finite:
        return False
    chosen = [u0]
    for p in sorted(rest.members):
        pick = next((u for u in cover if u.contains(p)), None)
        if pick is None:
            return False
        chosen.append(pick)
    left = A
    for u in chosen:
        left = left.minus(u)
    return left.is_empty()


@_fact("cofinite.split")
def _f_cof_split(a):
    C = _cof(a["set"])
    if not C.finite or len(C.members) < 2:
        return False
    c = min(C.members)
    p1, p2 = CofiniteSet.of(c), CofiniteSet(True, C.members - {c})
    return (
        p1.is_closed()
        and p2.is_closed()
        and p1.union(p2).members == C.members
        and not p1.members == C.members
        and not p2.members == C.members
    )


@_fact("cofinite.opens_intersect")
def _f_cof_opens_meet(a):
    U, V = _cof(a["u"]), _cof(a["v"])
    return U.is_open() and V.is_open() and not U.intersect(V).is_empty()


@_fact("cofinite.point_closure_is_singleton")
def _f_cof_ptcl(a):
    s = CofiniteSet.of(a["point"])
    return s.is_closed() and not s.complement().is_empty()


@_fact("cofinite.filtered_step")
def _f_cof_filtered(a):
    F1, F2 = frozenset(a["f1"]), frozenset(a["f2"])
    m = CofiniteSet.without(*F1).intersect(CofiniteSet.without(*F2))
    return m == CofiniteSet.without(*(F1 | F2)) and not m.finite


@_fact("cofinite.member_misses_point")
def _f_cof_misses(a):
    return not CofiniteSet.without(a["point"]).contains(a["point"])


@_fact("cofinite.member_nonempty")
def _f_cof_nonempty(a):
    return not CofiniteSet.without(*a["f"]).is_empty()


@_fact("cofinite.closed_disjoint_from_member")
def _f_cof_disjoint(a):
    A = CofiniteSet.of(*a["closed"])
    return A.is_closed() and A.intersect(A.complement()).is_empty()


@_fact("cocountable.open")
def _f_coc_open(a):
    return _coc(a["set"]).is_open()


@_fact("cocountable.closed")
def _f_coc_closed(a):
    return _coc(a["set"]).is_closed()


@_fact("cocountable.token_in")
def _f_coc_in(a):
    return _coc(a["set"]).contains_token(a["token"]) == a["expect"]


@_fact("cocountable.nested")
def _f_coc_nested(a):
    return _coc(a["small"]).subset_of(_coc(a["big"]))


@_fact("cocountable.finite_subcover")
def _f_coc_subcover(a):
    A = _coc(a["set"])
    cover = [_coc(u) for u in a["cover"]]
    if not A.is_countable() or A.tail is not None or not all(u.is_open() for u in cover):
        return False
    left = A
    for p in sorted(A.extras):
        pick = next((u for u in cover if u.contains_token(p)), None)
        if pick is None:
            return False
        left = left.minus(pick)
    return left.is_empty()


@_fact("cocountable.opens_intersect")
def _f_coc_opens_meet(a):
    U, V = _coc(a["u"]), _coc(a["v"])
    return U.is_open() and V.is_open() and not U.intersect(V).is_empty()


@_fact("cocountable.uncountable_residual")
def _f_coc_residual(a):
    # a cocountable set misses only a countable description, so it keeps
    # unnamed points; recorded as the representation-class invariant
    return not _coc(a["set"]).is_countable()


@_fact("cocountable.least_member_witness")
def _f_coc_witness(a):
    fam = [frozenset(m) for m in a["family"]]
    U = _coc(a["open"])
    if not U.is_open():
        return False
    inter = frozenset.intersection(*fam)
    least = min(fam, key=len)
    if not all(U.contains_token(p) for p in inter):
        return False
    return all(U.contains_token(p) for p in least)


@_fact("johnstone.leq")
def _f_j_leq(a):
    return johnstone_leq(_jpt(a["p"]), _jpt(a["q"])) == a["expect"]


@_fact("johnstone.window_up_shape")
def _f_j_window(a):
    jm, km = a["j_max"], a["k_max"]
    X = johnstone_truncate(jm, km)
    pts = X._cache["points"]
    for i, p in enumerate(pts):
        expect = _johnstone_up_formula(p, jm, km)
        got = {pts[t] for t in range(X.n) if (X.up[i] >> t) & 1}
        if got != expect:
            return False
    return True


@_fact("johnstone.infinity_antichain")
def _f_j_antichain(a):
    for m in a["columns"]:
        for n in a["columns"]:
            if m != n and johnstone_leq((m, INF), (n, INF)):
                return False
    return True


@_fact("johnstone.column_sup_unique_bound")
def _f_j_colsup(a):
    """(j,inf) bounds its column; every other in-range candidate fails on
    some column element."""
    j, jm, km = a["j"], a["j_max"], a["k_max"]
    if not all(johnstone_leq((j, k), (j, INF)) for k in range(km)):
        return False
    for c in range(jm):
        for d in list(range(km)) + [INF]:
            if (c, d) == (j, INF):
                continue
            # exhibit a column element not under the candidate
            if all(johnstone_leq((j, k), (c, d)) for k in range(km + c + 2)):
                return False
    return True


@_fact("johnstone.tail_in_principal_filter")
def _f_j_tail_up(a):
    # T_n lies inside the principal filter of (j,k) exactly when n >= k
    n, (j, k) = a["n"], _jpt(a["base"])
    probed = all(johnstone_leq((j, k), (m, INF)) for m in range(n, n + 4))
    return probed == (n >= k)


@_fact("johnstone.tail_nonempty")
def _f_j_tail_nonempty(a):
    return _tail_contains(a["n"], (a["n"], INF))


@_fact("johnstone.point_escapes_tails")
def _f_j_escape(a):
    p = _jpt(a["p"])
    if p[1] == INF:
        return not _tail_contains(p[0] + 1, p)
    return not _tail_contains(0, p)


@_fact("johnstone.upset_tail")
def _f_j_upset_tail(a):
    # any upper set containing (j,k) contains the infinity tail from k
    j, k = a["j"], a["k"]
    return all(johnstone_leq((j, k), (m, INF)) for m in range(k, k + 6))


@_fact("johnstone.window_directed_classification")
def _f_j_directed(a):
    jm, km = a["j_max"], a["k_max"]
    X = johnstone_truncate(jm, km)
    pts = X._cache["points"]
    full = X.full
    for mask in range(1, full + 1):
        idxs = [t for t in range(X.n) if (mask >> t) & 1]
        directed = True
        for s in idxs:
            for t in idxs:
                if not (X.up[s] & X.up[t] & mask):
                    directed = False
                    break
            if not directed:
                break
        if not directed:
            continue
        topped = X.top_of(X.closure_mask(mask)) is not None
        single_column = len({pts[t][0] for t in idxs if pts[t][1] != INF}) <= 1 and (
            sum(1 for t in idxs if pts[t][1] == INF) <= 1
        )
        if not (topped or single_column):
            return False
    return True


@_fact("johnstone.window_chain_closure")
def _f_j_chain_cl(a):
    # inside a window, the down-set of a full column plus its sup equals
    # the down-set of the sup
    jm, km, j = a["j_max"], a["k_max"], a["j"]
    X = johnstone_truncate(jm, km)
    pts = X._cache["points"]
    col = 0
    supm = 0
    for t, p in enumerate(pts):
        if p[0] == j and p[1] != INF:
            col |= 1 << t
        if p == (j, INF):
            supm = 1 << t
    return X.closure_mask(col | supm) == X.closure_mask(supm)


@_fact("claim_verified")
def _f_claim(a):
    rep = verify_claim(a["space"], a["claim"])
    return rep.verdict == "verified"


# -- certificates ---------------------------------------------------------


@dataclass(frozen=True)
class CertificateReport:
    space: str
    claim: str
    verdict: object  # "verified" | "refuted" | {"checked_to_depth": n}
    transcript: tuple[dict, ...]

    def revalidate(self) -> bool:
        return all(_FACTS[f["fact"]](f) for f in self.transcript)

    def to_json(self) -> dict:
        return {
            "space": self.space,
            "claim": self.claim,
            "verdict": self.verdict,
            "transcript": list(self.transcript),
        }


# the window size, and the token depth, of the two claims whose quantifiers
# range over unrepresentable sets
_DEPTH = 12


def _c_cof_compacts() -> list[dict]:
    whole = CofiniteSet.without().to_json()
    facts = [
        {"fact": "cofinite.open", "set": CofiniteSet.without(0, 4, 9).to_json()},
        {"fact": "cofinite.open", "set": CofiniteSet.of().to_json()},
    ]
    for A in (whole, CofiniteSet.of(1, 2, 3).to_json(), CofiniteSet.without(5).to_json()):
        facts.append(
            {
                "fact": "cofinite.difference_with_open_is_finite",
                "set": A,
                "open": CofiniteSet.without(0, 1, 2, 7).to_json(),
            }
        )
    for A, cover in [
        (whole, [CofiniteSet.without(0, 1).to_json(), CofiniteSet.without(2).to_json()]),
        (
            CofiniteSet.of(0, 3, 8).to_json(),
            [CofiniteSet.without(0, 3).to_json(), CofiniteSet.without(8, 9).to_json()],
        ),
        (
            CofiniteSet.without(2).to_json(),
            [
                CofiniteSet.without(*range(6)).to_json(),
                CofiniteSet.without(1, 3).to_json(),
                CofiniteSet.without(0, 5).to_json(),
            ],
        ),
    ]:
        facts.append({"fact": "cofinite.finite_subcover", "set": A, "cover": cover})
    return facts


def _c_cof_irr() -> list[dict]:
    facts = [{"fact": "cofinite.point_closure_is_singleton", "point": p} for p in (0, 2, 11)]
    for C in (CofiniteSet.of(0, 1), CofiniteSet.of(2, 5, 9), CofiniteSet.of(*range(6))):
        facts.append({"fact": "cofinite.split", "set": C.to_json()})
    for u, v in [
        (CofiniteSet.without(0, 1), CofiniteSet.without(1, 2)),
        (CofiniteSet.without(*range(10)), CofiniteSet.without(*range(5, 15))),
    ]:
        facts.append({"fact": "cofinite.opens_intersect", "u": u.to_json(), "v": v.to_json()})
    return facts


def _c_cof_rudin() -> list[dict]:
    facts = []
    for f in ([], [0], [0, 1, 2], list(range(7))):
        facts.append({"fact": "cofinite.member_nonempty", "f": f})
    for f1, f2 in [([0], [1]), ([0, 1], [1, 2]), (list(range(4)), [9])]:
        facts.append({"fact": "cofinite.filtered_step", "f1": f1, "f2": f2})
    for p in (0, 3, 17):
        facts.append({"fact": "cofinite.member_misses_point", "point": p})
    for A in ([0], [1, 2, 3], list(range(5))):
        facts.append({"fact": "cofinite.closed_disjoint_from_member", "closed": A})
    return facts


def _c_cof_not_wf() -> list[dict]:
    facts = [{"fact": "cofinite.open", "set": CofiniteSet.of().to_json()}]
    for p in (0, 1, 5, 23):
        facts.append({"fact": "cofinite.member_misses_point", "point": p})
    for f in ([], [0, 1], list(range(10))):
        facts.append({"fact": "cofinite.member_nonempty", "f": f})
    return facts


def _c_coc_compacts() -> list[dict]:
    tail_open = lambda n: CocountableSet.tail_from(n).complement()
    facts = []
    for n in (0, 1, 5):
        facts.append({"fact": "cocountable.open", "set": tail_open(n).to_json()})
    # the tail cover of the token sequence: s_k lands in U_{k+1} and all
    # unnamed points already sit in U_0
    for k in (0, 3, 11):
        facts.append(
            {
                "fact": "cocountable.token_in",
                "set": tail_open(k + 1).to_json(),
                "token": k,
                "expect": True,
            }
        )
    for n in (0, 2, 7):
        facts.append(
            {
                "fact": "cocountable.token_in",
                "set": tail_open(n).to_json(),
                "token": n,
                "expect": False,
            }
        )
    for n in (0, 1, 4):
        facts.append(
            {
                "fact": "cocountable.nested",
                "small": tail_open(n).to_json(),
                "big": tail_open(n + 1).to_json(),
            }
        )
    facts.append(
        {
            "fact": "cocountable.finite_subcover",
            "set": CocountableSet.of_tokens(0, 2, 6).to_json(),
            "cover": [tail_open(3).to_json(), tail_open(9).to_json()],
        }
    )
    facts.append(
        {"fact": "cocountable.uncountable_residual", "set": tail_open(0).to_json()}
    )
    return facts


def _c_coc_wf_not_sober() -> list[dict]:
    facts = [
        {"fact": "cocountable.closed", "set": CocountableSet.of_tokens(0).to_json()},
        {"fact": "cocountable.closed", "set": CocountableSet.of_tokens(2, 5).to_json()},
    ]
    for u, v in [
        (CocountableSet.of_tokens(0, 1).complement(), CocountableSet.of_tokens(1, 2).complement()),
        (CocountableSet.tail_from(4).complement(), CocountableSet.of_tokens(0).complement()),
    ]:
        facts.append(
            {"fact": "cocountable.opens_intersect", "u": u.to_json(), "v": v.to_json()}
        )
    facts.append(
        {
            "fact": "cocountable.token_in",
            "set": CocountableSet.of_tokens(0).to_json(),
            "token": 1,
            "expect": False,
        }
    )
    fams = [
        [[0, 1, 2], [1, 2], [2]],
        [[0, 1], [1, 2], [1]],
        [list(range(_DEPTH)), list(range(1, _DEPTH)), list(range(2, _DEPTH))],
    ]
    for fam in fams:
        facts.append(
            {
                "fact": "cocountable.least_member_witness",
                "family": fam,
                "open": CocountableSet.tail_from(_DEPTH).complement().to_json(),
            }
        )
    return facts


def _c_johnstone_tails() -> list[dict]:
    facts = [
        {"fact": "johnstone.window_up_shape", "j_max": 6, "k_max": 6},
        {"fact": "johnstone.window_up_shape", "j_max": 12, "k_max": 12},
        {"fact": "johnstone.infinity_antichain", "columns": list(range(8))},
    ]
    for p, q, expect in [
        ([2, 3], [2, 5], True),
        ([2, 3], [2, "inf"], True),
        ([2, 3], [5, "inf"], True),
        ([2, 3], [2, 1], False),
        ([2, 3], [1, "inf"], False),
        ([4, "inf"], [4, "inf"], True),
        ([4, "inf"], [9, "inf"], False),
    ]:
        facts.append({"fact": "johnstone.leq", "p": p, "q": q, "expect": expect})
    for j in (0, 2, 5):
        facts.append(
            {"fact": "johnstone.column_sup_unique_bound", "j": j, "j_max": 8, "k_max": 8}
        )
    for j, k in [(0, 0), (3, 2), (1, 7)]:
        facts.append({"fact": "johnstone.upset_tail", "j": j, "k": k})
    for n, base in [(3, [0, 2]), (1, [4, 5]), (6, [2, 6])]:
        facts.append({"fact": "johnstone.tail_in_principal_filter", "n": n, "base": base})
    return facts


def _c_johnstone_not_wf() -> list[dict]:
    facts = [{"fact": "claim_verified", "space": "johnstone", "claim": "tails_compact"}]
    for n in (0, 1, 4):
        facts.append({"fact": "johnstone.tail_nonempty", "n": n})
    for p in ([0, "inf"], [3, "inf"], [2, 2], [7, 0]):
        facts.append({"fact": "johnstone.point_escapes_tails", "p": p})
    return facts


def _c_johnstone_dcpo() -> list[dict]:
    facts = [
        {"fact": "johnstone.window_directed_classification", "j_max": 3, "k_max": 2},
        {"fact": "johnstone.window_directed_classification", "j_max": 2, "k_max": 3},
    ]
    for j in (0, 1, 3):
        facts.append(
            {"fact": "johnstone.column_sup_unique_bound", "j": j, "j_max": _DEPTH, "k_max": _DEPTH}
        )
        facts.append(
            {"fact": "johnstone.window_chain_closure", "j": j, "j_max": _DEPTH, "k_max": _DEPTH}
        )
    return facts


# (space, claim) -> (transcript builder, verdict when every fact holds)
_CLAIMS: dict[tuple[str, str], tuple[Callable[[], list[dict]], object]] = {
    ("cofinite_nat", "K_is_all_nonempty"): (_c_cof_compacts, "verified"),
    ("cofinite_nat", "irr_closed"): (_c_cof_irr, "verified"),
    ("cofinite_nat", "X_in_DR"): (_c_cof_rudin, "verified"),
    ("cofinite_nat", "not_well_filtered"): (_c_cof_not_wf, "verified"),
    ("cocountable", "K_is_finite_sets"): (_c_coc_compacts, "verified"),
    ("cocountable", "wf_not_sober"): (_c_coc_wf_not_sober, {"checked_to_depth": _DEPTH}),
    ("johnstone", "tails_compact"): (_c_johnstone_tails, "verified"),
    ("johnstone", "not_well_filtered"): (_c_johnstone_not_wf, "verified"),
    ("johnstone", "is_dcpo_d_space"): (_c_johnstone_dcpo, {"checked_to_depth": _DEPTH}),
}


def verify_claim(space, claim: str) -> CertificateReport:
    name = space.name if isinstance(space, SymbolicSpace) else str(space)
    if name not in SPACES:
        raise UnknownClaim(f"unknown symbolic space {name!r}")
    entry = _CLAIMS.get((name, claim))
    if entry is None:
        registered = sorted(c for s, c in _CLAIMS if s == name)
        raise UnknownClaim(f"{name} has no claim {claim!r}; registered: {registered}")
    build, verdict = entry
    rep = CertificateReport(name, claim, verdict, tuple(build()))
    return rep if rep.revalidate() else replace(rep, verdict="refuted")


def list_claims() -> list[tuple[str, str]]:
    return sorted(_CLAIMS)
