"""Decision procedures for space properties, each run along several
independent characterizations whose agreement is part of the verdict.

Every property here is a theorem on finite T0 spaces (finite spaces are
sober, hence d-spaces, well-filtered, and H-sober and super-H-sober for
every system in this package).  The value of a checker is therefore not
the boolean but the *certificate*: each path genuinely evaluates a
different characterization of the property on the instance, and
``characterizations_agreed`` reports whether they all concur.

Enumerative paths run raw below the configured caps, and ``Caps`` holds
every limit they obey; no path draws within them.  Quantifiers over H(X)
read the memoized member table of one S/C/D/R core
(``systems._h_members``) within ``caps.subset_enum`` and seeded members
above it (``_h_sets``); quantifiers over all subsets read every nonempty
mask within it and seeded masks above it (``_masks``); each helper seeds
its generator only when it draws.  Listings of closed and open sets run
within ``caps.family_listing``, families of compacts, the members of the
Smyth space's table (an H-family of compacts is a point set of
H(P_S(X))), within ``caps.compact_family_enum``, and cut equations over
every closed set within ``_CUT_EQUATION_PAIRS`` (family, closed set)
pairs.  On a finite carrier every subset is countable and every derived
system is the irreducible sets, so Cω = C, Dω = D, Rω = R and each
derived system is R: a checker reads H only through its S/C/D/R core,
every generator it draws from is seeded by the core, and each
H-parameterized verdict and battery is computed once per (property or
battery, core, config).  A system's record is its core's with
``system`` renamed.  The closures of ``_masks`` are decided once per
space and config and shared by ``sober`` and every ``h_sober`` core
(``_split_path``).  A path over members decides each member mask once
per space (``_PerMask``); the three ``d_space`` paths share one table
of principal-closure tops.  Above the caps, each path switches to an
exact reduced form whose justifying lemma (finite chains, directed sets
and irreducible sets contain a greatest element; finite filtered
families contain a least member; the smallest open containing an up-set
is the set itself) is pinned to the raw code by brute-force oracles in
the test suite.  Reduced paths still compute
on the instance: they evaluate the reduced quantifier exhaustively and
the original quantifier on seeded samples.  A reduced form that would
only restate its own lemma is skipped, not computed: a family built to
hold its least member passes the filtration whatever the kernel does,
so the filtration paths of well_filtered, omega_well_filtered and
super_h_sober are skipped above ``caps.compact_family_enum``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import wraps
from operator import and_
from typing import Callable, Iterable, Sequence

from .config import DEFAULT, RunConfig
from .errors import CapExceeded, MissingSystem, UsageError
from .spaces import FiniteSpace, _PerMask, _set_label, _set_mask, bits
from . import powers, systems

__all__ = [
    "Verdict",
    "CrossReport",
    "PROPERTY_IDS",
    "check",
    "check_all",
    "crosscheck_h_sober",
    "crosscheck_super",
    "upper_topology_report",
    "validate_evidence",
]

# (family, closed set) pairs up to which a cut equation runs over every
# closed set; above it each family meets 4 seeded closed sets
_CUT_EQUATION_PAIRS = 4096

_H_REQUIRED = {
    "h_sober",
    "super_h_sober",
    "h_complete",
    "h_bounded",
    "hip",
    "smyth_h_complete",
    "h_consonant",
}

@dataclass(frozen=True)
class Verdict:
    property: str
    system: str | None
    holds: bool
    characterizations: tuple[tuple[str, str], ...]  # (name, "true"/"false"/"skipped: …")
    characterizations_agreed: bool
    evidence: dict

    def to_json(self) -> dict:
        return {
            "property": self.property,
            "system": self.system,
            "holds": self.holds,
            "characterizations": [
                {"name": n, "value": v} for n, v in self.characterizations
            ],
            "characterizations_agreed": self.characterizations_agreed,
            "evidence": self.evidence,
        }


@dataclass(frozen=True)
class CrossReport:
    property: str
    system: str
    conditions: tuple[tuple[str, bool], ...]
    modes: tuple[tuple[str, str], ...]
    agreed: bool

    def to_json(self) -> dict:
        return {
            "property": self.property,
            "system": self.system,
            "conditions": [{"name": n, "value": v} for n, v in self.conditions],
            "modes": dict(self.modes),
            "agreed": self.agreed,
        }


# -- shared analysis, memoized per space ----------------------------------


def _rng(config: RunConfig, *parts) -> random.Random:
    return random.Random("|".join([str(config.seed)] + [str(p) for p in parts]))


def _pair_scan(P: FiniteSpace) -> dict:
    """Exact scan over incomparable pairs.

    For each incomparable pair (u, v) it computes the facts that rule out
    any chain, directed set or irreducible set having both u and v maximal
    in its closure: no common upper bound is u or v itself, and the closed
    set down{u, v} splits into the proper closed parts down(u), down(v).
    """
    return P.memo("pair_scan", lambda: _scan_pairs(P))


def _scan_pairs(P: FiniteSpace) -> dict:
    n = P.n
    pairs = 0
    ok = True
    for i in range(n):
        ui, di = P.up[i], P.down[i]
        for j in range(i + 1, n):
            if (ui >> j) & 1 or (di >> j) & 1:
                continue
            pairs += 1
            # split certificate for the smallest closed set with u, v
            # maximal; the pair is incomparable, so neither lies above or
            # below the other and only the split can fail
            if (di | P.down[j]) != P.closure_mask((1 << i) | (1 << j)):
                ok = False
    return {"incomparable_pairs": pairs, "ok": ok}


def _generic_or_split(P: FiniteSpace, C: int) -> bool:
    """The closed set ``C`` is a point closure, or it splits into two
    proper closed parts."""
    t = P.top_of(C)
    if t is not None:
        return P.down[t] == C
    mxm = P.max_mask(C)
    u = mxm & -mxm
    part1 = C & ~u
    part2 = P.down[u.bit_length() - 1]
    return P.is_down(part1) and part1 != C and part2 & ~C == 0 and part2 != C and (part1 | part2) == C


def _randbelow(getrandbits, n: int) -> int:
    """The draw of ``randrange(n)`` on the ``random.Random`` whose
    ``getrandbits`` this is, with the same state change but without its
    argument handling: ``n.bit_length()`` random bits, drawn again while
    they reach ``n``.  One Python call per draw in place of
    ``randrange``'s two; ``_sampled_h_sets`` inlines the same loop."""
    if n < 1:
        # getrandbits(0) is always 0, so the loop would never end
        raise ValueError(f"no index to draw below {n}")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _sampled_h_sets(P: FiniteSpace, H: systems.SubsetSystemId, rng: random.Random, count: int) -> list[int]:
    """Seeded members of H(P): small sets built with a greatest element
    (chains by upward walks; directed/irreducible sets as subsets of a
    principal down-set containing its point).  Membership is re-verified
    through the honest predicate, so a generation bug cannot slip by.

    Each index is drawn by ``_randbelow``'s rejection loop, inlined, so a
    draw costs no Python call and reads the same words as
    ``rng.randrange``.  Memoized per space: the walk tables, built once,
    which hold for each point the index tuple of its strict up-set
    (``"above_index"``, the chain walk's next steps) or of its down-set
    (``"below_index"``), that tuple's length and the length's bit count,
    and for the down-sets the range of ``min(4, length)`` picks, so a
    sample calls no ``len``, ``bit_length`` or ``min``; and each sampled
    mask's membership (``("member", core)``, a ``_PerMask`` table),
    filled as masks are drawn.  Neither changes the draws."""
    core = systems._core_of(H)
    if core == "C":
        walk = P.memo("above_index", lambda: [
            (t, len(t), len(t).bit_length()) for t in (tuple(bits(r & ~(1 << i))) for i, r in enumerate(P.up))])
    elif core != "S":
        walk = P.memo("below_index", lambda: [
            (t, len(t), len(t).bit_length(), range(min(4, len(t)))) for t in (tuple(bits(r)) for r in P.down)])
    member = P.memo(("member", core), lambda: _PerMask(lambda m: systems._member(core, P, m)))
    getrandbits = rng.getrandbits
    # FiniteSpace refuses an empty carrier, so the first loop ends
    n, k = P.n, P.n.bit_length()
    out = []
    for _ in range(count):
        x = getrandbits(k)
        while x >= n:
            x = getrandbits(k)
        m = 1 << x
        if core == "C":
            cur = x
            for _ in range(3):
                choices, c, kc = walk[cur]
                if not c:
                    break
                j = getrandbits(kc)
                while j >= c:
                    j = getrandbits(kc)
                cur = choices[j]
                m |= 1 << cur
        elif core != "S":
            below, c, kb, steps = walk[x]
            for _ in steps:
                j = getrandbits(kb)
                while j >= c:
                    j = getrandbits(kb)
                m |= 1 << below[j]
        if member[m]:
            out.append(m)
    return out


# a quantifier's mode as its path name states it
_MODE_NAMES = {"raw": "exhaustive", "sampled": "sampled", "generators": "generators"}


def _h_sets(X: FiniteSpace, H: systems.SubsetSystemId, config: RunConfig, count: int, tag: str):
    """(mode, member masks) for quantifying over H(X): ``"raw"`` and the
    member table within ``caps.subset_enum``, else ``"sampled"`` and
    ``count`` members drawn from a generator seeded by ``tag``, H and X,
    seeded only then."""
    if X.n <= config.caps.subset_enum:
        return "raw", systems._h_members(X, systems._core_of(H))
    return "sampled", _sampled_h_sets(X, H, _rng(config, tag, str(H), X.n, X.up[0]), count)


def _all_members(X: FiniteSpace, H: systems.SubsetSystemId, config: RunConfig, tag: str,
                 ok: Callable[[int], bool]) -> tuple[str, int, bool]:
    """(mode, number of members, value) of "``ok`` holds on every member
    of H(X)" over ``_h_sets``: exhaustive within ``caps.subset_enum``, on
    seeded members above it."""
    mode, members = _h_sets(X, H, config, config.caps.sample_count, tag)
    return mode, len(members), all(ok(m) for m in members)


def _masks(X: FiniteSpace, config: RunConfig, tag: str) -> tuple[str, Sequence[int]]:
    """(mode, masks) for quantifying over the nonempty subsets of X:
    ``"raw"`` and every nonempty mask within ``caps.subset_enum``, else
    ``"sampled"`` and the nonzero ones of ``caps.sample_count`` masks drawn
    from a generator seeded by ``tag`` and X, seeded only then."""
    if X.n <= config.caps.subset_enum:
        return "raw", range(1, X.full + 1)
    getrandbits = _rng(config, tag, X.n, X.up[0]).getrandbits
    draws = (getrandbits(X.n) for _ in range(config.caps.sample_count))
    return "sampled", [m for m in draws if m]


def _generator_instances(X: FiniteSpace, config: RunConfig) -> list[tuple[tuple[int, ...], str]]:
    """Families of compacts used as instances when the powerset of K(X) is
    out of reach: all singleton families, all principal superset-closed
    families (every superset-closed filtered family is principal: its
    minimal members form an antichain forced to a single point), and a
    deterministic chain through each member."""
    return X.memo(("generator_instances", config.caps), lambda: _build_generator_instances(X, config))


def _build_generator_instances(X: FiniteSpace, config: RunConfig) -> list[tuple[tuple[int, ...], str]]:
    S = powers.smyth(X, config)
    sp = S.space
    out = []
    for k0 in range(len(S.carrier)):
        sup_idx = list(bits(sp.down[k0]))  # members containing carrier[k0]
        out.append(((S.carrier[k0],), "singleton"))
        out.append((tuple(S.carrier[j] for j in sup_idx), "principal"))
        chain = [k0]
        cur = k0
        for j in sup_idx:
            if j != cur and S.carrier[j] & ~S.carrier[cur] != 0 and S.carrier[cur] & ~S.carrier[j] == 0:
                chain.append(j)
                cur = j
        if len(chain) > 1:
            out.append((tuple(S.carrier[j] for j in chain), "chain"))
    return out


def _families_for(X: FiniteSpace, H: systems.SubsetSystemId, config: RunConfig) -> tuple[str, list[tuple[int, ...]]]:
    """H-families of compacts to quantify over: the H-members of the Smyth
    space (``systems._h_members``) when K(X) fits the cap, each as the
    tuple of its compacts, listed once per core in the Smyth space's memo
    (``("families", core)``); else the generator instances filtered by
    shape.  K(X) is listed within ``caps.family_listing`` only."""
    core = systems._core_of(H)
    cap = config.caps.family_listing
    if X.n > cap:
        raise CapExceeded(f"compact-family analysis needs carrier <= {cap}, got {X.n}")
    if len(X.nonempty_upsets()) <= config.caps.compact_family_enum:
        S = powers.smyth(X, config)
        return "raw", S.space.memo(("families", core), lambda: [
            tuple(S.carrier[i] for i in bits(m)) for m in systems._h_members(S.space, core)])
    fams = []
    for fam, shape in _generator_instances(X, config):
        if core == "S" and shape != "singleton":
            continue
        if core == "C" and shape == "principal":
            continue
        fams.append(fam)
    return "generators", fams


# -- the quantifiers every characterization reduces to ---------------------


def _meet(X: FiniteSpace, masks: Iterable[int]) -> int:
    """The intersection of the masks (the whole carrier when there are none)."""
    inter = X.full
    for m in masks:
        inter &= m
    return inter


def _filtered(inter: int, fam: Sequence[int], opens: Iterable[int]) -> bool:
    """Filtration: every open containing ``inter``, the meet of ``fam``,
    contains some member of ``fam``."""
    for U in opens:
        if inter & ~U == 0:
            for k in fam:
                if k & ~U == 0:
                    break
            else:
                return False
    return True


def _cut_identity(X: FiniteSpace, fam: Sequence[int], closed_sets: Sequence[int], sat: Callable[[int], int],
                  every_closed: bool = False) -> bool:
    """The cut equation sat(C meet the meet of fam) = meet of sat(C meet K)
    over K in fam, for every C in ``closed_sets``; ``sat`` saturates the
    cuts (``X.sat_mask`` read through the per-space table of
    ``_cut_sat``, which every caller passes, or a test's kernel).  A caller
    that passes all of ``X.downsets()`` says so by ``every_closed``, and
    the equation is then compared row by row:
    the rows [sat(C meet k) for C in closed_sets], one per mask k and
    space (``"cut_rows"``), of the members ANDed against the row of the
    meet.  Cut by cut, the members' saturations stop at the first empty
    AND, which gives the same value for any ``sat``."""
    full = X.full
    inter = full
    for k in fam:
        inter &= k
    if every_closed:
        rows = X.memo("cut_rows", lambda: _PerMask(lambda k: [sat(C & k) for C in closed_sets]))
        rhs = [full] * len(closed_sets)
        for k in fam:
            rhs = list(map(and_, rhs, rows[k]))
        return rhs == rows[inter]
    for C in closed_sets:
        rhs = full
        for k in fam:
            rhs &= sat(C & k)
            if rhs == 0:
                # ANDing on keeps 0, whatever ``sat`` returns
                break
        if sat(C & inter) != rhs:
            return False
    return True


def _cut_sat(X: FiniteSpace) -> Callable[[int], int]:
    """``X.sat_mask`` through one per-space table of cut masks
    (``"cut_sat"``), which the four cores' ``crosscheck_super`` calls on
    one Smyth space share, so each cut is saturated once."""
    return X.memo("cut_sat", lambda: _PerMask(X.sat_mask)).__getitem__


def _psi_ok(X: FiniteSpace, config: RunConfig) -> bool:
    """The Psi conditions at the base: for each irreducible closed set A,
    the compacts meeting A form a down-set of the Smyth order that holds
    up(top A) and whose members all contain top A (an ideal, directed
    through that member); max A is nonempty; and cutting any compact
    against A leaves a closed set."""

    def build():
        S = powers.smyth(X, config)
        carrier, sp = S.carrier, S.space
        # by the criterion, not as the point closures, so that a faulty
        # kernel shows; the Smyth cap bounds the closed sets too
        for d in X.downsets():
            t = X.top_of(d) if d else None
            if t is None:
                continue
            psi = 0
            for i, k in enumerate(carrier):
                if k & d:
                    psi |= 1 << i
            if psi == 0 or X.max_mask(d) == 0:
                return False
            up_t = S.index.get(X.up[t])
            if up_t is None or not (psi >> up_t) & 1:
                return False
            if any(sp.down[i] & ~psi or not (carrier[i] >> t) & 1 for i in bits(psi)):
                return False
            if not all(X.is_down(X.closure_mask(k & d)) for k in carrier):
                return False
        return True

    return X.memo(("psi", config.caps), build)


# -- verdict assembly -----------------------------------------------------


def _mk_verdict(prop: str, system, paths: list[tuple[str, bool | None, str]], evidence: dict) -> Verdict:
    chars = []
    values = []
    for name, value, note in paths:
        if value is None:
            chars.append((name, f"skipped: {note}"))
        else:
            chars.append((name, "true" if value else "false"))
            values.append(value)
    agreed = len(values) >= 2 and len(set(values)) == 1
    holds = values[0] if values else False
    return Verdict(
        property=prop,
        system=str(system) if system is not None else None,
        holds=holds,
        characterizations=tuple(chars),
        characterizations_agreed=agreed,
        evidence=evidence,
    )


def _truncate(d: dict, k: int = 12) -> dict:
    if len(d) <= k:
        return dict(d)
    out = {}
    for i, (key, v) in enumerate(d.items()):
        if i >= k:
            break
        out[key] = v
    out["..."] = f"{len(d) - k} more"
    return out


# -- property implementations ---------------------------------------------


def _p_t0(X: FiniteSpace, H, config: RunConfig):
    anti = True
    for i in range(X.n):
        for j in bits(X.up[i] & ~(1 << i)):
            if (X.up[j] >> i) & 1:
                anti = False
    distinct = len({X.down[i] for i in range(X.n)}) == X.n
    paths = [
        ("antisymmetry", anti, ""),
        ("distinct point closures", distinct, ""),
    ]
    return paths, {"points": X.n}


def _generic_points(X: FiniteSpace, members: Callable[[int], bool]) -> tuple[bool, dict, int]:
    """The definitional family equality over the enumerated closed sets:
    whether every nonempty ``members``-closed set is a point closure with
    a unique generic point, the generic point of each by set label, and
    the number of such closed sets."""
    sc = {X.down[i] for i in range(X.n)}
    hc = {d for d in X.downsets() if d and members(d)}
    table = {}
    value = hc <= sc
    for d in sorted(hc, key=lambda m: (m.bit_count(), m)):
        t = X.top_of(d)
        if t is None or X.down[t] != d:
            value = False
        else:
            table[_set_label(X, d)] = X.labels[t]
    # uniqueness comes with T0: distinct points have distinct closures
    value = value and len({X.down[i] for i in range(X.n)}) == X.n
    return value, table, len(hc)


def _sober_like(X: FiniteSpace, generic: Callable[[], tuple[bool, dict, int]], config: RunConfig, name: str):
    """Shared engine for sober/h_sober: every member-closed set is a
    point closure with a unique generic point, exhaustively by
    ``generic()`` (``_generic_points``, called within
    ``caps.family_listing`` only), under ``name`` computed or skipped."""
    paths = []
    evidence = {}
    # 1: definitional family equality over enumerated closed sets
    if X.n <= config.caps.family_listing:
        value, table, count = generic()
        paths.append((name, value, ""))
        evidence["generic_points"] = _truncate(table)
        evidence["closed_members"] = count
    else:
        paths.append((name, None, "carrier above enumeration cap"))
    # 2: pair scan: no member-closure can have two maximal points
    scan = _pair_scan(X)
    paths.append(("incomparable-pair split certificates", scan["ok"], ""))
    evidence["incomparable_pairs"] = scan["incomparable_pairs"]
    # 3: closures of masks are point closures or split into proper parts
    split, mode, count = _split_path(X, config)
    paths.append(split)
    evidence["closures" if mode == "raw" else "sampled_closed_sets"] = count
    return paths, evidence


def _split_path(X: FiniteSpace, config: RunConfig) -> tuple[tuple[str, bool, str], str, int]:
    """``_sober_like``'s third path, its mode and its number of masks:
    the closure of each mask of ``_masks`` is a point closure or splits
    into two proper closed parts.  Computed once per
    space and run config in X's memo (``"split"``), so ``sober`` and
    every ``h_sober`` core share it; each distinct closure is decided
    once."""

    def build():
        mode, masks = _masks(X, config, "split")
        value = all([_generic_or_split(X, C) for C in set(map(X.closure_mask, masks))])
        return (f"closures: generic point or split ({_MODE_NAMES[mode]})", value, ""), mode, len(masks)

    return X.memo(("split", config), build)


def _p_sober(X: FiniteSpace, H, config: RunConfig):
    paths, evidence = _sober_like(
        X, lambda: _generic_points(X, lambda d: X.top_of(d) is not None), config,
        "irreducible closed sets have unique generic points",
    )
    if "closed_members" in evidence:
        evidence["irreducible_closed"] = evidence["closed_members"]
    return paths, evidence


def _p_d_space(X: FiniteSpace, H, config: RunConfig):
    evidence = {}
    # each member's closure is decided once, for all three paths
    top = X.memo(("per mask", "principal top"), lambda: _PerMask(lambda m: _principal_top(X, m)))
    if X.n <= config.caps.subset_enum:
        value = True
        sups = {}
        directed = systems._h_members(X, "D")
        # the table is listed per point, so its members have sups by
        # construction; the raw scan of the predicate is what can fail
        if directed != [m for m in range(1, X.full + 1) if systems._member("D", X, m)]:
            value = False
        for m in directed:
            s = systems._sup_of(X, m)
            if s is None or s != top[m]:
                value = False
            elif len(sups) < 12:
                sups[_set_label(X, m)] = X.labels[s]
        paths = [("directed sets have sups with principal closures (exhaustive)", value, "")]
        evidence["directed_sets"] = len(directed)
        evidence["sups"] = sups
    else:
        paths = [("directed sets have sups with principal closures", None, "carrier above enumeration cap")]
    scan = _pair_scan(X)
    mode, directed = _h_sets(X, systems.SubsetSystemId("D"), config, config.caps.sample_count, "dspace")
    value = scan["ok"] and all([top[m] is not None for m in directed])
    paths.append((f"incomparable-pair scan with directed closures ({_MODE_NAMES[mode]})", value, ""))
    evidence["incomparable_pairs"] = scan["incomparable_pairs"]
    if mode == "sampled":
        evidence["sampled_directed"] = len(directed)
    # chain criterion: d-space iff chain closures are principal
    mode, chains = _h_sets(X, systems.SubsetSystemId("C"), config, config.caps.sample_count, "dspace")
    value = all([top[m] is not None for m in chains])
    paths.append((f"chain closures are principal ({_MODE_NAMES[mode]})", value, ""))
    return paths, evidence


def _principal_top(X: FiniteSpace, m: int) -> int | None:
    """The greatest element t of the closure of ``m`` when that closure is
    the closure of t, else None."""
    c = X.closure_mask(m)
    t = X.top_of(c)
    return t if t is not None and X.down[t] == c else None


def _p_well_filtered(X: FiniteSpace, H, config: RunConfig):
    paths = []
    evidence = {}
    # 1: definitional filtered-family condition
    mode, fams = _families_for(X, systems.SubsetSystemId("D"), config)
    if mode == "raw":
        opens = X.upsets()
        value = all(_filtered(_meet(X, fam), fam, opens) for fam in fams)
        paths.append(("filtered families (exhaustive)", value, ""))
        evidence["filtered_families"] = len(fams)
    else:
        paths.append(("filtered families", None, "compact families above enumeration cap"))
    # 2: the Smyth power space is a d-space
    S = powers.smyth(X, config)
    v = check(S.space, "d_space", None, config)
    paths.append(("Smyth power space is a d-space", v.holds and v.characterizations_agreed, ""))
    evidence["smyth_carrier"] = len(S.carrier)
    # 3: collapse through the strongly-determined system for directed sets
    v2 = check(X, "h_sober", systems.SubsetSystemId("D", "D"), config)
    paths.append(("sobriety for strongly-determined directed sets", v2.holds and v2.characterizations_agreed, ""))
    return paths, evidence


def _p_omega_wf(X: FiniteSpace, H, config: RunConfig):
    paths = []
    evidence = {}
    mode, fams = _families_for(X, systems.SubsetSystemId("C"), config)
    if mode == "raw":
        opens = X.upsets()
        value = all(_filtered(_meet(X, fam), fam, opens) for fam in fams)
        paths.append(("descending chains (exhaustive)", value, ""))
        evidence["chains"] = len(fams)
    else:
        paths.append(("descending chains", None, "compact families above enumeration cap"))
    # every family over a finite carrier is countable, so the two notions
    # coincide here; evaluated through the full checker
    v = check(X, "well_filtered", None, config)
    paths.append(("well-filteredness by countable collapse", v.holds and v.characterizations_agreed, ""))
    # chain-sobriety of the Smyth power space for the countable-chain tag
    v2 = check(powers.smyth(X, config).space, "h_sober", systems.SubsetSystemId("Cw"), config)
    paths.append(("chain-sobriety of the Smyth power space", v2.holds and v2.characterizations_agreed, ""))
    return paths, evidence


def _p_h_sober(X: FiniteSpace, H: systems.SubsetSystemId, config: RunConfig):
    core = systems._core_of(H)
    generic = lambda: _generic_points(X, lambda d: systems._member(core, X, d))
    paths, evidence = _sober_like(X, generic, config, "closed members are point closures (exhaustive)")
    # neighborhood filtration: up-bounds inside opens find members
    mode, members = _h_sets(X, H, config, config.caps.sample_count, "hsober")
    filtration = X.memo(("per mask", "neighborhood filtration"),
                        lambda: _PerMask(lambda m: _neighborhood_filtered(X, m)))
    value = all([filtration[m] for m in members])
    paths.append((f"neighborhood filtration on members ({_MODE_NAMES[mode]})", value, ""))
    evidence["members" if mode == "raw" else "sampled_members"] = len(members)
    return paths, evidence


def _neighborhood_filtered(X: FiniteSpace, m: int) -> bool:
    """The upper bounds ub of ``m`` meet its closure, and the family
    {up a : a in m}, whose meet is ub, is filtered at the open ub: some
    up a lies in ub.  Any open containing ub then contains that up a, so
    ub is the one open the filtration needs."""
    cl = X.closure_mask(m)
    ub = X.ubs_mask(m)
    return cl & ub != 0 and _filtered(ub, [X.up[a] for a in bits(m)], (ub,))


def _p_super(X: FiniteSpace, H: systems.SubsetSystemId, config: RunConfig):
    paths = []
    evidence = {}
    S = powers.smyth(X, config)
    v = check(S.space, "h_sober", H, config)
    paths.append(("Smyth power space is H-sober", v.holds and v.characterizations_agreed, ""))
    evidence["smyth_carrier"] = len(S.carrier)
    # compact filtration: members inside opens once the intersection is;
    # each generator family holds its own meet, so only raw mode computes
    mode, fams = _families_for(X, H, config)
    if mode == "raw":
        opens = X.upsets()
        value = all((inter := _meet(X, fam)) != 0 and inter in fam and _filtered(inter, fam, opens) for fam in fams)
        paths.append(("compact filtration (exhaustive)", value, ""))
    else:
        paths.append(("compact filtration", None, "compact families above enumeration cap"))
    evidence["families"] = len(fams)
    paths.append(("meeting-families are principal ideals at the base", _psi_ok(X, config), ""))
    # equational form on generator/raw families with closed cuts: every
    # closed set within _CUT_EQUATION_PAIRS, else seeded ones per family
    closed = X.downsets()
    sat = _cut_sat(X)
    heads = fams[: 4 * config.caps.sample_count]
    if len(fams) * len(closed) <= _CUT_EQUATION_PAIRS:
        value = all(_meet(X, fam) != 0 and _cut_identity(X, fam, closed, sat, True) for fam in heads)
    else:
        getrandbits = _rng(config, "supereq", str(H), X.n, X.up[0]).getrandbits
        draw = lambda: [closed[_randbelow(getrandbits, len(closed))] for _ in range(4)]
        value = all(_meet(X, fam) != 0 and _cut_identity(X, fam, draw(), sat) for fam in heads)
    paths.append(("equational cut identity over closed sets", value, ""))
    return paths, evidence


def _p_h_complete(X: FiniteSpace, H: systems.SubsetSystemId, config: RunConfig):
    mode, count, value = _all_members(X, H, config, "hcomplete", lambda m: systems._sup_of(X, m) is not None)
    paths = [(f"every member has a least upper bound ({_MODE_NAMES[mode]})", value, "")]
    evidence = {"members" if mode == "raw" else "sampled_members": count}
    v = check(X, "h_sober", H, config)
    paths.append(("sobriety for the system by the upper-topology biconditional",
                  v.holds and v.characterizations_agreed, ""))
    return paths, evidence


def _p_h_bounded(X: FiniteSpace, H: systems.SubsetSystemId, config: RunConfig):
    mode, count, value = _all_members(X, H, config, "hbounded", lambda m: X.ubs_mask(m) != 0)
    paths = [(f"every member has an upper bound ({_MODE_NAMES[mode]})", value, "")]
    evidence = {"members" if mode == "raw" else "sampled_members": count}
    # members carry a greatest element, which bounds them
    mode, members = _h_sets(X, H, config, config.caps.sample_count, "hbounded2")
    under = X.memo(("per mask", "under the top"), lambda: _PerMask(lambda m: _under_top(X, m)))
    value = all([under[m] for m in members])
    paths.append((f"members sit under the top of their closure ({_MODE_NAMES[mode]})", value, ""))
    return paths, evidence


def _under_top(X: FiniteSpace, m: int) -> bool:
    """The closure of ``m`` has a greatest element, and ``m`` lies under it."""
    t = X.top_of(X.closure_mask(m))
    return t is not None and m & ~X.down[t] == 0


def _p_hip(X: FiniteSpace, H: systems.SubsetSystemId, config: RunConfig):
    paths = []
    evidence = {}
    mode, fams = _families_for(X, H, config)
    value = all(_meet(X, fam) != 0 for fam in fams)
    paths.append((f"families have nonempty intersection ({_MODE_NAMES[mode]})", value, ""))
    evidence["families"] = len(fams)
    v = check(powers.smyth(X, config).space, "h_bounded", H, config)
    paths.append(("Smyth power space is H-bounded", v.holds and v.characterizations_agreed, ""))
    return paths, evidence


def _p_smyth_complete(X: FiniteSpace, H: systems.SubsetSystemId, config: RunConfig):
    paths = []
    evidence = {}
    mode, fams = _families_for(X, H, config)
    value = all((inter := _meet(X, fam)) != 0 and X.is_up(inter) for fam in fams)
    paths.append((f"family intersections are compact saturated ({_MODE_NAMES[mode]})", value, ""))
    evidence["families"] = len(fams)
    v = check(powers.smyth(X, config).space, "h_complete", H, config)
    paths.append(("Smyth power space is H-complete", v.holds and v.characterizations_agreed, ""))
    return paths, evidence


def _p_h_consonant(X: FiniteSpace, H: systems.SubsetSystemId, config: RunConfig):
    paths = []
    evidence = {}
    if X.n <= config.caps.family_listing and len(X.upsets()) <= 65:
        value, count, table = _realize_filters(X, H, config)
        paths.append(("filters realized by one-member families", value, ""))
        evidence["filters"] = count
        evidence["realizations"] = dict(table)
    else:
        paths.append(("filters realized by one-member families", None, "open-set lattice above cap"))
    v1 = check(X, "sober", None, config)
    v2 = check(X, "super_h_sober", H, config)
    paths.append(
        ("sobriety decomposition: sober = consonant + super-sober", v1.holds and v2.holds, "")
    )
    return paths, evidence


def _realize_filters(X: FiniteSpace, H: systems.SubsetSystemId, config: RunConfig) -> tuple[bool, int, dict]:
    """(value, number of open filters, realizations by set label) of
    "each open filter is the family of opens holding its least compact k,
    and {k} is an H-family", the point k an H-member of the Smyth space;
    H is read only through its core."""
    filters = powers.open_filters(X, config)
    S = powers.smyth(X, config)
    core = systems._core_of(H)
    value = True
    table = {}
    for f in filters:
        k = f.least()
        fam = (k,)
        if not systems._member(core, S.space, 1 << S.index[k]):
            value = False
            continue
        realized = tuple(U for U in X.upsets() if any(m & ~U == 0 for m in fam))
        if realized != f.opens:
            value = False
        elif len(table) < 12:
            table[_set_label(X, k)] = len(f.opens)
    return value, len(filters), table


def _p_lhc(X: FiniteSpace, H, config: RunConfig):
    paths = []
    evidence = {}
    # minimal neighborhoods are principal filters
    value = True
    opens = X.upsets() if X.n <= config.caps.family_listing else None
    for x in range(X.n):
        if not X.is_up(X.up[x]):
            value = False
        if opens is not None:
            for U in opens:
                if (U >> x) & 1 and X.up[x] & ~U != 0:
                    value = False
    paths.append(("least neighborhoods are principal filters", value, ""))
    # saturations of masks contain the principal filter of each of their
    # points, each distinct saturation checked once
    mode, masks = _masks(X, config, "lhc")
    value = all(X.up[x] & ~U == 0 for U in set(map(X.sat_mask, masks)) for x in bits(U))
    paths.append((f"saturations contain principal filters ({_MODE_NAMES[mode]})", value, ""))
    return paths, evidence


# in the order of ``check_all`` and of the CLI's ``--property`` choices
_IMPLS = {
    "t0": _p_t0,
    "d_space": _p_d_space,
    "sober": _p_sober,
    "well_filtered": _p_well_filtered,
    "omega_well_filtered": _p_omega_wf,
    "h_sober": _p_h_sober,
    "super_h_sober": _p_super,
    "h_complete": _p_h_complete,
    "h_bounded": _p_h_bounded,
    "hip": _p_hip,
    "smyth_h_complete": _p_smyth_complete,
    "h_consonant": _p_h_consonant,
    "locally_hypercompact": _p_lhc,
}

PROPERTY_IDS = tuple(_IMPLS)


def check(X: FiniteSpace, property: str, system=None, config: RunConfig = DEFAULT) -> Verdict:
    """Evaluate a property along its independent characterizations.

    ``system`` is required for the H-parameterized properties and must be
    omitted for the rest.  On a finite carrier a system is its S/C/D/R
    core (``systems._core_of``), so an H-parameterized verdict's paths are
    computed once per (property, core, config) (``_paths_for``) and each
    system's record is its core's with ``system`` renamed.
    """
    if property not in _IMPLS:
        raise UsageError(f"unknown property {property!r}; choose from {PROPERTY_IDS}")
    if property in _H_REQUIRED:
        if system is None:
            raise MissingSystem(f"property {property!r} needs a subset system")
        system = systems.as_system(system)
    elif system is not None:
        raise UsageError(f"property {property!r} does not take a subset system")
    return X.memo(("verdict", property, str(system), config),
                  lambda: _mk_verdict(property, system, *_paths_for(X, property, system, config)))


def _paths_for(X: FiniteSpace, property: str, H: systems.SubsetSystemId | None, config: RunConfig):
    """The paths and evidence of ``property`` for ``H``: with no system,
    its implementation's; else those of H's core, computed once per
    (property, core, config)."""
    if H is None:
        return _IMPLS[property](X, None, config)
    core = systems._core_of(H)
    return X.memo(("paths", property, core, config), lambda: _IMPLS[property](X, systems.SubsetSystemId(core), config))


def check_all(X: FiniteSpace, config: RunConfig = DEFAULT) -> list[Verdict]:
    """All plain properties plus every H-parameterized property for the
    seven base systems, in a fixed order."""
    out = [check(X, prop, None, config) for prop in PROPERTY_IDS if prop not in _H_REQUIRED]
    for prop in PROPERTY_IDS:
        if prop in _H_REQUIRED:
            out.extend(check(X, prop, Hid, config) for Hid in systems.BASE_IDS)
    return out


# -- crosschecks ----------------------------------------------------------


def _per_core_battery(battery: Callable[[FiniteSpace, systems.SubsetSystemId, RunConfig], CrossReport]):
    """The battery for any system: H's report is that of H's S/C/D/R
    core, built by ``battery`` once per (battery, core, config) in X's
    memo, with ``system`` renamed."""

    @wraps(battery)
    def run(X: FiniteSpace, H, config: RunConfig = DEFAULT) -> CrossReport:
        H = systems.as_system(H)
        core = systems._core_of(H)
        report = X.memo((battery.__name__, core, config), lambda: battery(X, systems.SubsetSystemId(core), config))
        return replace(report, system=str(H))

    return run


@_per_core_battery
def crosscheck_h_sober(X: FiniteSpace, H, config: RunConfig = DEFAULT) -> CrossReport:
    """Evaluate the characterization battery for H-sobriety and assert the
    conditions agree: the verdict with its agreement record, and
    boundedness plus the cut equation over the closed members (the
    closures of members) against the closed sets."""
    base = check(X, "h_sober", H, config)
    mode, hs = _h_sets(X, H, config, 4 * config.caps.sample_count, "hsets")
    closed = X.downsets() if X.n <= config.caps.family_listing else None
    # cuts by the closures of members: the family {up a : a in m} of a
    # singleton member meets the equation whatever sat_mask does, while a
    # closure's family reaches a faulty saturation
    hc = sorted({X.closure_mask(m) for m in hs}, key=lambda m: (m.bit_count(), m))
    bounded_eq = all(X.ubs_mask(m) != 0 for m in hc)
    # cuts are drawn, and their generator seeded, only when the closed sets
    # are not listed or the pairs exceed the budget
    rngq = None
    if closed is None or len(hc) * len(closed) > _CUT_EQUATION_PAIRS:
        rngq = _rng(config, "hbeq", str(H), X.n, X.up[0])
    sat = _cut_sat(X)
    for m in hc:
        cs = closed
        if closed is None:
            cs = [X.closure_mask(rngq.getrandbits(X.n)) for _ in range(4)]
        elif rngq is not None:
            cs = [closed[_randbelow(rngq.getrandbits, len(closed))] for _ in range(4)]
        if not _cut_identity(X, [X.up[a] for a in bits(m)], cs, sat, cs is closed):
            bounded_eq = False

    conds = [
        ("h_sober", base.holds and base.characterizations_agreed),
        ("bounded + cut equation [closed members x closed]", bounded_eq),
    ]
    agreed = len({v for _, v in conds}) == 1
    return CrossReport(
        property="h_sober_characterizations",
        system=str(H),
        conditions=tuple(conds),
        modes=(("members", mode),),
        agreed=agreed,
    )


@_per_core_battery
def crosscheck_super(X: FiniteSpace, H, config: RunConfig = DEFAULT) -> CrossReport:
    """Characterization battery for super-H-sobriety: the verdict with its
    agreement record, then forms no verdict path computes: the cut
    equation over Smyth-closed families, and sobriety of the Smyth space
    for the irreducible core (R, which decides every derived system).
    That the families' meets are compact saturated is
    ``smyth_h_complete``'s first path, so it is not restated here.
    Filtration forms over families that hold their own meet (an open
    Smyth neighborhood of the meet, sampled descending chains) are true by
    construction, so none is evaluated."""
    base = check(X, "super_h_sober", H, config)
    S = powers.smyth(X, config)
    sp = S.space
    mode, fams = _families_for(X, H, config)
    getrandbits = _rng(config, "super", str(H), X.n, X.up[0]).getrandbits
    conds = [("super_h_sober", base.holds and base.characterizations_agreed)]

    # equational form over principal closed families and sampled
    # Smyth-closed sets
    ok_eq_family = True
    # the Smyth space's own table, shared by the four cores' batteries
    sat = _cut_sat(sp)
    for fam in fams:
        idxs = [S.index[k] for k in fam]
        cls = [sp.down[_randbelow(getrandbits, sp.n)] for _ in range(2)]
        cls.append(sp.closure_mask(1 << idxs[0]))
        if not _cut_identity(sp, [sp.up[j] for j in idxs], cls, sat):
            ok_eq_family = False
    conds.append(("equational form over Smyth-closed families", ok_eq_family))

    if systems._core_of(H) == "R":
        v = check(sp, "sober", None, config)
        conds.append(("Smyth power space is sober", v.holds and v.characterizations_agreed))

    agreed = len({v for _, v in conds}) == 1
    return CrossReport(
        property="super_h_sober_characterizations",
        system=str(H),
        conditions=tuple(conds),
        modes=(("families", mode),),
        agreed=agreed,
    )


# -- auxiliary reports ----------------------------------------------------


def upper_topology_report(P: FiniteSpace, H, config: RunConfig = DEFAULT) -> Verdict:
    """For a finite poset carrying its upper topology: that topology equals
    the up-set topology (each principal filter is a finite intersection of
    complements of point closures — computed), and sobriety for the system
    holds iff every member has a least upper bound (both sides evaluated).
    """
    H = systems.as_system(H)
    upper_ok = True
    for x in range(P.n):
        comp = P.full & ~P.up[x]
        acc = P.full
        for m in bits(P.max_mask(comp)):
            acc &= P.full & ~P.down[m]
        if acc != P.up[x]:
            upper_ok = False
    v1 = check(P, "h_sober", H, config)
    v2 = check(P, "h_complete", H, config)
    paths = [
        ("upper topology equals up-set topology", upper_ok, ""),
        ("sobriety for the system", v1.holds, ""),
        ("completeness for the system", v2.holds, ""),
        ("biconditional", v1.holds == v2.holds, ""),
    ]
    return _mk_verdict("upper_topology_biconditional", H, paths, {"points": P.n})


def validate_evidence(X: FiniteSpace, verdict: Verdict) -> bool:
    """Re-check the re-checkable parts of a verdict's evidence against the
    definitional predicates.  Keys are set labels as ``spaces._set_label``
    writes them, each read back as its one mask by ``spaces._set_mask``."""
    ev = verdict.evidence
    ok = True
    for cset, point in ev.get("generic_points", {}).items():
        if cset != "..." and cset != _set_label(X, X.closure_mask(1 << X.index(point))):
            ok = False
    for dset, point in ev.get("sups", {}).items():
        t = X.index(point)
        # least upper bound re-check of the set the key denotes; a key
        # that denotes no set has no upper bound
        m = _set_mask(X, dset)
        u = 0 if m is None else X.ubs_mask(m)
        if not (u >> t) & 1 or u & ~X.up[t]:
            ok = False
    return ok
