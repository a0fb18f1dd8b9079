"""Nine-part acceptance battery.

Each part prints one scoreboard line ("criterion N (...): PASS/FAIL")
before asserting, so a full run reads as a summary even when something
breaks.  Everything here is exact: exhaustive at the stated sizes, seeded
where randomized.
"""

import json
import random
import time
from itertools import combinations, combinations_with_replacement

import oracles
from t0lab import checkers, cli, random_space, systems, zoo
from t0lab.construct import (
    continuous_maps,
    enumerate_posets,
    product_preservation,
    reflect,
    universal_property_verify,
)
from t0lab.errors import NoHomeomorphism, UsageError
from t0lab.powers import (
    hoare,
    hoare_eta,
    hoare_map,
    hofmann_mislove_report,
    smyth,
    smyth_map,
    smyth_union,
    xi_embed,
)
from t0lab.spaces import SpaceMap, bits, is_irreducible

PLAIN = ("sober", "d_space", "well_filtered", "omega_well_filtered")
SYSTEMS = ("S", "C", "Cω", "D", "Dω", "R", "Rω")


def _line(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    tail = f" [{detail}]" if detail else ""
    print(f"criterion {num} ({name}): {tag}{tail}")


# -- 1: every checker accepts every finite T0 space ------------------------


def test_criterion_1_finite_collapse_soundness(all_posets, corpus):
    spaces = [X for n in sorted(all_posets) for X in all_posets[n]] + corpus
    t0 = time.perf_counter()
    bad = []
    for X in spaces:
        for prop in PLAIN:
            v = checkers.check(X, prop)
            if not (v.holds and v.characterizations_agreed):
                bad.append((X.to_doc(), prop, None, v.holds))
        for H in SYSTEMS:
            for prop in ("h_sober", "super_h_sober"):
                v = checkers.check(X, prop, H)
                if not (v.holds and v.characterizations_agreed):
                    bad.append((X.to_doc(), prop, H, v.holds))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed <= 60.0
    _line(1, "finite-collapse soundness", ok,
          f"{len(spaces)} spaces x 18 checkers, {elapsed:.1f}s")
    assert not bad, bad[:3]
    assert elapsed <= 60.0, f"{elapsed:.1f}s over the 60s budget"


# -- 2: the characterization batteries agree everywhere --------------------


def test_criterion_2_characterization_agreement(all_posets, corpus):
    spaces = [X for n in sorted(all_posets) for X in all_posets[n]] + corpus
    t0 = time.perf_counter()
    bad = []
    for X in spaces:
        for H in SYSTEMS:
            for run in (checkers.crosscheck_h_sober, checkers.crosscheck_super):
                r = run(X, H)
                if not (r.agreed and all(v for _, v in r.conditions)):
                    bad.append((X.to_doc(), H, r.property, r.conditions))
    elapsed = time.perf_counter() - t0
    ok = not bad
    _line(2, "characterization agreement", ok,
          f"{len(spaces)} spaces x {len(SYSTEMS)} systems x 2 batteries, {elapsed:.1f}s")
    assert not bad, bad[:3]


# -- 3: greedy shrinking lands in the minimal class ------------------------


def test_criterion_3_rudin_oracle_equivalence():
    t0 = time.perf_counter()
    n_fam = 0
    bad = []
    for n in range(1, 7):
        for X in enumerate_posets(n):
            downs = sorted((d for d in oracles.downsets(X) if d), key=lambda d: (d.bit_count(), d))
            ks = oracles.compacts(X)
            # the nonempty down-sets each compact meets, as a mask over downs
            hits = {k: sum(1 << i for i, d in enumerate(downs) if d & k) for k in ks}
            for size in (1, 2, 3):
                for fam in combinations(ks, size):
                    n_fam += 1
                    meet = hits[fam[0]]
                    for k in fam[1:]:
                        meet &= hits[k]
                    # downs ascend by size, so a member of the meet is
                    # minimal iff no minimal member found before lies in it
                    mins = []
                    for i in bits(meet):
                        if not any(e & ~downs[i] == 0 for e in mins):
                            mins.append(downs[i])
                    mins = set(mins)
                    got = systems.rudin_minimal(X, fam, X.full).mask
                    if got not in mins:
                        bad.append((X.to_doc(), fam, "left the minimal class"))
                    elif oracles.has_least_member(fam) and not is_irreducible(X, got):
                        bad.append((X.to_doc(), fam, "not irreducible"))
                    if n_fam % 997 == 0:
                        # periodic tie-back to the frozen oracle module
                        if mins != set(oracles.minimal_meeting_closed(X, fam)):
                            bad.append((X.to_doc(), fam, "oracle drift"))
    elapsed = time.perf_counter() - t0
    ok = not bad
    _line(3, "Rudin oracle equivalence", ok,
          f"{n_fam} families over all posets to 6 points, {elapsed:.1f}s")
    assert not bad, bad[:3]


# -- 4: power-space functors, units, and the union map ---------------------


def _pad(b):
    return b + bytes(256 - len(b))


def test_criterion_4_functor_and_embedding_laws(all_posets):
    classes = [X for n in (1, 2, 3, 4) for X in all_posets[n]]
    t0 = time.perf_counter()
    bad = []

    # units are embeddings, with exact open-trace behaviour
    for X in classes:
        S = smyth(X)
        xi = xi_embed(X)
        if not (xi.is_injective() and xi.is_order_embedding()):
            bad.append((X.to_doc(), "xi not an embedding"))
        for U in X.upsets():
            if xi.preimage_mask(S.box_mask(U)) != U:
                bad.append((X.to_doc(), "xi box preimage"))
        Hc = hoare(X, "closed")
        eta = hoare_eta(Hc)
        img = eta.image_mask(X.full)
        for U in X.upsets():
            if eta.preimage_mask(Hc.diamond_mask(U)) != U:
                bad.append((X.to_doc(), "eta diamond preimage"))
            if eta.image_mask(U) != img & Hc.diamond_mask(U):
                bad.append((X.to_doc(), "eta open trace"))
        if sorted(hoare_eta(hoare(X)).table) != list(range(hoare(X).space.n)):
            bad.append((X.to_doc(), "eta not onto the point closures"))
        if smyth_map(SpaceMap.identity(X)).table != tuple(range(S.space.n)):
            bad.append((X.to_doc(), "smyth identity law"))
        if hoare_map(SpaceMap.identity(X)).table != tuple(range(Hc.space.n)):
            bad.append((X.to_doc(), "hoare identity law"))

    # lift every continuous map once, pinned against the raw map oracle
    lift_s, lift_h, tabs = {}, {}, {}
    n_maps = 0
    for i, X in enumerate(classes):
        for j, Y in enumerate(classes):
            fs = continuous_maps(X, Y)
            if sorted(f.table for f in fs) != oracles.continuous_tables(X, Y):
                bad.append((X.to_doc(), Y.to_doc(), "map enumeration"))
            ds, dh, ts = {}, {}, []
            for f in fs:
                bt = bytes(f.table)
                ds[bt] = bytes(smyth_map(f).table)
                dh[bt] = bytes(hoare_map(f).table)
                ts.append(bt)
            lift_s[(i, j)], lift_h[(i, j)], tabs[(i, j)] = ds, dh, ts
            n_maps += len(fs)

    # composition laws over every composable pair, via byte translation
    n_pairs = 0
    K = range(len(classes))
    for i in K:
        for j in K:
            ts_ij = tabs[(i, j)]
            if not ts_ij:
                continue
            ls_ij, lh_ij = lift_s[(i, j)], lift_h[(i, j)]
            for k in K:
                ts_jk = tabs[(j, k)]
                if not ts_jk:
                    continue
                ds_ik, dh_ik = lift_s[(i, k)], lift_h[(i, k)]
                gs = [(_pad(bg), _pad(lift_s[(j, k)][bg]), _pad(lift_h[(j, k)][bg]))
                      for bg in ts_jk]
                for bf in ts_ij:
                    lf_s, lf_h = ls_ij[bf], lh_ij[bf]
                    for bg_pad, lg_s_pad, lg_h_pad in gs:
                        cb = bf.translate(bg_pad)
                        n_pairs += 1
                        if ds_ik.get(cb) != lf_s.translate(lg_s_pad):
                            bad.append((i, j, k, cb, "smyth composition"))
                        if dh_ik.get(cb) != lf_h.translate(lg_h_pad):
                            bad.append((i, j, k, cb, "hoare composition"))

    # the union map out of the double power space, on every small base
    for X in classes:
        if X.n > 3:
            continue
        un = smyth_union(X)
        for V in un.target.upsets():
            if not un.source.is_up(un.preimage_mask(V)):
                bad.append((X.to_doc(), "union map preimage not open"))
        S1 = smyth(X)
        if xi_embed(S1.space).then(un).table != tuple(range(S1.space.n)):
            bad.append((X.to_doc(), "union unit law (outer)"))
        if smyth_map(xi_embed(X)).then(un).table != tuple(range(S1.space.n)):
            bad.append((X.to_doc(), "union unit law (lifted)"))

    elapsed = time.perf_counter() - t0
    ok = not bad and n_maps == 19702 and n_pairs == 15192329
    _line(4, "functor and embedding laws", ok,
          f"{n_maps} maps, {n_pairs} composable pairs, {elapsed:.1f}s")
    assert not bad, bad[:3]
    assert (n_maps, n_pairs) == (19702, 15192329)


# -- 5: compact saturated sets against open filters ------------------------


def test_criterion_5_compact_open_filter_correspondence(all_posets):
    t0 = time.perf_counter()
    bad = []
    n_spaces = 0
    for n in sorted(all_posets):
        for X in all_posets[n]:
            n_spaces += 1
            rep = hofmann_mislove_report(X)
            if not (rep["bijective"] and rep["order_reversing"]
                    and rep["compacts"] == rep["filters"]):
                bad.append((X.to_doc(), rep))
    elapsed = time.perf_counter() - t0
    ok = not bad
    _line(5, "compact/open-filter correspondence", ok,
          f"{n_spaces} spaces, {elapsed:.1f}s")
    assert not bad, bad[:3]


# -- 6: reflections, universal property, binary products -------------------


def test_criterion_6_reflection_correctness(all_posets):
    bases = [X for n in sorted(all_posets) for X in all_posets[n]]
    targets = [X for n in (1, 2, 3, 4) for X in all_posets[n]]
    t0 = time.perf_counter()
    bad = []
    n_univ = 0
    for X in bases:
        for H in ("D", "R"):
            try:
                refl = reflect(X, H, "h_sobrification")
            except UsageError as e:
                bad.append((X.to_doc(), H, f"reflect: {e}"))
                continue
            if refl.iso is None:
                bad.append((X.to_doc(), H, "not homeomorphic to the base"))
            if not (refl.unit.is_injective() and refl.unit.is_order_embedding()):
                bad.append((X.to_doc(), H, "unit not an embedding"))
            for Y in targets:
                up = universal_property_verify(refl, Y)
                n_univ += 1
                if not (up["ok"] and up["factorizations_unique"]):
                    bad.append((X.to_doc(), H, Y.to_doc(), up))
    pairs = [(A, B) for A, B in combinations_with_replacement(bases, 2)
             if A.n + B.n <= 9]
    for A, B in pairs:
        for H in ("D", "R"):
            try:
                rep = product_preservation(A, B, H)
            except (NoHomeomorphism, UsageError) as e:
                bad.append((A.to_doc(), B.to_doc(), H, str(e)))
                continue
            if not (rep["ok"] and rep["iso"] is not None):
                bad.append((A.to_doc(), B.to_doc(), H, "product preservation"))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed <= 300.0
    _line(6, "reflection correctness", ok,
          f"{len(bases)} bases x 2 systems, {n_univ} universal checks, "
          f"{len(pairs)} product pairs, {elapsed:.0f}s")
    assert not bad, bad[:3]
    assert elapsed <= 300.0, f"{elapsed:.0f}s over the 5 minute budget"


# -- 7: seeded property M / property Q sweeps ------------------------------


def _family_for(rng, X, core):
    ks = X.nonempty_upsets()
    k0 = ks[rng.randrange(len(ks))]
    if core == "S":
        return [k0]
    if core == "C":
        fam = [k0]
        cur = k0
        for _ in range(3):
            cur = cur | X.sat_mask(rng.getrandbits(X.n))
            fam.append(cur)
        return sorted(set(fam))
    fam = {k0}
    for _ in range(3):
        fam.add(k0 | X.sat_mask(rng.getrandbits(X.n)))
    return sorted(fam)


def _instance(core, i, tag):
    rng = random.Random(f"{tag}|{core}|{i}")
    X = random_space(rng, max_points=7)
    fam = _family_for(rng, X, core)
    if rng.random() < 0.25:
        A = X.full
    else:
        pick = 0
        for k in fam:
            pts = list(bits(k))
            pick |= 1 << pts[rng.randrange(len(pts))]
        A = X.closure_mask(pick)
    return X, fam, A


def _still_false(kind, core, X, fam, A):
    H = systems.as_system(core)
    fam = sorted({k for k in fam if k})
    if not fam or not A or not X.is_down(A):
        return False
    if not all(A & k for k in fam):
        return False
    if not systems.h_family_member(H, X, fam):
        return False
    if kind == "m":
        return not systems.property_m_instance(H, X, fam, A)
    return not systems.property_q_instance(H, X, fam, A)


def _shrink(kind, core, X, fam, A):
    """Greedy minimization of a failing instance: drop points, then members."""
    changed = True
    while changed:
        changed = False
        for p in range(X.n):
            keep = X.full & ~(1 << p)
            if not keep:
                continue
            pos = list(bits(keep))
            sub = X.subspace(keep)
            back = {q: i for i, q in enumerate(pos)}
            f2 = [sum(1 << back[q] for q in bits(k & keep)) for k in fam]
            a2 = sum(1 << back[q] for q in bits(A & keep))
            f2 = sorted({k for k in f2 if k})
            if f2 and a2 and _still_false(kind, core, sub, f2, a2):
                X, fam, A = sub, f2, a2
                changed = True
                break
        if changed:
            continue
        for i in range(len(fam)):
            f2 = fam[:i] + fam[i + 1:]
            if f2 and _still_false(kind, core, X, f2, A):
                fam = f2
                changed = True
                break
    return X, fam, A


def _report_counterexample(kind, core, X, fam, A):
    X2, f2, a2 = _shrink(kind, core, X, fam, A)
    print(json.dumps({
        "property": kind,
        "system": core,
        "space": X2.to_doc(),
        "family": [sorted(X2.labels_of(k)) for k in f2],
        "closed_set": sorted(X2.labels_of(a2)),
    }, indent=2, sort_keys=True))


def test_criterion_7_property_m_q_sweeps():
    t0 = time.perf_counter()
    failures = 0
    for core in ("S", "C", "D", "R"):
        H = systems.SubsetSystemId(core)
        for i in range(1000):
            X, fam, A = _instance(core, i, "m")
            if not systems.property_m_instance(H, X, fam, A):
                failures += 1
                _report_counterexample("m", core, X, fam, A)
    H = systems.SubsetSystemId("R")
    for i in range(1000):
        X, fam, A = _instance("R", i, "q")
        if not systems.property_q_instance(H, X, fam, A):
            failures += 1
            _report_counterexample("q", "R", X, fam, A)
    elapsed = time.perf_counter() - t0
    ok = failures == 0
    _line(7, "property M/Q sweeps", ok,
          f"4x1000 M + 1000 Q instances, {elapsed:.1f}s")
    assert failures == 0, f"{failures} failing instances (minimized above)"


# -- 8: the symbolic catalog's registered claims ---------------------------


def test_criterion_8_zoo_certificates():
    depth_claims = {("cocountable", "wf_not_sober"), ("johnstone", "is_dcpo_d_space")}
    t0 = time.perf_counter()
    claims = zoo.list_claims()
    bad = []
    if len(claims) != 9:
        bad.append(("registry", len(claims)))
    for name, claim in claims:
        rep = zoo.verify_claim(name, claim)
        if (name, claim) in depth_claims:
            v = rep.verdict
            if not (isinstance(v, dict) and v.get("checked_to_depth", 0) >= 12):
                bad.append((name, claim, v))
        elif rep.verdict != "verified":
            bad.append((name, claim, rep.verdict))
        if not rep.revalidate():
            bad.append((name, claim, "revalidation"))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed <= 10.0
    _line(8, "zoo certificates", ok, f"{len(claims)} claims, {elapsed:.2f}s")
    assert not bad, bad
    assert elapsed <= 10.0, f"{elapsed:.2f}s over the 10s budget"


# -- 9: seeded sweeps are byte-identical -----------------------------------


def test_criterion_9_determinism(capsys):
    t0 = time.perf_counter()
    code1 = cli.main(["sweep", "--seed", "7"])
    first = capsys.readouterr()
    code2 = cli.main(["sweep", "--seed", "7"])
    second = capsys.readouterr()
    elapsed = time.perf_counter() - t0
    ok = (code1 == 0 and code2 == 0
          and first.out.encode() == second.out.encode()
          and first.err == "" and second.err == "")
    _line(9, "determinism", ok,
          f"two sweeps, {len(first.out)} bytes each, {elapsed:.1f}s")
    assert ok
