import random
from collections import Counter
from functools import reduce
from itertools import combinations
from operator import and_, or_

import pytest

import mutants
import oracles
from t0lab import function_space, hofmann_mislove_report, hoare, parse_space, powers, random_space, smyth
from t0lab.config import DEFAULT, Caps, RunConfig
from t0lab.errors import (
    CapExceeded,
    EmptyFamily,
    EmptyIntersection,
    InternalError,
    NotAFilter,
    NotDirected,
    UsageError,
)
from t0lab.spaces import FiniteSpace, SpaceMap, bits
from t0lab.powers import (
    OpenFilter,
    family_calculus,
    filter_of_family,
    hoare_eta,
    hoare_map,
    open_filters,
    phi,
    smyth_map,
    smyth_union,
    xi_embed,
)


# -- Smyth power space -----------------------------------------------------


def test_smyth_order_is_reverse_inclusion(all_posets):
    for n in (1, 2, 3, 4):
        for X in all_posets[n]:
            S = smyth(X)
            assert set(S.carrier) == set(k for k in oracles.upsets(X) if k)
            m = len(S.carrier)
            for i in range(m):
                for j in range(m):
                    want = S.carrier[j] & ~S.carrier[i] == 0
                    assert S.space.leq(i, j) == want


def test_smyth_topology_is_generated_by_boxes(all_posets):
    for n in (1, 2, 3):
        for X in all_posets[n]:
            S = smyth(X)
            unions = {0}
            for U in oracles.upsets(X):
                b = S.box_mask(U)
                unions |= {u | b for u in unions}
            assert unions == set(S.space.upsets())


def test_xi_embed_unit(all_posets):
    for n in (1, 2, 3, 4):
        for X in all_posets[n]:
            xi = xi_embed(X)
            assert xi.is_injective() and xi.is_order_embedding()
            S = smyth(X)
            for i in range(X.n):
                assert S.carrier[xi.table[i]] == X.up[i]
            # the unit pulls each box back to its open
            for U in X.upsets():
                assert xi.preimage_mask(S.box_mask(U)) == U


def test_smyth_map_functor_laws(all_posets):
    pool = [X for n in (1, 2, 3) for X in all_posets[n]]
    for X in pool[:6]:
        ident = smyth_map(SpaceMap.identity(X))
        assert ident.table == SpaceMap.identity(smyth(X).space).table
    rng = random.Random(11)
    for _ in range(8):
        X = random_space(rng, max_points=3)
        Y = random_space(rng, max_points=3, prefix="q")
        Z = random_space(rng, max_points=3, prefix="r")
        fs = oracles.continuous_tables(X, Y)
        gs = oracles.continuous_tables(Y, Z)
        for ft in fs[:4]:
            for gt in gs[:4]:
                f = SpaceMap(X, Y, ft)
                g = SpaceMap(Y, Z, gt)
                assert smyth_map(f.then(g)).table == \
                    smyth_map(f).then(smyth_map(g)).table


def test_smyth_union_monad_unit_laws():
    for doc in (
        {"points": ["a"], "covers": []},
        {"points": ["a", "b"], "covers": [["a", "b"]]},
        {"points": ["a", "b", "c"], "covers": [["a", "c"], ["b", "c"]]},
    ):
        X = parse_space(doc)
        S1 = smyth(X)
        un = smyth_union(X)
        # unit at the power space, then union, is the identity
        xi_P = xi_embed(S1.space)
        assert xi_P.then(un).table == SpaceMap.identity(S1.space).table
        # lifted base unit, then union, is the identity
        Pxi = smyth_map(xi_embed(X))
        assert Pxi.then(un).table == SpaceMap.identity(S1.space).table


def test_a_wrong_union_table_is_an_internal_error():
    # the union table is built, not passed in, so a wrong one breaks the
    # preimage certificate rather than a caller's map check
    X = parse_space({"points": ["a", "b"], "covers": []})
    with pytest.MonkeyPatch.context() as mp:
        mutants.CONSTRUCT_FAULTS["smyth_union misses the last member"](mp)
        with pytest.raises(InternalError, match="union preimage identity failed"):
            powers.smyth_union(X)


def test_smyth_union_cap():
    X = random_space(random.Random(1), max_points=6)
    if X.n <= 3:
        X = parse_space({"points": ["a", "b", "c", "d"], "covers": []})
    with pytest.raises(CapExceeded):
        smyth_union(X)


def test_smyth_cap_holds_after_a_build_under_larger_caps():
    X = parse_space({"points": list("abcdef"), "covers": []})
    assert len(smyth(X).carrier) == 63
    with pytest.raises(CapExceeded):
        smyth(X, RunConfig(caps=Caps(smyth_carrier=10)))


# -- generated topologies -------------------------------------------------


def _finite_meets(basics, full):
    # the empty meet is full
    return {reduce(and_, sub, full) for r in range(len(basics) + 1) for sub in combinations(basics, r)}


def test_generated_topology_is_every_union_of_finite_meets():
    # against every union of every subfamily of the finite meets (the empty
    # union is 0), over seeded basics on carriers of 0-6 points: arbitrary
    # masks of three densities (not up-sets), duplicates, bits outside the
    # carrier, the empty list and full = 0.  The union closure skips only
    # the meets it already holds.  Cases with more than 12 distinct meets
    # are left out, to keep the 2^|meets| unions of the oracle small.
    rng = random.Random(23)
    cases = [([], 0), ([], 1), ([], 0b111), ([0b101], 0), ([0, 0], 0b11), ([0b1, 0b10, 0b100], 0b111)]
    while len(cases) < 200:
        n = rng.randint(0, 6)
        full = (1 << n) - 1
        density = rng.choice((0.25, 0.5, 0.75))
        width = n + 1 if rng.random() < 0.2 else n
        basics = [sum(1 << i for i in range(width) if rng.random() < density) for _ in range(rng.randint(0, 6))]
        if basics and rng.random() < 0.3:
            basics.append(rng.choice(basics))
        if len(_finite_meets(basics, full)) <= 12:
            cases.append((basics, full))
    sizes = set()
    for basics, full in cases:
        meets = sorted(_finite_meets(basics, full))
        want = {reduce(or_, sub, 0) for r in range(len(meets) + 1) for sub in combinations(meets, r)}
        assert powers.generated_topology(basics, full) == want, (basics, full)
        sizes.add(len(want))
    assert max(sizes) >= 20


# -- Hoare power space -----------------------------------------------------


def test_hoare_raw_certification_runs_under_each_callers_caps(diamond, sier, monkeypatch):
    # a broken raw comparison stays silent under topology_compare=0 and
    # must surface once the caps let it run; fresh spaces keep the memo cold
    monkeypatch.setattr(powers, "generated_topology", lambda basics, full: set())
    builds = [
        lambda config: hoare(parse_space(diamond.to_doc()), "closed", config),
        lambda config: smyth(parse_space(diamond.to_doc()), config),
        lambda config: function_space(sier, sier, config),
    ]
    for build in builds:
        build(RunConfig(caps=Caps(topology_compare=0)))
        with pytest.raises(InternalError):
            build(DEFAULT)


def test_hoare_on_point_closures_recovers_the_space(all_posets):
    # the irreducible closed sets of a finite space are the point closures,
    # so the default carrier gives back a homeomorphic copy
    for n in (1, 2, 3, 4):
        for X in all_posets[n]:
            H = hoare(X)
            assert set(H.carrier) == {X.down[i] for i in range(X.n)}
            eta = hoare_eta(H)
            assert sorted(eta.table) == list(range(H.space.n))


def test_hoare_closed_carrier_orders_by_inclusion(diamond):
    H = hoare(diamond, "closed")
    assert set(H.carrier) == {d for d in oracles.downsets(diamond) if d}
    m = len(H.carrier)
    for i in range(m):
        for j in range(m):
            assert H.space.leq(i, j) == (H.carrier[i] & ~H.carrier[j] == 0)
    eta = hoare_eta(H)
    assert eta.is_injective() and eta.is_order_embedding()
    U = diamond.sat_mask(1 << diamond.index("l"))
    dm = H.diamond_mask(U)
    for i in range(m):
        assert ((dm >> i) & 1) == (1 if H.carrier[i] & U else 0)


def test_hoare_closed_carrier_shares_the_smyth_cap():
    # nonempty closed sets and nonempty opens are equinumerous by complement
    anti = lambda n: parse_space({"points": [f"a{i}" for i in range(n)], "covers": []})
    with pytest.raises(CapExceeded, match="Hoare carrier has 4095 members, cap is 2048"):
        hoare(anti(12), "closed")
    with pytest.raises(CapExceeded, match="Hoare power space: base carrier too large"):
        hoare(anti(21), "closed")


def test_hoare_map_functor_laws(all_posets):
    pool = [X for n in (1, 2, 3) for X in all_posets[n]]
    for X in pool[:6]:
        for which in ("irr_closed", "closed"):
            ident = hoare_map(SpaceMap.identity(X), which)
            assert ident.table == \
                SpaceMap.identity(hoare(X, which).space).table
    rng = random.Random(13)
    for _ in range(8):
        X = random_space(rng, max_points=3)
        Y = random_space(rng, max_points=3, prefix="q")
        Z = random_space(rng, max_points=3, prefix="r")
        fs = oracles.continuous_tables(X, Y)
        gs = oracles.continuous_tables(Y, Z)
        for ft in fs[:4]:
            for gt in gs[:4]:
                f = SpaceMap(X, Y, ft)
                g = SpaceMap(Y, Z, gt)
                assert hoare_map(f.then(g)).table == \
                    hoare_map(f).then(hoare_map(g)).table


def test_hoare_map_takes_only_a_named_carrier():
    two = parse_space({"points": ["a", "b"], "covers": [["a", "b"]]})
    three = parse_space({"points": ["x", "y", "z"], "covers": [["x", "y"], ["y", "z"]]})
    f = SpaceMap(two, three, (0, 2))
    # one list cannot name closed sets of both endpoints
    for which in ([["a"], ["a", "b"]], [1, 3]):
        with pytest.raises(UsageError, match="named carrier"):
            hoare_map(f, which)
    closures = [two.down[i] for i in range(two.n)]
    with pytest.raises(UsageError, match="named carrier"):
        hoare_map(SpaceMap.identity(two), closures)
    assert hoare_map(f, "closed").table == hoare_map(f, "irr_closed").table == (0, 2)


def test_a_refused_named_hoare_carrier_is_an_internal_error(monkeypatch):
    # both named carriers hold every hull of the lift, so an empty carrier
    # (EmptyFamily) is a broken kernel, not a user error
    mutants.FAULTS["rows not antisymmetric"](monkeypatch)
    X = parse_space({"points": ["a", "b"], "covers": [["a", "b"]]})
    with pytest.raises(InternalError, match="a named Hoare carrier was refused: the Hoare carrier is empty"):
        hoare_map(SpaceMap.identity(X), "closed")


def test_lifts_build_no_unit(monkeypatch):
    # each unit is certified where it is built; a lift reads none of them
    X = parse_space({"points": ["a", "b"], "covers": [["a", "b"]]})
    Y = parse_space({"points": ["x", "y", "z"], "covers": [["x", "z"], ["y", "z"]]})
    unit = powers._unit
    calls = Counter()

    def counting(base, space, *args):
        calls[base, space] += 1
        return unit(base, space, *args)

    monkeypatch.setattr(powers, "_unit", counting)
    maps = oracles.continuous_tables(X, Y)
    assert len(maps) > 1
    for table in maps:
        f = SpaceMap(X, Y, table)
        smyth_map(f)
        for which in ("closed", "irr_closed"):
            hoare_map(f, which)
    assert calls == Counter()


def test_lifts_are_natural_in_the_units(all_posets):
    # the square no lift checks at run time: for every map f,
    # unit . P(f) = f . unit for the Smyth and both named Hoare lifts
    pool = [X for n in (1, 2, 3) for X in all_posets[n]]
    for X in pool:
        for Y in pool:
            for table in oracles.continuous_tables(X, Y):
                f = SpaceMap(X, Y, table)
                assert xi_embed(X).then(smyth_map(f)).table == f.then(xi_embed(Y)).table
                for which in ("closed", "irr_closed"):
                    eta = lambda B: hoare_eta(hoare(B, which))
                    assert eta(X).then(hoare_map(f, which)).table == f.then(eta(Y)).table


# each named lift with its power space and the hull it takes in the target
_LIFTS = (
    (smyth_map, smyth, "sat_mask"),
    (lambda f: hoare_map(f, "closed"), lambda B: hoare(B, "closed"), "closure_mask"),
    (lambda f: hoare_map(f, "irr_closed"), lambda B: hoare(B, "irr_closed"), "closure_mask"),
)


def _fresh(X):
    return FiniteSpace(X.labels, X.up)


def _per_member(f, PX, PY, hull):
    return tuple(PY.index[hull(f.image_mask(a))] for a in PX.carrier)


def test_lift_tables_give_the_per_member_hull(all_posets):
    # a lift reads each image's hull from a table per target and hull; on
    # fresh spaces and after every map of every source has been lifted
    # into the same target (the sources shared by every target), it is the
    # hull of each member's image
    pool = [X for n in (1, 2, 3) for X in all_posets[n]]
    sources = [_fresh(X) for X in pool]
    for Y in pool:
        warm = _fresh(Y)
        maps = [SpaceMap(X, warm, t) for X in sources for t in oracles.continuous_tables(X, warm)]
        for f in maps:
            for lift, _, _ in _LIFTS:
                lift(f)
        for f in maps:
            cold = SpaceMap(_fresh(f.source), _fresh(warm), f.table)
            for lift, power, hull in _LIFTS:
                want = _per_member(f, power(f.source), power(warm), getattr(warm, hull))
                assert lift(f).table == want
                assert lift(cold).table == want


def test_a_lift_under_another_hull_reads_its_own_table(all_posets):
    # the identity hull of the "_lift skips the hull" fault, between two
    # honest lifts into one target: it raises where a raw image is not a
    # member, and the honest lift after it is still the per-member hull
    pool = [X for n in (1, 2, 3) for X in all_posets[n]]
    raised = 0
    for X in map(_fresh, pool):
        for Y in map(_fresh, pool):
            for t in oracles.continuous_tables(X, Y):
                f = SpaceMap(X, Y, t)
                for lift, power, hull in _LIFTS:
                    PX, PY = power(X), power(Y)
                    want = _per_member(f, PX, PY, getattr(Y, hull))
                    assert lift(f).table == want
                    raw = [f.image_mask(a) for a in PX.carrier]
                    if all(img in PY.index for img in raw):
                        assert powers._lift(f, PX, PY, lambda m: m).table == tuple(PY.index[img] for img in raw)
                    else:
                        with pytest.raises(InternalError, match="image hull is not in the target carrier"):
                            powers._lift(f, PX, PY, lambda m: m)
                        raised += 1
                    assert lift(f).table == want
    assert raised


def test_hoare_explicit_carrier_validation(diamond):
    with pytest.raises(EmptyFamily):
        hoare(diamond, [])
    with pytest.raises(UsageError):
        hoare(diamond, [diamond.sat_mask(1 << diamond.index("top"))])  # open, not closed
    carrier = [diamond.down[diamond.index("l")]]
    H = hoare(diamond, carrier)
    assert H.space.n == 1
    with pytest.raises(UsageError):
        hoare_eta(H)  # missing the other point closures


# -- open filters ----------------------------------------------------------


def test_open_filter_validation(sier):
    full = sier.full
    b = 1 << sier.index("b")
    with pytest.raises(NotAFilter):
        OpenFilter(sier, ())
    with pytest.raises(NotAFilter):
        OpenFilter(sier, (0, b, full))
    with pytest.raises(NotAFilter):
        OpenFilter(sier, (b,))  # not upward closed: misses the full open
    with pytest.raises(NotAFilter):
        OpenFilter(sier, (1 << sier.index("a"),))  # not an open at all
    f = OpenFilter(sier, (b, full))
    assert f.least() == b
    assert b in f and full in f and 0 not in f
    assert f.to_json()["least"] == ["b"]


def _is_open_filter(X, fam) -> bool:
    try:
        OpenFilter(X, tuple(fam))
    except NotAFilter:
        return False
    return True


def test_open_filter_test_matches_the_pairwise_definition(all_posets, corpus):
    # every family of opens, the empty open included, on the small classes
    for X in [X for n in (1, 2, 3) for X in all_posets[n]]:
        opens = X.upsets()
        for m in range(1 << len(opens)):
            fam = [opens[i] for i in bits(m)]
            assert _is_open_filter(X, fam) == oracles.is_open_filter(X, fam), (X.up, fam)
    # seeded families: the opens above an open, then one member dropped,
    # one open or any mask added, or left as they are
    rng = random.Random(17)
    verdicts = Counter()
    for X in corpus[:60]:
        opens = X.upsets()
        for _ in range(20):
            k = rng.choice(opens)
            fam = [U for U in opens if k & ~U == 0]
            edit = rng.randrange(4)
            if edit == 0:
                fam.remove(rng.choice(fam))
            elif edit == 1:
                fam.append(rng.choice(opens))
            elif edit == 2:
                fam.append(rng.getrandbits(X.n))
            got = _is_open_filter(X, fam)
            assert got == oracles.is_open_filter(X, fam), (X.up, fam)
            verdicts[got] += 1
    assert verdicts[True] and verdicts[False]


def test_open_filters_share_the_smyth_caps(monkeypatch):
    anti = lambda n: parse_space({"points": [f"a{i}" for i in range(n)], "covers": []})
    built = []
    post_init = OpenFilter.__post_init__
    monkeypatch.setattr(OpenFilter, "__post_init__", lambda f: built.append(f) or post_init(f))
    X = anti(12)
    with pytest.raises(CapExceeded, match="Smyth carrier has 4095 members, cap is 2048"):
        open_filters(X)
    with pytest.raises(CapExceeded, match="Smyth carrier has 4095 members, cap is 2048"):
        hofmann_mislove_report(X)
    assert built == []
    chain = parse_space({"points": [f"c{i}" for i in range(21)],
                         "covers": [[f"c{i}", f"c{i + 1}"] for i in range(20)]})
    for f in (open_filters, hofmann_mislove_report):
        with pytest.raises(CapExceeded, match="Smyth power space: base carrier too large"):
            f(chain)
    assert built == []
    # a list built under the default caps does not pass smaller ones
    X = anti(6)
    assert len(open_filters(X)) == 63
    small = RunConfig(caps=Caps(smyth_carrier=10))
    for f in (open_filters, hofmann_mislove_report):
        with pytest.raises(CapExceeded, match="Smyth carrier has 63 members, cap is 10"):
            f(X, small)


def test_a_refused_neighbourhood_filter_is_an_internal_error():
    # open_filters builds each filter from one of the space's own compacts,
    # so a refused filter (NotAFilter) or compact (phi's CompactSat) there
    # is a broken kernel, not a user error
    doc = {"points": ["a", "b"], "covers": []}
    for fault in ("is_up false on pairs", "sat_mask drops the lowest point"):
        with pytest.MonkeyPatch.context() as mp:
            mutants.FAULTS[fault](mp)
            for f in (open_filters, hofmann_mislove_report):
                with pytest.raises(InternalError, match="the neighbourhoods of a compact are not an open filter"):
                    f(parse_space(doc))


def test_open_filters_match_powerset_oracle(all_posets, diamond):
    pool = [X for n in (1, 2, 3) for X in all_posets[n]] + [diamond]
    for X in pool:
        got = {frozenset(f.opens) for f in open_filters(X)}
        want = set(oracles.open_filters(X))
        assert got == want
        # and each is principal at a compact saturated set
        for f in open_filters(X):
            least = f.least()
            assert least and X.is_up(least)
            assert set(phi(X, least).opens) == set(f.opens)


def test_filter_of_family(diamond):
    left = diamond.sat_mask(1 << diamond.index("l"))
    right = diamond.sat_mask(1 << diamond.index("r"))
    top = diamond.sat_mask(1 << diamond.index("top"))
    f = filter_of_family(diamond, [left, right, top])
    assert f.least() == top
    with pytest.raises(NotAFilter):
        filter_of_family(diamond, [left, right])


def test_hofmann_mislove_report(all_posets, corpus):
    pool = [X for n in (1, 2, 3, 4, 5) for X in all_posets[n]] + corpus[:25]
    for X in pool:
        rep = hofmann_mislove_report(X)
        assert rep["bijective"] and rep["order_reversing"]
        assert rep["compacts"] == rep["filters"] == len(X.nonempty_upsets())
        assert rep["pairs_checked"] >= rep["compacts"]


def test_hofmann_mislove_sampled_branch():
    # past 64 compacts the order check runs on a seeded sample
    X = parse_space({"points": [f"p{i}" for i in range(7)], "covers": []})
    assert len(X.nonempty_upsets()) == 127
    rep = hofmann_mislove_report(X, RunConfig(seed=3))
    assert rep["bijective"] and rep["order_reversing"]
    assert rep["pairs_checked"] == 512


# -- family calculus -------------------------------------------------------


def test_family_calculus_operations(diamond):
    left = diamond.sat_mask(1 << diamond.index("l"))
    right = diamond.sat_mask(1 << diamond.index("r"))
    top = diamond.sat_mask(1 << diamond.index("top"))
    inter = family_calculus(diamond, [left, right], "intersection")
    assert inter.mask == top
    sup = family_calculus(diamond, [left, right], "sup")
    assert sup.mask == top
    assert family_calculus(diamond, [left, right], "closure_intersection")
    # least under inclusion: up(top) sits inside up(l)
    least = family_calculus(diamond, [left, top], "least")
    assert least.mask == top
    with pytest.raises(NotDirected):
        family_calculus(diamond, [left, right], "least")
    with pytest.raises(UsageError):
        family_calculus(diamond, [left], "frobnicate")


def test_family_calculus_empty_intersection(anti3):
    kx = anti3.sat_mask(1 << anti3.index("x"))
    ky = anti3.sat_mask(1 << anti3.index("y"))
    assert family_calculus(anti3, [kx, ky], "intersection").mask == 0
    with pytest.raises(EmptyIntersection):
        family_calculus(anti3, [kx, ky], "sup")
