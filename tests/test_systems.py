import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import mutants
import oracles
from t0lab import Caps, RunConfig, SubsetSystemId, as_system, check_all, h_member, parse_space, random_space, rudin_minimal, systems
from t0lab.errors import (
    CapExceeded,
    EmptyFamily,
    EmptyMember,
    EmptySet,
    MissingSystem,
    NotDirected,
    NotInM,
    PreconditionViolated,
    SpaceMismatch,
    UnsupportedDepth,
    UsageError,
)
from t0lab.spaces import CompactSat, FiniteSpace, PointSet, bits, chain_core, is_directed, is_irreducible
from t0lab.systems import (
    ALL_IDS,
    BASE_IDS,
    RudinWitness,
    family_masks,
    h_closed_members,
    h_family_member,
    m_family,
    meets_all,
    property_m_instance,
    property_q_instance,
    rudin_witness,
    scott_h_continuous,
    scott_h_open,
)

CORES = ("S", "C", "D", "R")

seeds = st.integers(min_value=0, max_value=10**9)


# -- identifiers -----------------------------------------------------------


def test_parse_and_str_roundtrip():
    for text in ("S", "Cw", "C", "Dw", "D", "Rw", "R", "D^d", "D^R", "Rw^D"):
        assert str(SubsetSystemId.parse(text)) == text
    assert as_system("Dω") == SubsetSystemId("Dw")
    assert as_system(SubsetSystemId("R")) == SubsetSystemId("R")


def test_parse_rejects_unknown_and_stacked():
    with pytest.raises(MissingSystem):
        SubsetSystemId.parse("Q")
    with pytest.raises(MissingSystem):
        SubsetSystemId.parse("D^q")
    with pytest.raises(MissingSystem):
        SubsetSystemId.parse("")
    with pytest.raises(UnsupportedDepth):
        SubsetSystemId.parse("D^R^d")


def test_base_core_and_countable_tag():
    assert SubsetSystemId("Dw").base_core == "D"
    assert SubsetSystemId("Rw", "d").base_core == "R"


def test_refines_is_reflexive_and_matches_membership(all_posets):
    for H in BASE_IDS:
        assert H.refines(H) is True
    # whenever refines says True, membership inclusion must hold everywhere
    for H1 in ALL_IDS:
        for H2 in ALL_IDS:
            if H1.refines(H2) is not True:
                continue
            for n in (1, 2, 3):
                for X in all_posets[n]:
                    for m in range(1, X.full + 1):
                        if h_member(H1, X, m):
                            assert h_member(H2, X, m), (str(H1), str(H2))


def test_refines_chain_examples():
    assert as_system("S").refines(as_system("R")) is True
    assert as_system("Cw").refines(as_system("D")) is True
    assert as_system("R").refines(as_system("S")) is None
    assert as_system("D^d").refines(as_system("R")) is True
    assert as_system("D^d").refines(as_system("D^D")) is True
    assert as_system("D").refines(as_system("D^R")) is True


# -- membership against the raw oracles ------------------------------------


def test_h_member_matches_oracle_exhaustively(all_posets):
    for n in (1, 2, 3, 4):
        for X in all_posets[n]:
            for m in range(1, X.full + 1):
                for core in CORES:
                    assert h_member(core, X, m) == oracles.h_member(core, X, m)
                # countable tags collapse onto their cores on a finite space
                assert h_member("Cw", X, m) == h_member("C", X, m)
                assert h_member("Dw", X, m) == h_member("D", X, m)
                assert h_member("Rw", X, m) == h_member("R", X, m)
                # every derived system collapses to the irreducible sets
                want = oracles.irreducible(X, m)
                for d in ("d", "R", "D"):
                    assert h_member(f"D^{d}", X, m) == want
                    assert h_member(f"S^{d}", X, m) == want


def test_h_member_rejects_empty():
    X = random_space(random.Random(0), max_points=4)
    with pytest.raises(EmptySet):
        h_member("D", X, 0)


@pytest.mark.parametrize("fault", [None, "rows not antisymmetric", "closure row not a down-set"])
def test_member_forms_match_the_definitional_oracles(monkeypatch, all_posets, fault):
    # the 87 classes of at most 5 points and three seeded 8-point spaces
    docs = [X.to_doc() for n in sorted(all_posets) for X in all_posets[n]]
    rng = random.Random(29)
    while len(docs) < 90:
        X = random_space(rng, max_points=8)
        if X.n == 8:
            docs.append(X.to_doc())
    definitions = {"C": oracles.chain, "D": oracles.directed, "R": oracles.irreducible}
    if fault is not None:
        mutants.FAULTS[fault](monkeypatch)
        # C and D read only the up rows, as the oracles do, so on corrupted
        # rows they still agree; R reads the closure and greatest element
        # of the kernel, whose down rows the faults corrupt
        del definitions["R"]
    for doc in docs:
        X = parse_space(doc)
        for core, definition in definitions.items():
            for m in range(1, X.full + 1):
                assert systems._member(core, X, m) == definition(X, m), (doc, core, m)


def test_membership_fronts_validate_then_agree_with_the_member_forms(all_posets, diamond):
    other = parse_space(diamond.to_doc())
    for front in (is_directed, is_irreducible, chain_core, lambda X, A: h_member("C", X, A)):
        for empty in (0, PointSet(diamond, 0)):
            with pytest.raises(EmptySet):
                front(diamond, empty)
        with pytest.raises(UsageError):
            front(diamond, diamond.full + 1)
        with pytest.raises(SpaceMismatch):
            front(diamond, PointSet(other, 1))
    for X in [X for n in sorted(all_posets) for X in all_posets[n]]:
        for m in range(1, X.full + 1):
            A = PointSet(X, m)
            assert is_directed(X, A) == systems._member("D", X, m)
            assert is_irreducible(X, A) == systems._member("R", X, m)
            for core in CORES:
                assert h_member(core, X, A) == systems._member(core, X, m)
            if systems._member("D", X, m):
                assert chain_core(X, A).mask == 1 << X.top_of(m)
            else:
                with pytest.raises(NotDirected):
                    chain_core(X, A)


def test_h_closed_members_match_oracle(all_posets):
    for n in (1, 2, 3, 4):
        for X in all_posets[n]:
            for core in CORES:
                want = [
                    d
                    for d in oracles.downsets(X)
                    if d and oracles.h_member(core, X, d)
                ]
                assert sorted(h_closed_members(X, core)) == want


# -- families of compacts --------------------------------------------------


def test_family_masks_validation(diamond):
    with pytest.raises(EmptyFamily):
        family_masks(diamond, [])
    with pytest.raises(EmptyMember):
        family_masks(diamond, [0])
    with pytest.raises(UsageError):
        family_masks(diamond, [diamond.mask_of(["bot"])])  # not saturated
    ks = [diamond.sat_mask(1 << i) for i in range(diamond.n)]
    masks = family_masks(diamond, ks + ks)
    assert masks == sorted(set(masks), key=lambda m: (m.bit_count(), m))


def test_h_family_member_matches_raw_smyth_membership(all_posets):
    # each family is decided warm, on a space whose memo holds the orders
    # of the families before it, and cold, on a fresh copy.  The raw
    # irreducibility oracle lists every subset of the Smyth carrier, so at
    # four points it runs where |K(X)| <= 10
    for n in (1, 2, 3, 4):
        for X in all_posets[n]:
            ks, S = oracles.smyth_space(X)
            if len(ks) > 10:
                continue
            warm = FiniteSpace(X.labels, X.up)
            idx = {k: i for i, k in enumerate(ks)}
            for r in (1, 2, 3):
                for fam in combinations(ks, r):
                    fm = 0
                    for k in fam:
                        fm |= 1 << idx[k]
                    for core in CORES:
                        cold = h_family_member(core, FiniteSpace(X.labels, X.up), list(fam))
                        assert h_family_member(core, warm, list(fam)) == cold == \
                            oracles.h_member(core, S, fm), (core, fam)


def test_family_membership_on_the_diamond(diamond):
    X = diamond
    top = X.sat_mask(1 << X.index("top"))
    left = X.sat_mask(1 << X.index("l"))
    right = X.sat_mask(1 << X.index("r"))
    full = X.full
    assert h_family_member("S", X, [top])
    assert not h_family_member("S", X, [top, left])
    assert h_family_member("C", X, [top, left, full])
    assert not h_family_member("C", X, [left, right])
    # filtered but not a chain
    assert h_family_member("D", X, [left, right, top])
    assert not h_family_member("D", X, [left, right])
    # least member under inclusion makes it Smyth-irreducible
    assert h_family_member("R", X, [left, right, top])
    assert h_family_member("D^d", X, [left, right, top])


def test_family_membership_reads_no_set_labels():
    # unescaped, the points a and b and the point "a,b" would have the
    # same set label "{a,b}"; a family's order has escaped set labels, so
    # its membership is decided
    X = parse_space({"points": ["a", "b", "a,b"], "covers": []})
    fam = [X.mask_of(["a", "b"]), X.mask_of(["a,b"])]
    assert [h_family_member(core, X, fam) for core in CORES] == [False] * 4
    assert [h_family_member(core, X, [fam[0], X.full]) for core in CORES] == [False, True, True, True]


# -- minimal meeting closed sets -------------------------------------------


def family_pool(X, r_max=2):
    ks = [u for u in X.upsets() if u]
    for r in range(1, r_max + 1):
        yield from combinations(ks, r)


def test_m_family_matches_powerset_oracle(all_posets):
    for n in (1, 2, 3, 4):
        for X in all_posets[n]:
            for fam in family_pool(X):
                got = [c.mask for c in m_family(X, list(fam))]
                assert got == oracles.minimal_meeting_closed(X, fam)


def test_rudin_minimal_lands_in_m_and_below_start(all_posets, corpus):
    pool = [X for n in (2, 3, 4) for X in all_posets[n]] + corpus[:40]
    for X in pool:
        for fam in list(family_pool(X))[:12]:
            mins = {c.mask for c in m_family(X, list(fam))}
            got = rudin_minimal(X, list(fam), X.full)
            assert got.mask in mins
            assert all(got.mask & k for k in fam)
            assert meets_all(X, list(fam), got.mask)


def test_rudin_minimal_requires_a_meeting_start(diamond):
    top = diamond.sat_mask(1 << diamond.index("top"))
    only_bot = 1 << diamond.index("bot")
    with pytest.raises(NotInM):
        rudin_minimal(diamond, [top], only_bot)
    with pytest.raises(UsageError):
        rudin_minimal(diamond, [top], top)  # up-set, not closed


def test_rudin_witness_and_recheck(diamond, anti3):
    w = rudin_witness("D", diamond, diamond.mask_of(["l"]))
    assert isinstance(w, RudinWitness) and w.recheck()
    assert w.minimal_set == diamond.closure_mask(diamond.mask_of(["l"]))
    assert rudin_witness("D", anti3, anti3.full) is None
    tampered = RudinWitness(w.system, w.space, w.family, diamond.full)
    assert not tampered.recheck()
    j = w.to_json()
    assert j["system"] == "D" and "minimal_set" in j


# -- per-instance property checks ------------------------------------------


def test_property_m_and_q_hold_on_small_spaces(all_posets):
    for n in (2, 3, 4):
        for X in all_posets[n]:
            for fam in family_pool(X):
                for core in CORES:
                    if not h_family_member(core, X, list(fam)):
                        continue
                    assert property_m_instance(core, X, list(fam), X.full)
                    # Q needs the meeting set to contain a closed member of
                    # the system; point closures supply one for D and R,
                    # nothing does in general for S and C
                    if core in ("D", "R"):
                        assert property_q_instance(core, X, list(fam), X.full)


def test_property_q_fails_honestly_for_rigid_systems(diamond):
    from t0lab import parse_space

    two = parse_space({"points": ["a", "b"], "covers": [["a", "b"]]})
    topf = two.sat_mask(1 << two.index("b"))
    # no closed singleton meets up(b): the only closed point is a
    assert not property_q_instance("S", two, [topf], two.full)
    # no closed chain of the diamond contains its top
    dtop = diamond.sat_mask(1 << diamond.index("top"))
    assert not property_q_instance("C", diamond, [dtop], diamond.full)
    assert property_q_instance("D", diamond, [dtop], diamond.full)


def test_property_instances_validate_preconditions(diamond):
    left = diamond.sat_mask(1 << diamond.index("l"))
    right = diamond.sat_mask(1 << diamond.index("r"))
    with pytest.raises(PreconditionViolated):
        property_m_instance("S", diamond, [left, right], diamond.full)
    with pytest.raises(NotInM):
        property_m_instance("S", diamond, [left], 1 << diamond.index("bot"))
    with pytest.raises(UsageError):
        property_q_instance("S", diamond, [left], left)  # not closed


# -- the member tables -----------------------------------------------------


def _shape(kind: str, n: int):
    p = [f"p{i}" for i in range(n)]
    if kind == "chain":
        covers = [[p[i], p[i + 1]] for i in range(n - 1)]
    elif kind == "fence":
        covers = [[p[i], p[i + 1]] if i % 2 == 0 else [p[i + 1], p[i]] for i in range(n - 1)]
    elif kind == "tree":  # binary tree, root on top
        covers = [[p[c], p[(c - 1) // 2]] for c in range(1, n)]
    else:
        covers = []
    return parse_space({"points": p, "covers": covers})


def test_member_tables_match_the_raw_scan(all_posets):
    rng = random.Random(18)
    spaces = [X for n in sorted(all_posets) for X in all_posets[n]]
    spaces += [random_space(rng, max_points=10) for _ in range(200)]
    spaces += [_shape(kind, n) for kind in ("chain", "fence", "tree", "antichain") for n in (9, 10, 12)]
    assert len(spaces) == 299 and max(X.n for X in spaces) == 12
    for X in spaces:
        for core in CORES:
            raw = [m for m in range(1, X.full + 1) if systems._member(core, X, m)]
            assert systems._h_members(X, core) == raw, (X.to_doc(), core)


@pytest.mark.parametrize("fault", ["rows not antisymmetric", "closure row not a down-set"])
def test_member_tables_are_listed_on_corrupted_rows(monkeypatch, all_posets, fault):
    docs = [X.to_doc() for n in (2, 3, 4) for X in all_posets[n]]
    docs += [_shape(kind, 9).to_doc() for kind in ("chain", "fence", "tree")]
    mutants.FAULTS[fault](monkeypatch)
    # each walk drops the point it adds, so it ends whatever the rows say
    for doc in docs:
        X = parse_space(doc)
        for core in CORES:
            table = systems._h_members(X, core)
            assert table == sorted(set(table)) and all(0 < m <= X.full for m in table)


# -- the Scott-style open system -------------------------------------------


def test_scott_h_open_matches_oracle(all_posets):
    for n in (1, 2, 3):
        for X in all_posets[n]:
            for U in range(X.full + 1):
                for core in CORES:
                    assert scott_h_open(core, X, U) == \
                        oracles.scott_h_open(core, X, U)


def test_scott_h_open_cap(diamond):
    # the cap holds whatever the cache state, also over a member table
    # that is already built
    config = RunConfig(caps=Caps(subset_enum=2))
    with pytest.raises(CapExceeded):
        scott_h_open("D", diamond, diamond.full, config)
    for core in CORES:
        assert systems._h_members(diamond, core)
        with pytest.raises(CapExceeded):
            scott_h_open(core, diamond, diamond.full, config)
        with pytest.raises(CapExceeded):
            scott_h_continuous(core, diamond, diamond, list(range(diamond.n)), config)


def test_scott_checks_read_the_member_table_of_check_all(monkeypatch):
    # check_all fills the table of every core, so neither check calls the
    # membership predicate again
    X = parse_space({"points": list("abcdef"), "covers": [["a", "c"], ["b", "c"], ["c", "d"], ["e", "f"]]})
    check_all(X)
    calls = []
    member = systems._member
    monkeypatch.setattr(systems, "_member", lambda *args: calls.append(args) or member(*args))
    for core in CORES:
        for U in (X.full, X.up[X.index("c")], X.up[X.index("a")]):
            scott_h_open(core, X, U)
        scott_h_continuous(core, X, X, list(range(X.n)))
    assert calls == []


def test_scott_h_continuous_examples(diamond):
    chain = random_space(random.Random(3), max_points=1)
    labels = ["a", "b"]
    two = parse_space({"points": labels, "covers": [["a", "b"]]})
    assert scott_h_continuous("D", two, two, {"a": "a", "b": "b"})
    # the flip fails to preserve the sup of the whole chain
    assert not scott_h_continuous("D", two, two, {"a": "b", "b": "a"})
    # singleton system only constrains sups of points, any table passes
    assert scott_h_continuous("S", two, two, {"a": "b", "b": "a"})
    with pytest.raises(UsageError):
        scott_h_continuous("D", two, two, [0, 5])
    assert chain.n == 1  # fixture sanity


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_monotone_maps_are_singleton_continuous(seed):
    rng = random.Random(seed)
    X = random_space(rng, max_points=5)
    Y = random_space(rng, max_points=5, prefix="q")
    table = [rng.randrange(Y.n) for _ in range(X.n)]
    assert scott_h_continuous("S", X, Y, table)
