import dataclasses
import json
import random
from collections import Counter

import pytest

import mutants
import oracles
from t0lab import check, check_all, checkers, construct, crosscheck_h_sober, crosscheck_super, enumerate_posets, parse_space, powers, random_space, systems
from t0lab.checkers import (
    PROPERTY_IDS,
    Verdict,
    upper_topology_report,
    validate_evidence,
)
from t0lab.config import Caps, RunConfig
from t0lab.errors import CapExceeded, MissingSystem, UsageError
from t0lab.spaces import FiniteSpace, bits
from t0lab.systems import BASE_IDS

CORES = ("S", "C", "D", "R")
H_PROPS = (
    "h_sober",
    "super_h_sober",
    "h_complete",
    "h_bounded",
    "hip",
    "smyth_h_complete",
    "h_consonant",
)


def active_values(v: Verdict) -> list[str]:
    return [val for _, val in v.characterizations if val in ("true", "false")]


# -- argument handling -----------------------------------------------------


def test_property_ids_are_complete():
    # the CLI's --property choices, in the order check_all reads them
    assert PROPERTY_IDS == (
        "t0", "d_space", "sober", "well_filtered", "omega_well_filtered", "h_sober", "super_h_sober",
        "h_complete", "h_bounded", "hip", "smyth_h_complete", "h_consonant", "locally_hypercompact",
    )
    for p in H_PROPS:
        assert p in PROPERTY_IDS


def test_check_argument_validation(sier):
    with pytest.raises(UsageError):
        check(sier, "frobnicated")
    with pytest.raises(MissingSystem):
        check(sier, "h_sober")
    with pytest.raises(UsageError):
        check(sier, "sober", "D")


# -- the finite collapse, against the raw oracles --------------------------


def test_plain_verdicts_match_raw_oracles(all_posets):
    for n in (1, 2, 3, 4):
        for X in all_posets[n]:
            assert check(X, "sober").holds == oracles.sober(X)
            assert check(X, "d_space").holds == oracles.d_space(X)
            ks = oracles.compacts(X)
            if len(ks) <= 10:
                assert check(X, "well_filtered").holds == oracles.well_filtered(X)


def test_h_sober_verdicts_match_raw_oracle(all_posets):
    for n in (1, 2, 3, 4):
        for X in all_posets[n]:
            for core in CORES:
                assert check(X, "h_sober", core).holds == oracles.h_sober(X, core)


def test_super_verdicts_match_raw_oracle(all_posets):
    for n in (1, 2, 3):
        for X in all_posets[n]:
            for core in CORES:
                assert check(X, "super_h_sober", core).holds == \
                    oracles.super_h_sober(X, core)
    # at four points the irreducible-family quantifier gets expensive;
    # the cheap pairwise cores still run raw
    for X in all_posets[4]:
        if len(oracles.compacts(X)) > 10:
            continue
        for core in ("S", "C", "D"):
            assert check(X, "super_h_sober", core).holds == \
                oracles.super_h_sober(X, core)


def test_every_property_holds_on_small_posets(all_posets):
    for n in (1, 2, 3, 4):
        for X in all_posets[n]:
            for v in check_all(X):
                assert v.holds, (X, v.property, v.system)
                assert v.characterizations_agreed, (X, v.property, v.system)
                assert len(active_values(v)) >= 2
                assert validate_evidence(X, v)


def test_check_all_shape(diamond):
    vs = check_all(diamond)
    assert len(vs) == 6 + 7 * 7
    assert [v.property for v in vs[:6]] == [
        "t0", "d_space", "sober", "well_filtered", "omega_well_filtered",
        "locally_hypercompact",
    ]
    assert all(v.system is None for v in vs[:6])
    tail = vs[6:]
    assert {v.property for v in tail} == set(H_PROPS)
    assert {v.system for v in tail} == {str(H) for H in BASE_IDS}


# -- worked evidence -------------------------------------------------------


def test_sierpinski_sober_evidence(sier):
    v = check(sier, "sober")
    assert v.holds and v.characterizations_agreed
    assert v.evidence["generic_points"] == {"{a}": "a", "{a,b}": "b"}
    assert validate_evidence(sier, v)


def test_validate_evidence_rejects_tampering(sier):
    v = check(sier, "sober")
    bogus = Verdict(
        property=v.property,
        system=v.system,
        holds=v.holds,
        characterizations=v.characterizations,
        characterizations_agreed=v.characterizations_agreed,
        evidence={"generic_points": {"{b}": "b"}},
    )
    assert not validate_evidence(sier, bogus)
    swapped = Verdict(
        property=v.property,
        system=v.system,
        holds=v.holds,
        characterizations=v.characterizations,
        characterizations_agreed=v.characterizations_agreed,
        evidence={"generic_points": {"{a,b}": "a"}},
    )
    assert not validate_evidence(sier, swapped)


def _sober_and_dspace_evidence_validates(Y):
    for prop, table in (("sober", "generic_points"), ("d_space", "sups")):
        v = check(Y, prop)
        assert v.evidence[table]
        assert validate_evidence(Y, v)


def test_validate_evidence_reads_product_labels(sier):
    P = construct.product(sier, sier).space
    assert "(a,b)" in P.labels
    _sober_and_dspace_evidence_validates(P)


def test_validate_evidence_reads_smyth_labels(sier):
    Sm = powers.smyth(sier).space
    assert "{a,b}" in Sm.labels
    _sober_and_dspace_evidence_validates(Sm)


def test_validate_evidence_reads_labels_with_commas_and_braces():
    Y = parse_space({"points": ["x,y", "{z}", "x"], "covers": [["x", "x,y"], ["x", "{z}"]]})
    _sober_and_dspace_evidence_validates(Y)
    v = check(Y, "d_space")
    for evidence in (
        {"generic_points": {"{x,y,x}": "x"}},  # the closure of x is {x}
        {"sups": {"{x,y}": "x"}},  # x is below the point x,y
        {"sups": {"{y}": "x,y"}},  # no set of points is written {y}
    ):
        assert not validate_evidence(Y, dataclasses.replace(v, evidence=evidence))


def test_verdict_json_shape(diamond):
    v = check(diamond, "h_sober", "D")
    doc = v.to_json()
    assert doc["property"] == "h_sober" and doc["system"] == "D"
    assert doc["holds"] is True and doc["characterizations_agreed"] is True
    assert all({"name", "value"} == set(c) for c in doc["characterizations"])
    json.dumps(doc)  # JSON-serializable end to end


# -- caching --------------------------------------------------------------


def test_verdicts_are_cached_per_config(diamond):
    a = check(diamond, "sober")
    b = check(diamond, "sober")
    assert a is b
    c = check(diamond, "sober", config=RunConfig(seed=5))
    assert c is not a and c.holds == a.holds


def test_configs_hash_by_value_and_key_the_memo_by_value(diamond):
    # a config's hash is stored when it is built; equal values hash equal
    # however they were made, and one changed cap makes another memo key
    small = Caps().with_(subset_enum=2)
    assert Caps() == Caps() and hash(Caps()) == hash(Caps())
    assert small == Caps(subset_enum=2) and hash(small) == hash(Caps(subset_enum=2))
    assert small.with_(subset_enum=12) == Caps() and hash(small.with_(subset_enum=12)) == hash(Caps())
    assert small != Caps() and repr(small).startswith("Caps(subset_enum=2, family_listing=14,")
    assert RunConfig() == RunConfig(caps=Caps(), seed=0) and hash(RunConfig()) == hash(RunConfig(caps=Caps(), seed=0))
    assert RunConfig(caps=small) != RunConfig() and RunConfig(seed=1) != RunConfig()
    assert {Caps(): "default", small: "small"}[Caps(subset_enum=2)] == "small"
    X = parse_space(diamond.to_doc())
    assert X.memo(("key", small), lambda: "small") == "small"
    assert X.memo(("key", Caps()), lambda: "default") == "default"
    assert X.memo(("key", Caps(subset_enum=2)), lambda: "again") == "small"
    # a verdict built under the small caps is not returned for the default
    cold = check(parse_space(diamond.to_doc()), "d_space").to_json()
    assert check(X, "d_space", None, RunConfig(caps=small)).to_json() != cold
    assert check(X, "d_space").to_json() == cold


def test_paths_shared_per_core_follow_the_caps_in_force(monkeypatch, anti3):
    # Cω's records are C's, computed once per (property, core, config);
    # the config is in the key, so a warm cache built under other caps
    # changes no mode and no value.  Under "_h_members lists every mask"
    # the raw families fail the meets that the generator families pass,
    # so a value taken from the other caps would show too.
    small = RunConfig(caps=Caps(subset_enum=2, compact_family_enum=1))
    runs = (("C", RunConfig()), ("Cw", small))
    for faulty in (False, True):
        if faulty:
            mutants.FAULTS["_h_members lists every mask"](monkeypatch)
        doc = anti3.to_doc()
        cold = {(H, config): [check(parse_space(doc), prop, H, config).to_json() for prop in H_PROPS]
                for H, config in runs}
        assert cold[runs[0]] != cold[runs[1]]
        for order in (runs, runs[::-1]):
            X = parse_space(doc)
            for H, config in order:
                assert [check(X, prop, H, config).to_json() for prop in H_PROPS] == cold[H, config], (faulty, H)
    hip = {H: cold[H, config][H_PROPS.index("hip")]["characterizations"][0] for H, config in runs}
    assert hip == {"C": {"name": "families have nonempty intersection (exhaustive)", "value": "false"},
                   "Cw": {"name": "families have nonempty intersection (generators)", "value": "true"}}


def _golden_corpus() -> list:
    """The classes of at most 4 points, the six 8-point random spaces of
    the golden records and the 13-point chain."""
    out = [X for n in range(1, 5) for X in enumerate_posets(n)]
    rng = random.Random(7)
    out += [random_space(rng, 8) for _ in range(6)]
    labels = [f"c{i}" for i in range(13)]
    return out + [parse_space({"points": labels, "covers": [[a, b] for a, b in zip(labels, labels[1:])]})]


def test_countable_records_are_their_cores_renamed():
    # on a finite carrier Cω = C, Dω = D and Rω = R; each countable
    # system's records, computed cold on a space of its own, are those
    # check_all and the batteries give its core, with only the system
    # renamed
    modes = {f"({name})" for name in checkers._MODE_NAMES.values()}
    for X in _golden_corpus():
        core = {}
        for v in check_all(X):
            core[v.property, v.system] = v.to_json()
            # a path name's trailing parenthesis names its mode, and only that
            for name, _ in v.characterizations:
                assert not name.endswith(")") or name[name.rindex(" (") + 1:] in modes, name
        for H in ("S", "C", "D", "R"):
            for battery in (crosscheck_h_sober, crosscheck_super):
                core[battery.__name__, H] = battery(X, H).to_json()
        doc = X.to_doc()
        for H, base in (("Cw", "C"), ("Dw", "D"), ("Rw", "R")):
            for prop in H_PROPS:
                got = check(parse_space(doc), prop, H).to_json()
                assert got == {**core[prop, base], "system": H}, (doc, prop, H)
            for battery in (crosscheck_h_sober, crosscheck_super):
                got = battery(parse_space(doc), H).to_json()
                assert got == {**core[battery.__name__, base], "system": H}, (doc, battery, H)


def test_each_h_verdict_is_computed_once_per_core(monkeypatch, diamond, corpus):
    # check_all asks for seven systems over four S/C/D/R cores; each
    # H-parameterized implementation runs once per core on the space,
    # and the batteries and the derived systems add no run
    for doc in (diamond.to_doc(), corpus[3].to_doc()):
        X = parse_space(doc)
        runs = Counter()
        for prop in H_PROPS:
            impl = checkers._IMPLS[prop]

            def counted(Y, H, config, prop=prop, impl=impl):
                if Y is X:
                    runs[prop, str(H)] += 1
                return impl(Y, H, config)

            monkeypatch.setitem(checkers._IMPLS, prop, counted)
        check_all(X)
        for H in (*BASE_IDS, "D^d", "S^R"):
            crosscheck_h_sober(X, H)
            crosscheck_super(X, H)
        assert runs == Counter({(prop, H): 1 for prop in H_PROPS for H in CORES}), doc
        monkeypatch.undo()


def test_derived_systems_run_the_irreducible_battery(diamond, anti3):
    # every derived system is decided as R, so its battery is R's,
    # "Smyth power space is sober" included, whatever its base
    for X in (diamond, anti3):
        R = [crosscheck_h_sober(X, "R"), crosscheck_super(X, "R")]
        for H in ("D^d", "S^R", "Cw^D"):
            got = [crosscheck_h_sober(X, H), crosscheck_super(X, H)]
            assert got == [dataclasses.replace(r, system=H) for r in R]
        assert [n for n, _ in R[1].conditions][-1] == "Smyth power space is sober"


def test_h_sober_battery_draws_its_cuts_above_the_listing_and_the_budget(monkeypatch):
    # 12 closed S-members against the 4,096 closed sets of a 12-point
    # antichain exceed the cut budget, so each member meets 4 drawn closed
    # sets; a 15-point chain is above family_listing, so its closed sets
    # are not listed and the cuts are closures of drawn masks
    anti = parse_space({"points": [f"a{i}" for i in range(12)], "covers": []})
    labels = [f"c{i}" for i in range(15)]
    chain = parse_space({"points": labels, "covers": [[a, b] for a, b in zip(labels, labels[1:])]})
    assert 12 * len(anti.downsets()) > checkers._CUT_EQUATION_PAIRS
    assert chain.n > RunConfig().caps.family_listing
    draws = Counter()
    randbelow = checkers._randbelow
    monkeypatch.setattr(checkers, "_randbelow", lambda g, n: draws.update([n]) or randbelow(g, n))
    for X, H in ((anti, "S"), (chain, "C")):
        doc = X.to_doc()
        reports = {h: crosscheck_h_sober(parse_space(doc), h) for h in (H, "C", "Cw")}
        for r in reports.values():
            assert r.agreed and all(v is True for _, v in r.conditions), r
        assert reports["Cw"] == dataclasses.replace(reports["C"], system="Cw")
    # the antichain's members drew their cuts from the listed closed sets;
    # the chain's were not listed
    assert set(draws) == {len(anti.downsets())}


def test_filtration_paths_are_skipped_above_the_compact_family_cap(diamond):
    # a family built to hold its own meet passes the filtration whatever
    # the kernel does, so above the cap the path is skipped, not computed
    config = RunConfig(caps=Caps(compact_family_enum=0))
    for prop, name in (("well_filtered", "filtered families"), ("omega_well_filtered", "descending chains")):
        v = check(diamond, prop, config=config)
        assert v.characterizations[0] == (name, "skipped: compact families above enumeration cap")
        assert len(active_values(v)) == 2
        assert v.holds and v.characterizations_agreed


def test_super_compact_filtration_is_skipped_above_the_compact_family_cap(diamond):
    # each generator family starts at its own meet, so the filtration over
    # generators would hold by construction
    config = RunConfig(caps=Caps(compact_family_enum=0))
    for H in BASE_IDS:
        v = check(diamond, "super_h_sober", H, config)
        assert v.characterizations[1] == ("compact filtration", "skipped: compact families above enumeration cap")
        assert len(active_values(v)) == 3
        assert v.holds and v.characterizations_agreed
    assert check(diamond, "super_h_sober", "D").characterizations[1] == ("compact filtration (exhaustive)", "true")


def test_subset_quantifiers_are_sampled_above_the_subset_cap(diamond):
    # the exhaustive paths read the memoized member lists, which
    # caps.subset_enum bounds
    config = RunConfig(caps=Caps(subset_enum=0))
    v = check(diamond, "d_space", config=config)
    assert v.characterizations[0] == (
        "directed sets have sups with principal closures", "skipped: carrier above enumeration cap")
    assert v.characterizations[2] == ("chain closures are principal (sampled)", "true")
    verdicts = [v]
    for prop in ("h_complete", "h_bounded"):
        for H in BASE_IDS:
            v = check(diamond, prop, H, config)
            assert v.characterizations[0][0].endswith("(sampled)"), v.characterizations
            verdicts.append(v)
    for v in verdicts:
        assert len(active_values(v)) >= 2
        assert v.holds and v.characterizations_agreed


def test_checker_paths_draw_only_above_the_subset_cap(monkeypatch, diamond, corpus):
    # within caps.subset_enum the split, neighbourhood filtration,
    # under-the-top, d_space and saturation paths read every closure,
    # member or mask and seed no generator; above it they draw, and
    # h_sober stays its core's record.  The Smyth spaces that nested
    # verdicts read fit the cap too
    seeded = Counter()
    rng = checkers._rng
    monkeypatch.setattr(checkers, "_rng", lambda config, *parts: seeded.update([parts[0]]) or rng(config, *parts))
    small = RunConfig(caps=Caps(subset_enum=2))
    names = {
        "sober": ["irreducible closed sets have unique generic points", "incomparable-pair split certificates",
                  "closures: generic point or split (sampled)"],
        "h_sober": ["closed members are point closures (exhaustive)", "incomparable-pair split certificates",
                    "closures: generic point or split (sampled)", "neighborhood filtration on members (sampled)"],
        "h_bounded": ["every member has an upper bound (sampled)",
                      "members sit under the top of their closure (sampled)"],
        "d_space": ["directed sets have sups with principal closures",
                    "incomparable-pair scan with directed closures (sampled)",
                    "chain closures are principal (sampled)"],
        "locally_hypercompact": ["least neighborhoods are principal filters",
                                 "saturations contain principal filters (sampled)"],
    }
    tags = {"split", "hsober", "hbounded2", "dspace", "lhc"}
    five = next(X for X in corpus if X.n == 5 and len(X.nonempty_upsets()) <= Caps().subset_enum)
    for doc in (diamond.to_doc(), five.to_doc()):
        seeded.clear()
        X = parse_space(doc)
        check_all(X)
        for H in BASE_IDS:
            crosscheck_h_sober(X, H)
            crosscheck_super(X, H)
        assert not tags & set(seeded), (doc, seeded)
        for prop, want in names.items():
            for H in (BASE_IDS if prop in H_PROPS else (None,)):
                v = check(X, prop, H, small)
                assert [n for n, _ in v.characterizations] == want, (doc, prop, H)
                assert v.holds and v.characterizations_agreed
        assert tags <= set(seeded)
        assert check(parse_space(doc), "h_sober", "Cw", small) == \
            dataclasses.replace(check(X, "h_sober", "C", small), system="Cw")


def test_listing_paths_are_skipped_above_the_family_listing_cap(diamond):
    # closed- and open-set listings obey caps.family_listing; a skipped
    # path keeps the name it has when computed
    config = RunConfig(caps=Caps(family_listing=0))
    expected = {
        ("sober", None): ["irreducible closed sets have unique generic points"],
        ("h_sober", "D"): ["closed members are point closures (exhaustive)"],
        ("locally_hypercompact", None): [],
    }
    for (prop, H), names in expected.items():
        v = check(diamond, prop, H, config)
        assert [n for n, val in v.characterizations if val.startswith("skipped")] == names
        assert len(active_values(v)) >= 2
        assert v.holds and v.characterizations_agreed
    assert check(diamond, "sober").characterizations[0] == (
        "irreducible closed sets have unique generic points", "true")
    # the compacts are a listing of open sets too
    with pytest.raises(CapExceeded, match="needs carrier <= 0, got 4"):
        check(diamond, "well_filtered", config=config)


# -- crosschecks -----------------------------------------------------------


def test_crosschecks_agree_everywhere_small(all_posets):
    for n in (1, 2, 3, 4):
        for X in all_posets[n]:
            for H in BASE_IDS:
                r1 = crosscheck_h_sober(X, H)
                assert r1.agreed, (X, str(H), r1.conditions)
                assert len(r1.conditions) == 2
                assert all(v is True for _, v in r1.conditions)
                r2 = crosscheck_super(X, H)
                assert r2.agreed, (X, str(H), r2.conditions)
                assert all(v is True for _, v in r2.conditions)


def test_crosscheck_condition_batteries(diamond):
    r1 = crosscheck_h_sober(diamond, "D")
    assert dict(r1.modes)["members"] == "raw"
    assert [n for n, _ in r1.conditions] == [
        "h_sober",
        "bounded + cut equation [closed members x closed]",
    ]
    # the verdict first, then only forms that no super_h_sober path computes
    common = [
        "super_h_sober",
        "equational form over Smyth-closed families",
    ]
    batteries = {
        "S": common,
        "R": common + ["Smyth power space is sober"],
        "Dw": common,
    }
    for H, expected in batteries.items():
        assert [n for n, _ in crosscheck_super(diamond, H).conditions] == expected, H
    doc = crosscheck_super(diamond, "R").to_json()
    assert doc["agreed"] is True and doc["property"] == "super_h_sober_characterizations"
    json.dumps(doc)


def test_batteries_read_their_verdicts_agreement(monkeypatch):
    # a verdict that still holds but whose paths disagree fails its battery
    for prop, battery in (("super_h_sober", crosscheck_super), ("h_sober", crosscheck_h_sober)):
        impl = checkers._IMPLS[prop]

        def dissenting(X, H, config, impl=impl):
            paths, evidence = impl(X, H, config)
            return paths + [("injected dissent", False, "")], evidence

        with monkeypatch.context() as m:
            m.setitem(checkers._IMPLS, prop, dissenting)
            X = parse_space({"points": ["a", "b", "c"], "covers": [["a", "c"], ["b", "c"]]})
            v = check(X, prop, "D")
            assert v.holds and not v.characterizations_agreed
            r = battery(X, "D")
            assert dict(r.conditions)[prop] is False
            assert not r.agreed, prop


@pytest.mark.parametrize("fault", [
    "non-monotone sat_mask",  # sat({x, y}) = {x, y}
    "_h_members lists every mask",
    "_psi_ok false",
])
def test_super_battery_detects_injected_faults(monkeypatch, fault):
    docs = [X.to_doc() for X in enumerate_posets(3)]
    mutants.FAULTS[fault](monkeypatch)
    # fresh spaces, so no verdict or family list cached before the fault
    assert any(not crosscheck_super(parse_space(doc), "D").agreed for doc in docs)


def test_compact_meets_path_detects_unsaturated_meets(monkeypatch, anti3):
    # the super battery does not restate smyth_h_complete's compact-meets
    # path, so a meet misread as unsaturated is caught by that path; on
    # the other 3-point spaces the Smyth certification raises first
    mutants.FAULTS["is_up false on pairs"](monkeypatch)
    v = check(parse_space(anti3.to_doc()), "smyth_h_complete", "D")
    assert dict(v.characterizations)["family intersections are compact saturated (exhaustive)"] == "false"


def test_h_sober_battery_cuts_by_closures_of_members(monkeypatch):
    # under S every member is a singleton, whose cut equation holds for any
    # saturation; the closures of the members reach the faulty one
    doc = {"points": ["a", "b", "c"], "covers": [["a", "b"], ["b", "c"]]}
    mutants.FAULTS["non-monotone sat_mask"](monkeypatch)
    r = crosscheck_h_sober(parse_space(doc), "S")
    assert dict(r.conditions)["bounded + cut equation [closed members x closed]"] is False
    assert not r.agreed


def test_kill_table_names_the_paths_a_fault_changes(monkeypatch, diamond):
    docs = [diamond.to_doc()]
    base = mutants.path_values(docs)
    mutants.FAULTS["_cut_identity false"](monkeypatch)
    table = mutants.kill_table(base, {"cut": mutants.path_values(docs)})
    killed = {(prop, path): row["cut"] for prop, rows in table.items() for path, row in rows.items() if row}
    # one row per path whatever its mode, counted over the seven systems
    assert killed == {("super_h_sober", "equational cut identity over closed sets"): 7}
    assert "compact filtration" in table["super_h_sober"]


@pytest.fixture(scope="module")
def kill_tables():
    """The kill tables of the verdict paths and of the battery conditions
    under every fault on the classes of at most 3 points, from one loop."""
    docs = [X.to_doc() for n in range(1, 4) for X in enumerate_posets(n)]
    assert len(docs) == 8
    paths, conditions = {}, {}
    for name, inject in mutants.FAULTS.items():
        with pytest.MonkeyPatch.context() as mp:
            inject(mp)
            paths[name] = mutants.path_values(docs)
            conditions[name] = mutants.condition_values(docs)
    return (mutants.kill_table(mutants.path_values(docs), paths),
            mutants.kill_table(mutants.condition_values(docs), conditions))


def test_every_verdict_path_kills_some_fault(kill_tables):
    # every property holds on every finite T0 space, so a path is worth
    # the faults it catches; each must change its value under one of them
    table, _ = kill_tables
    empty = [(prop, path) for prop, rows in table.items() for path, row in rows.items() if not row]
    assert empty == []


def test_no_battery_condition_restates_a_verdict_path(kill_tables):
    # a battery's first condition is its verdict's agreement record; each
    # later one must kill some fault, and by a kill row that no verdict
    # path has, or it is a path computed again under a new name
    paths, conditions = kill_tables
    path_rows = [row for rows in paths.values() for path, row in rows.items() if path != "(raise)"]
    assert all(list(rows)[0] in PROPERTY_IDS for rows in conditions.values())
    restated = [(battery, name) for battery, rows in conditions.items() for name, row in list(rows.items())[1:]
                if name != "(raise)" and (not row or row in path_rows)]
    assert restated == []


def test_corrupted_spaces_fail_the_paths_that_read_their_rows(monkeypatch):
    doc = {"points": ["a", "b", "c"], "covers": [["a", "b"], ["b", "c"]]}

    def values(prop):
        return [val for _, val in check(parse_space(doc), prop).characterizations]

    with monkeypatch.context() as m:
        mutants.FAULTS["rows not antisymmetric"](m)
        assert values("t0") == ["false", "false"]
    mutants.FAULTS["closure row not a down-set"](monkeypatch)
    assert values("t0") == ["true", "true"]
    assert values("d_space") == ["false", "false", "false"]
    # on a 2-point chain the fault drops a from b's closure row; the chain
    # listing walks the up rows, so the exhaustive path still reads the
    # chain {a, b}, which does not lie under b
    v = check(parse_space({"points": ["a", "b"], "covers": [["a", "b"]]}), "h_bounded", "C")
    assert v.characterizations[1] == ("members sit under the top of their closure (exhaustive)", "false")


def test_d_space_compares_its_table_with_the_raw_scan(monkeypatch, diamond):
    # a member table listed per point has sups by construction, so only
    # the raw scan can see a member the listing lost
    topped = systems._topped
    monkeypatch.setitem(systems._LISTINGS, "D", lambda X: sorted(topped(X))[1:])
    v = check(_fresh(diamond), "d_space")
    assert [val for _, val in v.characterizations] == ["false", "true", "true"]
    assert v.evidence["directed_sets"] == len(systems._h_members(_fresh(diamond), "R")) - 1


# -- per-space tables ------------------------------------------------------


def _fresh(X: FiniteSpace) -> FiniteSpace:
    """The same space with an empty memo."""
    return FiniteSpace(X.labels, X.up)


def _draw_spaces():
    """The 24 classes of at most 4 points, seeded 8-point spaces and a
    31-point Smyth carrier."""
    spaces = [X for n in range(1, 5) for X in enumerate_posets(n)]
    rng = random.Random(5)
    while len(spaces) < 30:
        X = random_space(rng, max_points=8)
        if X.n == 8:
            spaces.append(X)
    anti5 = parse_space({"points": list("abcde"), "covers": []})
    spaces.append(powers.smyth(anti5).space)
    return spaces


@pytest.mark.parametrize("H", ["S", "C", "D", "R", "D^R"])
def test_sampled_h_sets_keep_the_per_sample_draws(H):
    H = systems.as_system(H)
    spaces = _draw_spaces()
    assert len(spaces) == 31 and spaces[-1].n > 16
    # both edge branches of the walk tables are met: a point with an empty
    # strict up-set ends a chain walk, and one with more than 4 points
    # below caps the down-set picks at 4
    assert any(r & (r - 1) == 0 for X in spaces for r in X.up)
    assert any(r.bit_count() > 5 for X in spaces for r in X.down)
    for X in spaces:
        P = _fresh(X)
        # the first call runs on a cold memo, the others on a warm one
        for seed in (0, 1, 0):
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            got = checkers._sampled_h_sets(P, H, got_rng, 40)
            want = oracles.sampled_h_sets(P, H, want_rng, 40)
            assert got == want, (X, H, seed)
            assert got_rng.getstate() == want_rng.getstate(), (X, H, seed)


def test_randbelow_is_randrange_and_refuses_an_empty_range():
    got_rng, want_rng = random.Random(3), random.Random(3)
    for n in [1, 2, 3, 5, 8, 9, 255, 256, 257, 1000]:
        for _ in range(50):
            assert checkers._randbelow(got_rng.getrandbits, n) == want_rng.randrange(n)
    assert got_rng.getstate() == want_rng.getstate()
    for n in (0, -1):
        with pytest.raises(ValueError):
            checkers._randbelow(got_rng.getrandbits, n)


def test_cut_table_gives_the_kernels_cut_equation(corpus):
    values = Counter()
    for X in corpus[:12]:
        sat = checkers._cut_sat(_fresh(X))
        fams = [fam for H in CORES for fam in checkers._families_for(X, systems.as_system(H), RunConfig())[1]]
        fams += [[X.up[a] for a in bits(m)] for m in range(1, X.full + 1)]
        # every mask as a cut, so that failing equations are compared too
        cuts = X.downsets() + list(range(X.full + 1))
        for fam in fams:
            for C in cuts:
                v = checkers._cut_identity(X, fam, [C], sat)
                assert v == checkers._cut_identity(X, fam, [C], X.sat_mask), (X, fam, C)
                values[v] += 1
    assert values[True] and values[False]


def _cut_families(X: FiniteSpace) -> list:
    """The families the two cut callers pass with every closed set as a
    cut: a core's compact families, or the up-sets of the points of each
    member closure, where there are at most 4096 (family, cut) pairs."""
    out = []
    for H in CORES:
        fams = checkers._families_for(X, systems.as_system(H), RunConfig())[1]
        closures = sorted({X.closure_mask(m) for m in systems._h_members(X, H)})
        for fams in (fams, [[X.up[a] for a in bits(c)] for c in closures]):
            if len(fams) * len(X.downsets()) <= 4096:
                out += fams
    return out


def test_cut_rows_give_the_per_cut_equation(monkeypatch, all_posets, corpus):
    # the crit-2 corpus, then the 3-point classes under a saturation fault,
    # so that failing equations are compared too
    spaces = [X for n in sorted(all_posets) for X in all_posets[n]] + corpus
    values = Counter()
    for faulty in (False, True):
        if faulty:
            mutants.FAULTS["non-monotone sat_mask"](monkeypatch)
            spaces = [parse_space(X.to_doc()) for X in all_posets[3]]
        for X in spaces:
            P = _fresh(X)
            sat, closed = checkers._cut_sat(P), P.downsets()
            for fam in _cut_families(P):
                v = checkers._cut_identity(P, fam, closed, sat, True)
                assert v == checkers._cut_identity(P, fam, closed, sat), (X, fam)
                values[faulty, v] += 1
    assert values[False, True] and values[True, False] and not values[False, False]


def test_cut_identity_is_the_full_and_for_any_saturation():
    # the per-cut form stops saturating members at an empty AND; against
    # arbitrary tables (neither monotone nor idempotent) and in any member
    # order it gives the naive AND over every member
    rng = random.Random(11)
    values = Counter()
    for _ in range(400):
        X = random_space(rng, max_points=6)
        table = [rng.getrandbits(X.n) & rng.getrandbits(X.n) for _ in range(X.full + 1)]
        fam = [rng.getrandbits(X.n) for _ in range(rng.randint(1, 5))]
        cuts = [rng.getrandbits(X.n) for _ in range(rng.randint(1, 4))]
        inter = checkers._meet(X, fam)
        want = True
        for C in cuts:
            rhs = X.full
            for k in fam:
                rhs &= table[C & k]
            if table[C & inter] != rhs:
                want = False
        for order in (fam, fam[::-1], rng.sample(fam, len(fam))):
            assert checkers._cut_identity(X, order, cuts, table.__getitem__) == want, (X, fam, cuts)
        # a member whose AND empties before the last member is the stop
        early = any(table[C & fam[0]] == 0 for C in cuts) and len(fam) > 1
        values[want, early] += 1
    assert all(values[v] for v in ((True, True), (True, False), (False, True), (False, False))), values


def test_super_cut_path_saturates_each_mask_once(monkeypatch, corpus):
    sat = FiniteSpace.sat_mask
    calls = Counter()
    counted = [None]

    def counting(self, m):
        if self is counted[0]:
            calls[m] += 1
        return sat(self, m)

    monkeypatch.setattr(FiniteSpace, "sat_mask", counting)
    for X in corpus[:20]:
        for H in ("D", "R"):
            runs = []
            for _ in range(2):
                counted[0] = _fresh(X)
                calls.clear()
                check(counted[0], "super_h_sober", H)
                runs.append(dict(calls))
            # the cut path is the only saturation on X, and the count repeats
            assert runs[0] == runs[1], (X, H)
            assert set(runs[0].values()) <= {1}, (X, H)
            assert len(runs[0]) == len(counted[0].memo("cut_sat", dict)), (X, H)


def test_super_battery_saturates_each_smyth_cut_once(monkeypatch, corpus):
    sat = FiniteSpace.sat_mask
    calls = Counter()
    counted = [None]

    def counting(self, m):
        if self is counted[0]:
            calls[m] += 1
        return sat(self, m)

    monkeypatch.setattr(FiniteSpace, "sat_mask", counting)
    for X in corpus[:20]:
        P = _fresh(X)
        counted[0] = powers.smyth(P, RunConfig()).space
        calls.clear()
        for H in BASE_IDS:
            got = crosscheck_super(P, H).to_json()
            assert got == crosscheck_super(_fresh(X), H).to_json(), (X, H)
        # the seven batteries share the Smyth space's table of cuts
        assert calls and set(calls.values()) == {1}, X
        assert len(calls) == len(counted[0].memo("cut_sat", dict)), X


def test_super_cut_path_reads_a_faulty_kernel(monkeypatch):
    docs = [X.to_doc() for X in enumerate_posets(3)]
    mutants.FAULTS["non-monotone sat_mask"](monkeypatch)
    # fresh spaces, so the table is filled from the faulty kernel
    path = "equational cut identity over closed sets"
    values = [dict(check(parse_space(doc), "super_h_sober", "D").characterizations)[path] for doc in docs]
    assert "false" in values


def _system_json(X, H, config: RunConfig = RunConfig()) -> list:
    """Every verdict for the system H, plain properties included, and the
    super-H-sober battery; each on a fresh copy of X if X is a document."""
    space = (lambda: parse_space(X)) if isinstance(X, dict) else (lambda: X)
    out = [check(space(), p, H if p in H_PROPS else None, config).to_json() for p in PROPERTY_IDS]
    return out + [crosscheck_super(space(), H, config).to_json()]


# each per-mask predicate of a path, with its failing value
_SAMPLED_PREDICATES = {"_generic_or_split": False, "_principal_top": None, "_neighborhood_filtered": False,
                       "_under_top": False}


@pytest.mark.parametrize("fault", [None, "non-monotone sat_mask", *_SAMPLED_PREDICATES])
def test_warm_mask_tables_change_no_verdict(monkeypatch, corpus, fault):
    # a cold space per verdict against one whose per-mask tables were
    # filled by a run under other caps and by the systems checked before;
    # a per-mask predicate made to fail shows a table shared across paths
    if fault in _SAMPLED_PREDICATES:
        monkeypatch.setattr(checkers, fault, lambda X, m: _SAMPLED_PREDICATES[fault])
    elif fault:
        mutants.FAULTS[fault](monkeypatch)
    computed = Counter()
    tables = {}
    missing = checkers._PerMask.__missing__

    def counting(table, m):
        tables[id(table)] = table  # kept, so that no id is reused
        computed[id(table), m] += 1
        return missing(table, m)

    monkeypatch.setattr(checkers._PerMask, "__missing__", counting)
    for doc in [X.to_doc() for X in corpus[:40] if X.n >= 5][:3]:
        warm = parse_space(doc)
        check_all(warm, RunConfig(caps=Caps(subset_enum=2)))
        for H in BASE_IDS[::-1]:
            assert _system_json(warm, H) == _system_json(doc, H), (doc, H, fault)
    # on one space the kernel decides each mask of a table once
    assert computed and set(computed.values()) == {1}, fault


def test_one_open_filtration_is_the_two_open_form():
    # the neighbourhood filtration reads the open ub alone; a second open
    # ub | sat(r) for any saturation table, monotone or not, gives the
    # same value, since it holds whatever member ub holds
    rng = random.Random(23)
    values = Counter()
    for _ in range(400):
        X = random_space(rng, max_points=6)
        table = [rng.getrandbits(X.n) for _ in range(X.full + 1)]
        m = rng.getrandbits(X.n) or 1
        ub = X.ubs_mask(m)
        fam = [X.up[a] for a in bits(m)]
        if rng.random() < 0.5:
            fam += [rng.getrandbits(X.n) for _ in range(rng.randint(1, 3))]
        u1 = ub | table[rng.getrandbits(X.n)]
        one = checkers._filtered(ub, fam, (ub,))
        assert one == checkers._filtered(ub, fam, (ub, u1)), (X, m, fam, u1)
        assert checkers._neighborhood_filtered(X, m) == (X.closure_mask(m) & ub != 0 and one)
        values[one, u1 != ub] += 1
    assert all(values[v] for v in ((True, True), (True, False), (False, True), (False, False))), values


def test_open_filters_are_built_once_per_space(monkeypatch, diamond):
    X = _fresh(diamond)
    phi = powers.phi
    calls = Counter()

    def counting(Y, K):
        if Y is X:
            calls[K] += 1
        return phi(Y, K)

    monkeypatch.setattr(powers, "phi", counting)
    check_all(X)
    # the seven h_consonant verdicts share them
    assert calls == Counter(X.nonempty_upsets())


def test_crosschecks_on_random_corpus(corpus):
    for X in corpus[:30]:
        for H in ("S", "D", "R"):
            assert crosscheck_h_sober(X, H).agreed
            assert crosscheck_super(X, H).agreed


# -- hierarchy by refinement ----------------------------------------------


def test_property_implications_along_the_hierarchy(corpus):
    # h_sober implies completeness implies boundedness; the super form
    # implies the Smyth-side completeness which implies the intersection
    # property (all True on finite spaces, asserted per-verdict anyway)
    for X in corpus[:40]:
        for H in BASE_IDS:
            hs = check(X, "h_sober", H).holds
            hc = check(X, "h_complete", H).holds
            hb = check(X, "h_bounded", H).holds
            assert (not hs or hc) and (not hc or hb)
            sup = check(X, "super_h_sober", H).holds
            sc = check(X, "smyth_h_complete", H).holds
            ip = check(X, "hip", H).holds
            assert (not sup or sc) and (not sc or ip)
            assert not sup or hs


# -- auxiliary reports -----------------------------------------------------


def test_upper_topology_report(all_posets, diamond):
    for X in all_posets[3] + [diamond]:
        for H in ("D", "R"):
            v = upper_topology_report(X, H)
            assert v.holds and v.characterizations_agreed


def test_listed_families_are_the_smyth_members_in_mask_order(all_posets):
    # the raw listing reads the Smyth space's member table; the oracle
    # takes every subfamily of K(X), sorted by (size, mask), in ascending
    # index-mask order, and keeps the members of the raw Smyth space
    # (``oracles.family_h_member``, with that space built once per X)
    rng = random.Random(6)
    sixes = [X for X in (random_space(rng, 6) for _ in range(2000)) if X.n == 6 and len(X.nonempty_upsets()) <= 8]
    small = [X for n in (1, 2, 3, 4) for X in all_posets[n] if len(oracles.compacts(X)) <= 8]
    assert len(small) == 20 and len(sixes) == 22
    for X in small + sixes[:6]:
        raw, S = oracles.smyth_space(X)
        ks = sorted(raw, key=lambda m: (m.bit_count(), m))
        point = [1 << raw.index(k) for k in ks]
        for core in CORES:
            expected = [tuple(ks[i] for i in bits(m)) for m in range(1, 1 << len(ks))
                        if oracles.h_member(core, S, sum(point[i] for i in bits(m)))]
            assert checkers._families_for(X, systems.SubsetSystemId(core), RunConfig()) == ("raw", expected), core


def test_generator_instances_respect_the_callers_caps():
    X = parse_space({"points": list("abcdef"), "covers": []})
    assert checkers._generator_instances(X, RunConfig())
    with pytest.raises(CapExceeded):
        checkers._generator_instances(X, RunConfig(caps=Caps(smyth_carrier=10)))
