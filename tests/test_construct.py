import random

import pytest
from hypothesis import given, settings, strategies as st

import mutants
import oracles
from t0lab import (
    FiniteSpace,
    checkers,
    construct,
    continuous_maps,
    enumerate_posets,
    function_space,
    homeomorphic,
    parse_space,
    powers,
    product,
    random_space,
    reflect,
    universal_property_verify,
)
from t0lab.config import DEFAULT, Caps, RunConfig
from t0lab.construct import (
    _KINDS,
    equalizer,
    functor_laws,
    product_preservation,
    reflection_functor,
    retract_verify,
)
from t0lab.errors import (
    CapExceeded,
    EndpointMismatch,
    InternalError,
    NoHomeomorphism,
    UsageError,
)
from t0lab.spaces import SpaceMap, bits, mask_of_indices

seeds = st.integers(min_value=0, max_value=10**9)

# classes of T0 spaces on 1..6 points up to homeomorphism
POSET_COUNTS = [1, 2, 5, 16, 63, 318]


# -- products --------------------------------------------------------------


def test_product_order_is_componentwise(sier, diamond):
    P = product(sier, diamond)
    X, Y = P.factors
    for i in range(X.n):
        for j in range(Y.n):
            for a in range(X.n):
                for b in range(Y.n):
                    got = P.space.leq(P.pair_index(i, j), P.pair_index(a, b))
                    assert got == (X.leq(i, a) and Y.leq(j, b))
    assert P.left.table[P.pair_index(1, 2)] == 1
    assert P.right.table[P.pair_index(1, 2)] == 2


def test_colliding_product_labels_are_escaped():
    # unescaped, "(a,b,c)" would join both a with "b,c" and "a,b" with c
    X = parse_space({"points": ["a", "a,b"], "covers": []})
    Y = parse_space({"points": ["b,c", "c"], "covers": []})
    P = product(X, Y)
    assert P.space.labels == ("(a,b\\,c)", "(a,c)", "(a\\,b,b\\,c)", "(a\\,b,c)")
    assert product_preservation(X, Y)["ok"]


def test_function_space_labels_are_escaped():
    # unescaped, a -> x, b -> "x,b>x" and a -> "x,b>x", b -> x would both
    # read [a>x,b>x,b>x]
    X = parse_space({"points": ["a", "b"], "covers": []})
    Y = parse_space({"points": ["x", "x,b>x"], "covers": []})
    F = function_space(X, Y)
    assert F.labels == ("[a>x,b>x]", "[a>x,b>x\\,b\\>x]", "[a>x\\,b\\>x,b>x]", "[a>x\\,b\\>x,b>x\\,b\\>x]")


def test_product_with_a_point_is_the_factor(diamond):
    one = parse_space({"points": ["*"], "covers": []})
    P = product(one, diamond)
    assert homeomorphic(P.space, diamond) is not None


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_product_projections_preserve_opens(seed):
    rng = random.Random(seed)
    X = random_space(rng, max_points=4)
    Y = random_space(rng, max_points=4, prefix="q")
    P = product(X, Y)
    for U in X.upsets():
        assert P.space.is_up(P.left.preimage_mask(U))
    for V in Y.upsets():
        assert P.space.is_up(P.right.preimage_mask(V))


# -- map enumeration and function spaces -----------------------------------


def test_continuous_maps_match_raw_enumeration():
    rng = random.Random(13)
    for _ in range(10):
        X = random_space(rng, max_points=4)
        Y = random_space(rng, max_points=3, prefix="q")
        got = [f.table for f in continuous_maps(X, Y)]
        assert got == oracles.continuous_tables(X, Y)


def test_continuous_maps_cap(diamond):
    tight = RunConfig(caps=Caps(map_count=10))
    with pytest.raises(CapExceeded):
        continuous_maps(diamond, diamond, tight)


def test_function_space_carrier_and_order(sier):
    F = function_space(sier, sier)
    maps = continuous_maps(sier, sier)
    assert F.n == len(maps) == 3
    # pointwise order: const-a <= id <= const-b
    tables = [m.table for m in maps]
    ca, ident, cb = tables.index((0, 0)), tables.index((0, 1)), tables.index((1, 1))
    assert F.leq(ca, ident) and F.leq(ident, cb) and not F.leq(cb, ca)


def test_function_space_from_a_point_is_the_target(diamond):
    one = parse_space({"points": ["*"], "covers": []})
    F = function_space(one, diamond)
    assert homeomorphic(F, diamond) is not None


# -- equalizers and retracts ----------------------------------------------


def test_equalizer_of_a_parallel_pair(diamond, sier):
    f = SpaceMap.from_labels(
        diamond, sier, {"bot": "a", "l": "a", "r": "b", "top": "b"}
    )
    g = SpaceMap.from_labels(
        diamond, sier, {"bot": "a", "l": "b", "r": "b", "top": "b"}
    )
    E = equalizer(f, g)
    assert not E.is_empty
    assert set(E.space.labels) == {"bot", "r", "top"}
    assert E.inclusion.is_order_embedding()
    same = equalizer(f, f)
    assert same.space.n == diamond.n


def test_equalizer_can_be_empty(sier):
    const_a = SpaceMap.from_labels(sier, sier, {"a": "a", "b": "a"})
    const_b = SpaceMap.from_labels(sier, sier, {"a": "b", "b": "b"})
    E = equalizer(const_a, const_b)
    assert E.is_empty and E.space is None and E.inclusion is None


def test_equalizer_endpoint_mismatch(sier, diamond):
    f = SpaceMap.identity(sier)
    g = SpaceMap.identity(diamond)
    with pytest.raises(EndpointMismatch):
        equalizer(f, g)


def test_retract_verify(diamond):
    A = diamond.subspace(diamond.mask_of(["bot", "top"]))
    s = SpaceMap.from_labels(A, diamond, {"bot": "bot", "top": "top"})
    r = SpaceMap.from_labels(
        diamond, A, {"bot": "bot", "l": "bot", "r": "bot", "top": "top"}
    )
    rep = retract_verify(s, r)
    assert rep["identity"] and rep["ok"]
    assert all(t["retract"] for t in rep["transfers"].values())
    with pytest.raises(EndpointMismatch):
        retract_verify(s, s)


# -- enumeration up to homeomorphism ---------------------------------------


def test_poset_counts_are_the_known_ones():
    for n, want in enumerate(POSET_COUNTS, start=1):
        assert len(enumerate_posets(n)) == want


def test_enumerated_classes_are_pairwise_distinct():
    classes = enumerate_posets(4)
    for i, X in enumerate(classes):
        for Y in classes[i + 1 :]:
            assert homeomorphic(X, Y) is None


def test_enumerate_posets_bounds():
    with pytest.raises(CapExceeded):
        enumerate_posets(0)
    with pytest.raises(CapExceeded):
        enumerate_posets(8)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_homeomorphic_is_invariant_under_relabeling(seed):
    rng = random.Random(seed)
    X = random_space(rng, max_points=6)
    perm = list(range(X.n))
    rng.shuffle(perm)
    from t0lab.spaces import FiniteSpace, bits as _bits

    up = [0] * X.n
    for i in range(X.n):
        m = 0
        for j in _bits(X.up[i]):
            m |= 1 << perm[j]
        up[perm[i]] = m
    relabeled = FiniteSpace([f"q{i}" for i in range(X.n)], up)
    f = homeomorphic(X, relabeled)
    assert f is not None
    assert f.is_injective() and f.is_order_embedding()
    assert len(set(f.table)) == X.n


def test_homeomorphic_distinguishes_chain_from_antichain(anti3):
    chain = parse_space(
        {"points": ["x", "y", "z"], "covers": [["x", "y"], ["y", "z"]]}
    )
    assert homeomorphic(chain, anti3) is None
    two = parse_space({"points": ["a", "b"], "covers": [["a", "b"]]})
    assert homeomorphic(chain, two) is None  # size mismatch


def test_homeomorphism_failing_its_embedding_check_is_an_internal_error(diamond, monkeypatch):
    # a raise, not an assert, so that python -O keeps the check
    monkeypatch.setattr(SpaceMap, "is_injective", lambda f: False)
    with pytest.raises(InternalError):
        homeomorphic(diamond, diamond)


# -- reflections -----------------------------------------------------------


def test_reflect_kinds_and_unit(diamond):
    for kind in _KINDS:
        refl = reflect(diamond, "R", kind)
        assert refl.kind == kind
        assert refl.unit.is_injective() and refl.unit.is_order_embedding()
        # finite spaces already satisfy every target property, so the
        # reflection changes nothing up to homeomorphism
        assert refl.iso is not None
        assert refl.space.n == diamond.n
        doc = refl.to_json()
        assert doc["kind"] == kind and doc["points"] == diamond.n
    with pytest.raises(UsageError):
        reflect(diamond, "R", "plumbing")


def test_reflect_carrier_is_the_point_closures(all_posets):
    for n in (1, 2, 3, 4):
        for X in all_posets[n]:
            for system in ("D", "R"):
                refl = reflect(X, system)
                assert set(refl.carrier) == {X.down[i] for i in range(X.n)}
                assert refl.iso.table == refl.unit.table


def test_point_closure_carriers_list_no_closed_sets(monkeypatch):
    # the irreducible closed sets are the point closures, so the Hoare
    # space on them, its lifts and the reflection never list the base's
    # closed sets, at any size
    anti = [parse_space({"points": [f"a{i}" for i in range(n)], "covers": []}) for n in (30, 14)]
    downsets = FiniteSpace.downsets

    def refuse(X):
        if any(X is B for B in anti):
            raise AssertionError("the closed sets of a base were listed")
        return downsets(X)

    monkeypatch.setattr(FiniteSpace, "downsets", refuse)
    X = anti[0]
    assert set(powers.hoare(X, "irr_closed").carrier) == set(X.down)
    assert powers.hoare_map(SpaceMap.identity(X), "irr_closed").table == tuple(range(X.n))
    refl = reflect(anti[1])
    assert refl.iso is not None and set(refl.carrier) == set(anti[1].down)


def test_reflect_iso_is_the_unit():
    # two 2-chains listed so that a search for some isomorphism finds
    # another automorphism first
    X = parse_space(
        {"points": ["v0", "v1", "v2", "v3"], "covers": [["v2", "v1"], ["v3", "v0"]]}
    )
    refl = reflect(X)
    assert refl.iso.table == refl.unit.table == (3, 2, 0, 1)
    assert refl.to_json()["iso_to_base"] == {
        "v0": "{v0,v3}", "v1": "{v1,v2}", "v2": "{v2}", "v3": "{v3}"
    }


def test_reflect_runs_no_checker(all_posets, monkeypatch):
    # the reflection is the point-closure space, certified where it is
    # built, so no checker decides its target property again
    def refuse(*args, **kwargs):
        raise AssertionError("reflect ran a checker")

    monkeypatch.setattr(checkers, "check", refuse)
    for X in all_posets[3]:
        for kind in _KINDS:
            refl = reflect(X, "R", kind)
            assert set(refl.carrier) == set(X.down)
            assert refl.unit is powers.hoare_eta(refl.hoare)
            assert refl.iso is refl.unit


def test_universal_property_against_small_targets(diamond):
    refl = reflect(diamond, "R")
    for Y in enumerate_posets(3):
        rep = universal_property_verify(refl, Y)
        assert rep["ok"], rep
        assert rep["maps_checked"] == len(continuous_maps(diamond, Y))


def test_universal_property_single_map(sier, diamond):
    refl = reflect(sier, "D")
    f = SpaceMap.from_labels(sier, diamond, {"a": "bot", "b": "top"})
    rep = universal_property_verify(refl, diamond, f)
    assert rep["ok"] and rep["maps_checked"] == 1
    with pytest.raises(EndpointMismatch):
        universal_property_verify(refl, diamond, SpaceMap.identity(diamond))


def _fresh(X):
    return FiniteSpace(X.labels, X.up)


def _reversed(X):
    # X with its points listed in the opposite order: on a chain the unit
    # into the point closures, which are ordered by size, is then no
    # identity table
    rev = [X.n - 1 - i for i in range(X.n)]
    return FiniteSpace(X.labels[::-1], [mask_of_indices(rev[j] for j in bits(X.up[i])) for i in rev])


def _per_member_extension(refl, Y, table):
    f = SpaceMap._trusted(refl.base, Y, table)
    return tuple(Y.top_of(Y.closure_mask(f.image_mask(m))) for m in refl.carrier)


def test_extension_tables_give_the_generic_point_per_member(all_posets):
    # an extension reads each image's generic point from a table per
    # target; on fresh spaces and after every map of every source has been
    # extended into the same target (the reflections shared by every
    # target), it is the top of each image's closure
    pool = [X for n in (1, 2, 3) for X in all_posets[n]]
    reflections = [reflect(_fresh(X), "R") for X in pool]
    for Y in pool:
        warm = _fresh(Y)
        cases = [(r, SpaceMap(r.base, warm, t).table) for r in reflections for t in oracles.continuous_tables(r.base, warm)]
        for refl, t in cases:
            construct._extend_along_unit(refl, warm, t)
        for refl, t in cases:
            want = _per_member_extension(refl, warm, t)
            assert construct._extend_along_unit(refl, warm, t) == want
            assert construct._extend_along_unit(reflect(_fresh(refl.base), "R"), _fresh(warm), t) == want


def test_universal_property_reports_are_the_per_member_ones(all_posets, monkeypatch):
    # universal_property_verify over map tables returns what the verifier
    # over SpaceMap records returns, and what it returns with each
    # extension computed member by member: for all maps and for each map
    # given, and with the same error for a map of other endpoints
    pool = [X for n in (1, 2, 3) for X in all_posets[n]]
    tight = RunConfig(caps=Caps(map_count=2))

    def reports(verify):
        out = []
        for X in pool + [_reversed(X) for X in pool]:
            for Y in pool:
                refl, Y = reflect(_fresh(X), "R"), _fresh(Y)
                out.append(verify(refl, Y))
                out += [verify(refl, Y, f) for f in continuous_maps(refl.base, Y)]
                stray = SpaceMap.identity(Y)
                with pytest.raises(EndpointMismatch):
                    verify(refl, Y, stray)
                if Y.n ** X.n > 2:
                    # both enumerations are refused before the endpoints are read
                    with pytest.raises(CapExceeded):
                        verify(refl, Y, stray, tight)
        return out

    got = reports(universal_property_verify)
    assert all(r["ok"] for r in got)
    assert reports(oracles.universal_property_records) == got
    monkeypatch.setattr(construct, "_extend_along_unit", _per_member_extension)
    assert reports(universal_property_verify) == got


def test_reflection_functor_laws(sier, diamond, anti3):
    rX, rY, rZ = reflect(sier, "R"), reflect(diamond, "R"), reflect(anti3, "R")
    f = SpaceMap.from_labels(sier, diamond, {"a": "bot", "b": "top"})
    g = SpaceMap.from_labels(
        diamond, anti3, {"bot": "y", "l": "y", "r": "y", "top": "y"}
    )
    lifted = reflection_functor(rX, rY, f)
    assert lifted.source is rX.space and lifted.target is rY.space
    laws = functor_laws(rX, rY, rZ, f, g)
    assert laws["identity"] and laws["composition"]
    with pytest.raises(EndpointMismatch):
        reflection_functor(rY, rX, f)


def test_product_preservation(sier, diamond):
    rep = product_preservation(sier, diamond, "R")
    assert rep["ok"]
    assert rep["reflection_points"] == sier.n * diamond.n
    assert rep["iso"].is_order_embedding()


def test_product_iso_is_the_canonical_map():
    # a relabelled square of the 2-chain, on which a search for some
    # isomorphism picks the factor swap instead of the canonical map
    X = parse_space({"points": ["v0", "v1"], "covers": [["v1", "v0"]]})
    rep = product_preservation(X, X, "R")
    P = product(X, X)
    RP, RX = reflect(P.space), reflect(X)
    RXX = product(RX.space, RX.space)
    canonical = tuple(
        RXX.pair_index(
            RX.hoare.index[X.closure_mask(P.left.image_mask(m))],
            RX.hoare.index[X.closure_mask(P.right.image_mask(m))],
        )
        for m in RP.carrier
    )
    assert rep["iso"].table == canonical == (0, 2, 1, 3)


def test_product_map_failing_its_certificate_raises(sier, diamond, monkeypatch):
    build = construct.product
    calls = []

    def failing_after_reflections(X, Y, config=DEFAULT):
        calls.append(X)
        P = build(X, Y, config)
        if len(calls) == 2:  # the product of the reflections, built last
            monkeypatch.setattr(SpaceMap, "is_order_embedding", lambda f: False)
        return P

    monkeypatch.setattr(construct, "product", failing_after_reflections)
    with pytest.raises(NoHomeomorphism, match=r"A -> \(cl pi1 A, cl pi2 A\)"):
        product_preservation(sier, diamond, "R")
    assert len(calls) == 2


def test_a_refused_product_order_is_an_internal_error(monkeypatch):
    # the componentwise order of two T0 orders is T0, so a NotT0 from the
    # product's own space is a broken kernel, not a user error
    mutants.FAULTS["rows not antisymmetric"](monkeypatch)
    X = parse_space({"points": ["a", "b"], "covers": [["a", "b"]]})
    for build in (product, product_preservation):
        with pytest.raises(InternalError, match="the product order is not T0"):
            build(X, X)


# -- certificates ------------------------------------------------------------


def test_every_construction_certificate_kills_some_fault():
    # a run-time certificate that no injected fault makes the first to
    # raise certifies nothing; none raises with no fault
    table = mutants.certificate_values()
    assert [site for site, row in table.items() if "no fault" in row] == []
    exempt = {
        # homeomorphic is the tests' reference implementation
        "backtracked isomorphism is not an order embedding",
        # reflection_functor's check on the units a caller passes in a
        # Reflection; the package's own units are natural by theorem
        "lift is not natural in the units",
    }
    empty = {site for site, row in table.items() if not row}
    assert empty == exempt, empty
