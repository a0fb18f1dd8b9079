import json

import pytest
from hypothesis import given, settings, strategies as st

import mutants
from t0lab import zoo
from t0lab.errors import UnknownClaim, Unrepresentable
from t0lab.zoo import (
    INF,
    CertificateReport,
    CocountableSet,
    CofiniteSet,
    SPACES,
    johnstone_leq,
    johnstone_truncate,
    list_claims,
    verify_claim,
)

WINDOW = range(0, 26)

finite_sets = st.frozensets(st.integers(min_value=0, max_value=12), max_size=5)
cof_sets = st.tuples(st.booleans(), finite_sets).map(lambda t: CofiniteSet(*t))


def cof_window(a: CofiniteSet) -> frozenset:
    return frozenset(n for n in WINDOW if a.contains(n))


# -- finite/cofinite algebra ----------------------------------------------


@given(cof_sets, cof_sets)
@settings(max_examples=100, deadline=None)
def test_cofinite_ops_agree_with_membership(a, b):
    assert cof_window(a.union(b)) == cof_window(a) | cof_window(b)
    assert cof_window(a.intersect(b)) == cof_window(a) & cof_window(b)
    assert cof_window(a.minus(b)) == cof_window(a) - cof_window(b)
    assert cof_window(a.complement()) == frozenset(WINDOW) - cof_window(a)
    assert a.complement().complement() == a
    # subset_of is exact, not window-limited
    if a.subset_of(b):
        assert cof_window(a) <= cof_window(b)
    if a.finite and not b.finite:
        assert a.subset_of(b) == b.complement().intersect(a).is_empty()
    if not a.finite and b.finite:
        assert not a.subset_of(b)


def test_cofinite_open_closed_semantics():
    empty = CofiniteSet.of()
    assert empty.is_open() and empty.is_closed() and empty.is_empty()
    whole = CofiniteSet.without()
    assert whole.is_open() and whole.is_closed()
    assert CofiniteSet.of(1, 2).is_closed() and not CofiniteSet.of(1, 2).is_open()
    assert CofiniteSet.without(3).is_open() and not CofiniteSet.without(3).is_closed()


@given(cof_sets)
@settings(max_examples=50, deadline=None)
def test_cofinite_json_roundtrip(a):
    assert CofiniteSet.from_json(json.loads(json.dumps(a.to_json()))) == a


def test_cofinite_from_json_rejects_garbage():
    with pytest.raises(Unrepresentable):
        CofiniteSet.from_json({"finite": [1], "cofinite": []})
    with pytest.raises(Unrepresentable):
        CofiniteSet.from_json({"interval": [0, 4]})


# -- countable/cocountable algebra ----------------------------------------

coc_descr = st.tuples(
    st.booleans(),
    st.frozensets(st.integers(min_value=0, max_value=14), max_size=4),
    st.one_of(st.none(), st.integers(min_value=0, max_value=16)),
)
coc_sets = coc_descr.map(lambda t: CocountableSet(*t))


def coc_window(a: CocountableSet) -> frozenset:
    return frozenset(k for k in range(0, 31) if a.contains_token(k))


@given(coc_sets, coc_sets)
@settings(max_examples=120, deadline=None)
def test_cocountable_ops_agree_on_tokens(a, b):
    win = frozenset(range(0, 31))
    assert coc_window(a.union(b)) == coc_window(a) | coc_window(b)
    assert coc_window(a.intersect(b)) == coc_window(a) & coc_window(b)
    assert coc_window(a.minus(b)) == coc_window(a) - coc_window(b)
    assert coc_window(a.complement()) == win - coc_window(a)
    assert a.complement().complement() == a
    if a.subset_of(b):
        assert coc_window(a) <= coc_window(b)
    # countable sets never exhaust the carrier; cocountable never vanish
    if a.is_countable():
        assert not a.complement().is_empty()
    else:
        assert not a.is_empty()


def test_cocountable_normalizes_extras_into_the_tail():
    s = CocountableSet(True, frozenset({3, 4}), 5)
    assert s.tail == 3 and s.extras == frozenset()
    t = CocountableSet(True, frozenset({1, 3}), 4)
    assert t.tail == 3 and t.extras == frozenset({1})
    assert s == CocountableSet.tail_from(3)


def test_cocountable_open_closed_semantics():
    tail = CocountableSet.tail_from(2)
    assert tail.is_closed() and not tail.is_open()
    assert tail.complement().is_open() and not tail.complement().is_closed()
    whole = CocountableSet(False, frozenset(), None)
    assert whole.is_open() and whole.is_closed()
    empty = CocountableSet.of_tokens()
    assert empty.is_empty() and empty.is_open()


def test_cocountable_tail_minus_finite_keeps_a_tail():
    tail = CocountableSet.tail_from(2)
    holes = CocountableSet.of_tokens(3, 5)
    left = tail.minus(holes)
    assert left.is_countable() and left.tail is not None
    for k in range(0, 12):
        assert left.contains_token(k) == (k >= 2 and k not in (3, 5))


@given(coc_sets)
@settings(max_examples=50, deadline=None)
def test_cocountable_json_roundtrip(a):
    assert CocountableSet.from_json(json.loads(json.dumps(a.to_json()))) == a


def test_cocountable_guards():
    with pytest.raises(Unrepresentable):
        CocountableSet(True, frozenset(), -1)
    with pytest.raises(Unrepresentable):
        CocountableSet.from_json({"interval": {}})


# -- the two-coordinate order ----------------------------------------------


def test_johnstone_leq_table():
    assert johnstone_leq((2, 3), (2, 5))
    assert not johnstone_leq((2, 3), (3, 5))
    assert johnstone_leq((2, 3), (5, INF))
    assert not johnstone_leq((2, 7), (5, INF))
    assert johnstone_leq((1, INF), (1, INF))
    assert not johnstone_leq((1, INF), (2, INF))
    assert johnstone_leq((0, 0), (7, INF))


def test_johnstone_order_axioms_on_a_window():
    pts = [(j, k) for j in range(3) for k in (*range(3), INF)]
    for p in pts:
        assert johnstone_leq(p, p)
        for q in pts:
            if johnstone_leq(p, q) and johnstone_leq(q, p):
                assert p == q
            for r in pts:
                if johnstone_leq(p, q) and johnstone_leq(q, r):
                    assert johnstone_leq(p, r)


def test_johnstone_truncation_matches_the_order():
    X = johnstone_truncate(3, 3)
    pts = X._cache["points"]
    assert len(pts) == X.n == 3 * 4  # 3 columns x (0..2 and inf)
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            assert X.leq(i, j) == johnstone_leq(p, q)
    # the infinity row is an antichain
    inf_row = [i for i, (m, n) in enumerate(pts) if n == INF]
    assert len(inf_row) == 3
    for i in inf_row:
        for j in inf_row:
            if i != j:
                assert not X.leq(i, j)
    assert johnstone_truncate(3, 3) is X  # cached


# -- registered claims -----------------------------------------------------


def test_list_claims_is_the_registry():
    claims = list_claims()
    assert len(claims) == 9
    assert ("cofinite_nat", "K_is_all_nonempty") in claims
    assert ("cocountable", "wf_not_sober") in claims
    assert ("johnstone", "is_dcpo_d_space") in claims
    assert all(s in SPACES for s, _ in claims)


def test_every_claim_verifies_and_revalidates():
    for space, claim in list_claims():
        rep = verify_claim(space, claim)
        assert rep.space == space and rep.claim == claim
        if claim in ("wf_not_sober", "is_dcpo_d_space"):
            assert rep.verdict == {"checked_to_depth": 12}
        else:
            assert rep.verdict == "verified"
        assert len(rep.transcript) >= 3
        assert rep.revalidate()
        doc = rep.to_json()
        json.dumps(doc)
        assert doc["claim"] == claim


@pytest.mark.parametrize("space,claim", list_claims())
def test_a_false_fact_refutes_its_claim(monkeypatch, space, claim):
    kind = verify_claim(space, claim).transcript[-1]["fact"]
    monkeypatch.setitem(zoo._FACTS, kind, lambda fact: False)
    rep = verify_claim(space, claim)
    assert rep.verdict == "refuted"
    assert not rep.revalidate()


def test_every_zoo_fact_kills_some_fault():
    # a fact that no fault of the set algebra, the Johnstone order or the
    # kernel can change certifies nothing; each registered kind appears in
    # some transcript and must change under some fault
    table = mutants.kill_table(*mutants.fact_values())["facts"]
    assert set(table) == set(zoo._FACTS)
    empty = [kind for kind, row in table.items() if not row]
    assert empty == [], empty


def test_symbolic_space_objects_are_accepted():
    rep = verify_claim(SPACES["cofinite_nat"], "irr_closed")
    assert rep.verdict == "verified"


def test_unknown_claims_are_rejected():
    with pytest.raises(UnknownClaim):
        verify_claim("moebius", "anything")
    with pytest.raises(UnknownClaim):
        verify_claim("johnstone", "is_a_lattice")


def test_tampered_transcript_is_refutable():
    rep = verify_claim("cofinite_nat", "K_is_all_nonempty")
    bogus = rep.transcript + (
        {"fact": "cofinite.open", "set": {"finite": [1]}},
    )
    tampered = CertificateReport(rep.space, rep.claim, rep.verdict, bogus)
    assert not tampered.revalidate()
