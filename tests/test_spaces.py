import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from t0lab import FiniteSpace, PointSet, checkers, construct, parse_space, powers, random_space, spaces, to_dot
from t0lab.errors import (
    DuplicateLabel,
    EmptySet,
    MalformedDocument,
    NotAlexandroffConsistent,
    NotATopology,
    NotT0,
    SpaceMismatch,
    UsageError,
)
from t0lab.spaces import (
    ClosedSet,
    CompactSat,
    SpaceMap,
    chain_core,
    closure,
    is_directed,
    is_irreducible,
    mask_of_indices,
)

seeds = st.integers(min_value=0, max_value=10**9)


def rand(seed, max_points=6):
    return random_space(random.Random(seed), max_points=max_points)


# -- parsing ---------------------------------------------------------------


def test_parse_covers_and_opens_agree():
    a = parse_space({"points": ["a", "b"], "covers": [["a", "b"]]})
    b = parse_space({"points": ["a", "b"], "opens": [[], ["b"], ["a", "b"]]})
    assert a.up == b.up
    assert a.leq(a.index("a"), a.index("b"))
    assert not a.leq(a.index("b"), a.index("a"))


def test_parse_rejects_duplicate_labels():
    with pytest.raises(DuplicateLabel):
        parse_space({"points": ["a", "a"], "covers": []})
    with pytest.raises(DuplicateLabel):
        parse_space({"points": ["a", "a"], "opens": [[], ["a"]]})


def test_parse_rejects_cycles():
    with pytest.raises(NotT0, match="'a' and 'b' lie in each other's closure"):
        parse_space({"points": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]})
    # through the transitive closure of a longer cycle
    with pytest.raises(NotT0, match="lie in each other's closure"):
        parse_space({"points": ["a", "b", "c"], "covers": [["a", "b"], ["b", "c"], ["c", "a"]]})


def test_parse_rejects_indistinguishable_points():
    with pytest.raises(NotT0):
        parse_space({"points": ["a", "b"], "opens": [[], ["a", "b"]]})


def test_parse_rejects_non_topology():
    with pytest.raises(NotATopology):
        parse_space({"points": ["a", "b"], "opens": [["a"], ["b"], ["a", "b"]]})


def test_parse_error_taxonomy():
    # every parse failure is one SpaceParseError subclass; the defensive
    # Alexandroff check is part of the same family
    from t0lab.errors import SpaceParseError

    for exc in (DuplicateLabel, NotT0, NotATopology, NotAlexandroffConsistent,
                MalformedDocument):
        assert issubclass(exc, SpaceParseError)


def test_parse_rejects_malformed_documents():
    for doc in (
        {},
        {"points": []},
        {"points": ["a"]},
        {"points": ["a"], "covers": [], "opens": [[]]},
        {"points": ["a"], "covers": [["a"]]},
        {"points": ["a"], "covers": [["a", "z"]]},
        {"points": ["a", "b"], "covers": [["a", "a"]]},
        ["a"],
    ):
        with pytest.raises(MalformedDocument):
            parse_space(doc)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_to_doc_roundtrip(seed):
    X = rand(seed)
    Y = parse_space(X.to_doc())
    assert X.labels == Y.labels
    assert X.up == Y.up


def test_cover_pairs_regenerate_the_order():
    X = rand(99, max_points=7)
    covers = [(X.labels[i], X.labels[j]) for i, j in X.cover_pairs()]
    Y = FiniteSpace.from_covers(X.labels, covers)
    assert X.up == Y.up


def _seeded_rows(rng: random.Random) -> tuple[int, ...]:
    """Order rows of a seeded random poset, made wrong in 0-3 places: an
    own bit dropped, a bit added or removed, or a bit past the carrier;
    or, one case in eight, random rows with their own bits."""
    if rng.random() < 0.125:
        n = rng.randint(1, 9)
        return tuple(rng.getrandbits(n) | 1 << i for i in range(n))
    rows = list(random_space(rng, 9).up)
    n = len(rows)
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        i, j = rng.randrange(n), rng.randrange(n)
        kind = rng.randrange(4)
        if kind == 0:
            rows[i] &= ~(1 << i)
        elif kind == 1:
            rows[i] |= 1 << j
        elif kind == 2:
            if j != i:
                rows[i] &= ~(1 << j)
        else:
            rows[i] |= 1 << rng.randint(n, n + 3)
    return tuple(rows)


def _outcome(build):
    try:
        return build()
    except (MalformedDocument, NotT0) as e:
        return type(e), str(e)


def test_order_validation_matches_the_row_by_row_oracle():
    # the constructor's checks on the rows and their transpose raise what
    # the row-by-row checks raise (the first failing check, the lowest
    # offending pair), or build the same down rows
    rng = random.Random(2024)
    seen = set()
    ambiguous = 0
    for _ in range(3000):
        up = _seeded_rows(rng)
        labels = [f"p{i}" for i in range(len(up))]
        want = _outcome(lambda: oracles.order_down_rows(labels, up))
        assert _outcome(lambda: FiniteSpace(labels, up).down) == want, up
        if want[0] is NotT0:
            seen.add("not T0")
            i = int(want[1].split("'")[1][1:])
            ambiguous += sum(1 for j in spaces.bits(up[i]) if j != i and up[j] >> i & 1) > 1
        else:
            seen.add(want[1] if want[0] is MalformedDocument else "valid")
    assert seen == {
        "valid",
        "not T0",
        "order row mentions unknown points",
        "order must be reflexive",
        "order table is not transitive",
    }
    # some first offending point has two partners, so the pair reported matters
    assert ambiguous


# -- order calculus against the raw oracles --------------------------------


def test_closure_and_saturation_match_oracle(all_posets):
    for n in (1, 2, 3, 4):
        for X in all_posets[n]:
            for m in range(X.full + 1):
                assert X.closure_mask(m) == oracles.closure(X, m)
                assert X.sat_mask(m) == oracles.saturation(X, m)


def _random_order(rng, n):
    """A seeded poset on exactly n points whose order does not follow the
    point indices."""
    perm = list(range(n))
    rng.shuffle(perm)
    density = rng.choice([0.15, 0.3, 0.5])
    labels = [f"p{i}" for i in range(n)]
    edges = [
        (labels[perm[i]], labels[perm[j]])
        for i in range(n) for j in range(i + 1, n) if rng.random() < density
    ]
    return FiniteSpace.from_covers(labels, edges)


def _kernel_matches_oracles(X, masks):
    for name, oracle in oracles.KERNEL:
        op = getattr(X, name)
        for m in masks:
            assert op(m) == oracle(X, m), (name, X.n, m)


def test_order_kernel_matches_per_bit_oracles_on_every_mask():
    # every chunk boundary up to two and a half 4-bit chunks
    rng = random.Random(11)
    for n in range(1, 11):
        for _ in range(3):
            X = _random_order(rng, n)
            _kernel_matches_oracles(X, range(X.full + 1))


def test_order_kernel_matches_per_bit_oracles_on_seeded_masks():
    rng = random.Random(12)
    for n in (12, 13, 16, 17, 20):
        for _ in range(3):
            X = _random_order(rng, n)
            masks = [0, X.full] + [rng.getrandbits(n) for _ in range(150)]
            masks += [mask_of_indices(rng.sample(range(n), rng.randint(1, 3))) for _ in range(150)]
            _kernel_matches_oracles(X, masks)


def test_order_kernel_matches_per_bit_oracles_on_a_large_smyth_space():
    X = parse_space({"points": [f"a{i}" for i in range(8)], "covers": []})
    P = powers.smyth(X).space
    assert P.n == 255
    rng = random.Random(13)
    masks = [0, P.full] + [rng.getrandbits(P.n) for _ in range(60)]
    masks += [mask_of_indices(rng.sample(range(P.n), rng.randint(1, 4))) for _ in range(120)]
    masks += [P.up[i] for i in range(0, P.n, 7)] + [P.down[i] for i in range(0, P.n, 7)]
    _kernel_matches_oracles(P, masks)


@pytest.mark.parametrize("n", [64, 65, 67, 286])
def test_join_kernel_gives_the_or_of_rows_on_both_sides_of_its_sparse_test(n):
    # join tables on either side of 64 points, three of them with a padded
    # last chunk; each mask is keyed to whether _join reads it at its set
    # bits (more than 64 points and 8 * popcount < bit_length)
    rng = random.Random(n)
    rows = [rng.getrandbits(n) for _ in range(n)]
    tables = spaces._join_table(rows)
    masks = {0: False}
    for off in (-1, 0, 1):
        # the longest masks where 8 * popcount is bit_length + off
        length = max(k for k in range(9, n + 1) if (k + off) % 8 == 0)
        for _ in range(5):
            rest = rng.sample(range(length - 1), (length + off) // 8 - 1)
            masks[mask_of_indices([length - 1, *rest])] = off == -1 and length > 64
    for i in range(spaces._CHUNK * (len(tables) - 1), n):
        masks[1 << i] = i >= 64
    for _ in range(20):
        masks[rng.getrandbits(64)] = False
        masks[mask_of_indices(rng.sample(range(64), 2))] = False
        masks[rng.getrandbits(n) | 1 << (n - 1)] = False
    assert (True in masks.values()) == (n > 64)
    for m, sparse in masks.items():
        assert (m >= 1 << 64 and 8 * m.bit_count() < m.bit_length()) == sparse, (n, m)
        want = 0
        for i in range(n):
            if m >> i & 1:
                want |= rows[i]
        assert spaces._join(tables, m) == want, (n, m)


@pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 66, 67, 68, 129, 286, 1001, 2047])
def test_join_kernel_reads_dense_masks_by_bytes(n):
    # a dense mask reaching past 64 points is read as bytes, two chunks a
    # byte, with an odd last chunk read alone; against the naive OR over
    # rows, for sparse and dense masks on both sides of 2**64.  Each row
    # has its own bit, so the OR of any rows shows which rows were read
    rng = random.Random(n)
    rows = [1 << i | 1 << rng.randrange(n) for i in rng.sample(range(n), n)]
    tables = spaces._join_table(rows)
    full = (1 << n) - 1
    masks = [0, full, full >> 1, 1 << (n - 1)]
    for _ in range(12):
        masks += [rng.getrandbits(n), rng.getrandbits(n) | 1 << (n - 1)]
        masks.append(mask_of_indices(rng.sample(range(n), min(n, 3))))
    for k in (63, 64, 65, n - 4, n - 1):
        if 0 <= k < n:
            # the bits below k, all set or half of them, and k alone on top
            masks += [(1 << k) - 1, ((1 << k) - 1) & rng.getrandbits(k) | 1 << k, 1 << k]
    masks = [m & full for m in masks]
    kinds = {(m >= 1 << 64, m >= 1 << 64 and 8 * m.bit_count() >= m.bit_length()) for m in masks}
    assert kinds == ({(False, False), (True, False), (True, True)} if n > 64 else {(False, False)})
    for m in masks:
        want = 0
        for i in range(n):
            if m >> i & 1:
                want |= rows[i]
        assert spaces._join(tables, m) == want, (n, m)


def test_downsets_upsets_match_powerset_scan(all_posets):
    for n in (1, 2, 3, 4):
        for X in all_posets[n]:
            assert sorted(X.downsets()) == oracles.downsets(X)
            assert sorted(X.upsets()) == sorted(oracles.upsets(X))
            assert X.nonempty_upsets() == [u for u in X.upsets() if u]


def test_irreducible_matches_split_oracle(all_posets):
    for n in (1, 2, 3, 4):
        for X in all_posets[n]:
            for m in range(X.full + 1):
                got = is_irreducible(X, m) if m else False
                assert got == oracles.irreducible(X, m)
            assert sorted(X.irr_downsets()) == [
                d for d in oracles.downsets(X) if oracles.irreducible(X, d)
            ]


def test_directed_matches_pairwise_oracle(all_posets):
    for n in (1, 2, 3, 4):
        for X in all_posets[n]:
            for m in range(1, X.full + 1):
                assert is_directed(X, m) == oracles.directed(X, m)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_closure_is_a_closure_operator(seed):
    X = rand(seed)
    for m in (0, 1, X.full, X.full >> 1):
        c = X.closure_mask(m)
        assert m & ~c == 0
        assert X.closure_mask(c) == c
    a, b = X.full >> 1, X.full & ~1
    assert X.closure_mask(a | b) == X.closure_mask(a) | X.closure_mask(b)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_down_and_up_families_are_complementary(seed):
    X = rand(seed)
    downs = set(X.downsets())
    assert {X.full & ~d for d in downs} == set(X.upsets())
    for d in downs:
        assert X.is_down(d)
        assert X.is_up(X.full & ~d)


def test_top_of_and_extremes():
    X = parse_space(
        {"points": ["a", "b", "c"], "covers": [["a", "b"], ["a", "c"]]}
    )
    assert X.top_of(1 << X.index("a")) == X.index("a")
    assert X.top_of(X.full) is None
    assert X.max_mask(X.full) == mask_of_indices([X.index("b"), X.index("c")])
    assert X.min_mask(X.full) == 1 << X.index("a")
    assert X.ubs_mask(X.full) == 0


def test_chain_core_is_a_cofinal_chain(diamond):
    m = diamond.full & ~(1 << diamond.index("top"))
    with pytest.raises(UsageError):
        chain_core(diamond, m)  # not directed
    d = diamond.mask_of(["bot", "l", "top"])
    core = chain_core(diamond, d)
    assert core.mask & ~d == 0
    assert diamond.top_of(core.mask) == diamond.index("top")


def test_subspace_restricts_the_order(diamond):
    m = diamond.mask_of(["bot", "l", "top"])
    S = diamond.subspace(m)
    assert S.labels == ("bot", "l", "top")
    assert S.leq(0, 1) and S.leq(1, 2) and not S.leq(2, 0)
    with pytest.raises(EmptySet):
        diamond.subspace(0)


# -- wrapped point sets ----------------------------------------------------


def test_pointset_wrappers_validate(diamond):
    A = PointSet.of(diamond, ["l", "top"])
    assert len(A) == 2 and set(A.labels) == {"l", "top"}
    with pytest.raises(UsageError):
        ClosedSet(diamond, A.mask)  # not down-closed
    C = ClosedSet(diamond, diamond.closure_mask(A.mask))
    assert C.mask == diamond.full  # down(top) already sweeps in everything
    with pytest.raises(UsageError):
        CompactSat(diamond, diamond.mask_of(["bot"]))  # not saturated
    K = CompactSat(diamond, diamond.sat_mask(diamond.mask_of(["l"])))
    K2 = CompactSat(diamond, diamond.sat_mask(diamond.mask_of(["bot"])))
    # Smyth order: K2 lies below K, as K is contained in K2
    assert K.mask & ~K2.mask == 0 and K2.mask & ~K.mask != 0


def test_pointset_requires_known_labels(diamond, sier):
    with pytest.raises(MalformedDocument):
        PointSet.of(diamond, ["nope"])
    A = PointSet.of(sier, ["a"])
    with pytest.raises(SpaceMismatch):
        closure(diamond, A)


# -- derived labels --------------------------------------------------------

# point labels drawn from every reserved character, and the empty label
reserved_labels = st.lists(st.text("a\\,{}()[]>", max_size=3), min_size=1, max_size=3, unique=True)


def _seeded_order(labels, seed):
    rng = random.Random(seed)
    n = len(labels)
    return FiniteSpace.from_covers(labels, [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)
                                            if rng.random() < 0.4])


@given(reserved_labels, reserved_labels, seeds)
@settings(max_examples=8, deadline=None)
def test_derived_labels_are_distinct_and_read_back(xs, ys, seed):
    X, Y = _seeded_order(xs, seed), _seeded_order(ys, seed + 1)
    inclusion = [powers.smyth(X).space, powers.hoare(X, "closed").space, powers.hoare(X, "irr_closed").space]
    for P in inclusion + [construct.product(X, Y).space, construct.function_space(X, Y)]:
        assert len(set(P.labels)) == P.n, P.labels
    # the inclusion orders, built unchecked, are the orders the checked
    # constructor builds from their up rows
    for P in inclusion:
        assert FiniteSpace(P.labels, P.up).down == P.down
    for m in range(1, X.full + 1):
        assert spaces._set_mask(X, spaces._set_label(X, m)) == m
    for v in checkers.check_all(X):
        assert checkers.validate_evidence(X, v), v.prop


def test_set_labels_read_back_only_as_written():
    X = parse_space({"points": ["a", "b", "a,b", "{", "\\"], "covers": []})
    assert spaces._set_label(X, X.mask_of(["a,b", "{", "\\"])) == "{a\\,b,\\{,\\\\}"
    for key in ["{a\\,b}", "{a,b}", "{\\{}", "{\\\\}"]:
        assert spaces._set_label(X, spaces._set_mask(X, key)) == key
    # not written by the encoder: unordered, repeated, unescaped, unknown
    for key in ["{b,a}", "{a,a}", "{a,b", "a,b", "{{}", "{\\}", "{c}", "{a,}", "", "{"]:
        assert spaces._set_mask(X, key) is None, key
    assert spaces._set_mask(X, "{}") == 0
    assert spaces._set_mask(parse_space({"points": ["", "a"], "covers": []}), "{}") == 1


# -- maps ------------------------------------------------------------------


def test_identity_and_composition_laws(diamond, sier):
    idd = SpaceMap.identity(diamond)
    f = oracles.map_from_labels(
        diamond, sier, {"bot": "a", "l": "a", "r": "b", "top": "b"}
    )
    assert idd.then(f).table == f.table
    assert f.then(SpaceMap.identity(sier)).table == f.table
    assert f.image_mask(diamond.mask_of(["bot", "r"])) == sier.full
    assert f.preimage_mask(1 << sier.index("b")) == diamond.mask_of(["r", "top"])


@pytest.mark.parametrize("n", [1, 2, 5, 63, 64, 65, 129, 300])
def test_image_kernel_is_the_or_of_the_point_images(n):
    # against the naive OR of 1 << table[i] over the set bits i of the mask,
    # from an antichain (every table is monotone) into antichains of up to
    # 2,048 points, the largest Smyth carrier; masks and images on both
    # sides of 2**64
    rng = random.Random(n)
    X = FiniteSpace([f"x{i}" for i in range(n)], [1 << i for i in range(n)])
    masks = [0, X.full, 1 << (n - 1), mask_of_indices(rng.sample(range(n), min(n, 3)))]
    masks += [rng.getrandbits(n) for _ in range(12)]
    assert {m >= 1 << 64 for m in masks} == ({False, True} if n > 64 else {False})
    for size in (1, 3, 64, 65, 2048):
        Y = FiniteSpace([f"y{j}" for j in range(size)], [1 << j for j in range(size)])
        f = SpaceMap(X, Y, tuple(rng.randrange(size) for _ in range(n)))
        for m in masks:
            want = 0
            for i in range(n):
                if m >> i & 1:
                    want |= 1 << f.table[i]
            assert f.image_mask(m) == want, (n, size, m)


def test_maps_must_be_monotone(diamond, sier):
    with pytest.raises(UsageError):
        oracles.map_from_labels(
            diamond, sier, {"bot": "b", "l": "a", "r": "a", "top": "a"}
        )


def test_trusted_maps_are_the_checked_records(all_posets):
    # a map built past the frozen __setattr__ is the record the checked
    # constructor builds, for every map between the classes of <= 3 points
    pool = [X for n in (1, 2, 3) for X in all_posets[n]]
    for X in pool:
        for Y in pool:
            for t in oracles.continuous_tables(X, Y):
                f, g = SpaceMap._trusted(X, Y, t), SpaceMap(X, Y, t)
                assert vars(f) == vars(g)
                assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
                for name in ("source", "target", "table"):
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        setattr(f, name, getattr(g, name))


def test_preimages_of_opens_are_open(diamond, sier):
    f = oracles.map_from_labels(
        diamond, sier, {"bot": "a", "l": "b", "r": "a", "top": "b"}
    )
    for U in sier.upsets():
        assert diamond.is_up(f.preimage_mask(U))


def test_order_embedding_detection(diamond):
    sub = diamond.subspace(diamond.mask_of(["bot", "top"]))
    inc = oracles.map_from_labels(sub, diamond, {"bot": "bot", "top": "top"})
    assert inc.is_injective() and inc.is_order_embedding()
    squash = oracles.map_from_labels(sub, diamond, {"bot": "bot", "top": "bot"})
    assert not squash.is_injective()


# -- generators and rendering ----------------------------------------------


def test_random_space_is_deterministic():
    a = random_space(random.Random(5), max_points=8)
    b = random_space(random.Random(5), max_points=8)
    assert a.labels == b.labels and a.up == b.up


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_random_space_is_t0(seed):
    X = rand(seed, max_points=8)
    assert 1 <= X.n <= 8
    for i in range(X.n):
        for j in range(X.n):
            if i != j:
                assert not (X.leq(i, j) and X.leq(j, i))


def test_to_dot_mentions_every_point_and_cover(diamond):
    dot = to_dot(diamond, highlight=["l"])
    assert dot.startswith("digraph")
    for lab in diamond.labels:
        assert f'"{lab}"' in dot
    assert '"bot" -> "l"' in dot
    assert "filled" in dot
