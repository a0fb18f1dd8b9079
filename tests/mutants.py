"""Injected faults for the checkers, the zoo and the constructions, as tables
of name -> injector.

Each injector takes a pytest ``monkeypatch`` (or ``pytest.MonkeyPatch``)
and replaces one kernel method, the membership predicate, the member table
or a checker helper by a faulty version, or corrupts every space built
after it: the last two faults of ``FAULTS`` let ``FiniteSpace`` build as
usual (``__init__`` validating) and then rewrite the rows, so that the
order is not antisymmetric or a closure row is not a down-set.  Spaces
parsed after the injection see the fault in every memoized table they
build, so a fault check parses its spaces afresh.  ``ZOO_FAULTS`` holds
one fault per branch or clause of the zoo's set algebra (``CofiniteSet``,
``CocountableSet`` with its ``_desc_*`` helpers and ``_norm_tail``) and
of the Johnstone order (``johnstone_leq``, ``_tail_contains``,
``_johnstone_up_formula``), plus one per order comparison there that
moves its bound by one.
``CONSTRUCT_FAULTS`` holds one fault in each function that builds a value
a construction of ``powers`` or ``construct`` returns, and none in code
that only a certificate reads.

Not collected by pytest.  ``PYTHONPATH=src python tests/mutants.py OUT.json``
runs both characterization batteries on the fault corpus under no fault and
under each fault of ``FAULTS``, and writes the (space, system, battery)
triples that disagree, raise or read false, so that two commits' fault
detection can be diffed.  Under the ``"paths"`` key it writes the per-path
kill table: for each path of each verdict ``check_all`` returns, the faults
under which its value differs from its no-fault value, with the number of
(space, system) pairs where it does; the row ``"(raise)"`` counts the pairs
where the verdict raises instead.  The ``"conditions"`` key holds the same
table for the battery conditions, keyed battery -> condition -> fault, and
the ``"facts"`` key the one for the zoo certificates, keyed fact kind ->
fault -> number of transcript entries, over ``ZOO_FAULTS`` and ``FAULTS``
(``fact_values``).  The ``"certificates"`` key holds, for each
``InternalError`` and ``NoHomeomorphism`` site of ``spaces``, ``systems``,
``powers`` and ``construct``, the faults of ``FAULTS`` and
``CONSTRUCT_FAULTS`` under which it is the first to raise, with the number
of construction calls where it is (``certificate_values``), and the
``"outcomes"`` key, per fault and per construction call, whether the call
returned, raised a certificate or raised another exception, by class
name (``outcome_values``), so that two commits' runs can be diffed call
by call.  ``python tests/mutants.py NEW.json --against OLD.json`` then
prints every entry that differs from the older report OLD.json, one line
each, with the ``"outcomes"`` counted per (fault, function, old -> new)
(``report_diff``).
``tests/test_checkers.py`` asserts on the classes of at most 3 points that
every verdict path changes under some fault, and that every battery
condition after the first does, with a kill row no verdict path has;
``tests/test_zoo.py`` that every zoo fact kind does, and
``tests/test_construct.py`` that every certificate site but two named
ones is the first to raise under one.
"""
import ast
import functools
import inspect
import json
import random
import re
from collections import Counter

import pytest

from t0lab import (
    check, checkers, construct, crosscheck_h_sober, crosscheck_super, enumerate_posets, parse_space, powers,
    random_space, spaces, systems, zoo,
)
from t0lab.errors import InternalError, NoHomeomorphism
from t0lab.spaces import FiniteSpace, SpaceMap
from t0lab.systems import BASE_IDS
from t0lab.zoo import INF, CocountableSet as Coc, CofiniteSet as Cof

_SWAP_CD = {"C": "D", "D": "C"}


def _wrap(mp, owner, name, faulty):
    """Replace ``owner.name`` by ``faulty(original, *args, **kwargs)``,
    under the original's name."""
    original = getattr(owner, name)
    mp.setattr(owner, name, functools.wraps(original)(lambda *args, **kwargs: faulty(original, *args, **kwargs)))


def _any_maximal(X, m):
    mx = X.max_mask(m)
    return mx.bit_length() - 1 if mx else None


def _ignore_last_row(closure, X, m):
    last = 1 << (X.n - 1)
    return closure(X, m & ~last) | (m & last)


def _drop_lowest(f, X, m):
    u = f(X, m)
    return u & (u - 1)


def _corrupt_rows(corrupt):
    """A fault that builds each space as usual and then rewrites its rows:
    ``corrupt(up, down)`` edits the two lists in place.  It wraps
    ``FiniteSpace._fill``, the one writer of the rows, which ``__init__``
    calls after its checks and ``_inclusion_space`` calls unchecked, so it
    reaches validated and inclusion orders alike."""

    def fill(original, X, labels, up, down):
        original(X, labels, up, down)
        rows = list(X.up), list(X.down)
        corrupt(*rows)
        object.__setattr__(X, "up", tuple(rows[0]))
        object.__setattr__(X, "down", tuple(rows[1]))
        return X

    return lambda mp: _wrap(mp, FiniteSpace, "_fill", fill)


def _not_antisymmetric(up, down):
    # for the first strict pair i < j, taken by its upper point j, also j <= i
    for j, row in enumerate(down):
        below = row & ~(1 << j)
        if below:
            i = (below & -below).bit_length() - 1
            up[j] |= 1 << i
            down[i] |= 1 << j
            return


def _closure_not_down(up, down):
    # the last point's closure loses its lowest strict member
    strict = down[-1] & ~(1 << (len(down) - 1))
    down[-1] &= ~(strict & -strict)


FAULTS = {
    "non-monotone sat_mask": lambda mp: _wrap(
        mp, FiniteSpace, "sat_mask", lambda f, X, m: m if m.bit_count() == 2 else f(X, m)),
    "_h_members lists every mask": lambda mp: mp.setattr(
        systems, "_h_members", lambda X, core: list(range(1, X.full + 1))),
    "_psi_ok false": lambda mp: mp.setattr(checkers, "_psi_ok", lambda X, config: False),
    "closure_mask ignores the last row": lambda mp: _wrap(
        mp, FiniteSpace, "closure_mask", _ignore_last_row),
    "closure_mask identity": lambda mp: mp.setattr(FiniteSpace, "closure_mask", lambda X, m: m),
    "top_of any maximal point": lambda mp: mp.setattr(FiniteSpace, "top_of", _any_maximal),
    "top_of None above two points": lambda mp: _wrap(
        mp, FiniteSpace, "top_of", lambda f, X, m: None if m.bit_count() > 2 else f(X, m)),
    "_member C/D swapped": lambda mp: _wrap(
        mp, systems, "_member", lambda f, core, X, m: f(_SWAP_CD.get(core, core), X, m)),
    "_member accepts all": lambda mp: mp.setattr(systems, "_member", lambda core, X, m: True),
    "sat_mask drops the lowest point": lambda mp: _wrap(mp, FiniteSpace, "sat_mask", _drop_lowest),
    "sat_mask(full) empty": lambda mp: _wrap(
        mp, FiniteSpace, "sat_mask", lambda f, X, m: 0 if m == X.full else f(X, m)),
    "ubs_mask drops the lowest bound": lambda mp: _wrap(mp, FiniteSpace, "ubs_mask", _drop_lowest),
    "max_mask empty on pairs": lambda mp: _wrap(
        mp, FiniteSpace, "max_mask", lambda f, X, m: 0 if m.bit_count() == 2 else f(X, m)),
    "is_up false on pairs": lambda mp: _wrap(
        mp, FiniteSpace, "is_up", lambda f, X, m: m.bit_count() != 2 and f(X, m)),
    "_cut_identity false": lambda mp: mp.setattr(checkers, "_cut_identity", lambda *args: False),
    "box_mask empty": lambda mp: mp.setattr(powers.SmythSpace, "box_mask", lambda S, U: 0),
    "rows not antisymmetric": _corrupt_rows(_not_antisymmetric),
    "closure row not a down-set": _corrupt_rows(_closure_not_down),
}


def _set(owner, name, faulty):
    return lambda mp: mp.setattr(owner, name, faulty)


def _branch(owner, name, taken, edit):
    """A fault in one branch of ``owner.name``: where ``taken(*args)``
    holds, its value v becomes ``edit(v, *args)``."""
    return lambda mp: _wrap(mp, owner, name, lambda f, *a: edit(f(*a), *a) if taken(*a) else f(*a))


def _always(*args):
    return True


# one fault per branch or clause of the zoo's set algebra and Johnstone
# order, plus one per order comparison that moves its bound by one; the
# facts also read the kernel, so ``fact_values`` runs FAULTS too
ZOO_FAULTS = {
    "CofiniteSet.contains ignores the flag": _set(Cof, "contains", lambda A, n: n in A.members),
    "CofiniteSet.is_empty ignores the flag": _set(Cof, "is_empty", lambda A: not A.members),
    "CofiniteSet.complement identity": _set(Cof, "complement", lambda A: A),
    "CofiniteSet.union of finites meets": _branch(
        Cof, "union", lambda A, B: A.finite and B.finite, lambda v, A, B: Cof(True, A.members & B.members)),
    "CofiniteSet.union of cofinites joins the complements": _branch(
        Cof, "union", lambda A, B: not (A.finite or B.finite), lambda v, A, B: Cof(False, A.members | B.members)),
    "CofiniteSet.union of mixed keeps the cofinite side": _branch(
        Cof, "union", lambda A, B: A.finite != B.finite, lambda v, A, B: B if A.finite else A),
    "CofiniteSet.intersect is union": _set(Cof, "intersect", lambda A, B: A.union(B)),
    "CofiniteSet.minus ignores its argument": _set(Cof, "minus", lambda A, B: A),
    "CofiniteSet.subset_of accepts all": _set(Cof, "subset_of", _always),
    "CofiniteSet.is_open misses the empty set": _set(Cof, "is_open", lambda A: not A.finite),
    "CofiniteSet.is_open only the empty set": _set(Cof, "is_open", lambda A: A.is_empty()),
    "CofiniteSet.is_open accepts all": _set(Cof, "is_open", _always),
    "CofiniteSet.is_closed misses finite sets": _set(Cof, "is_closed", lambda A: not (A.finite or A.members)),
    "CofiniteSet.is_closed misses the whole set": _set(Cof, "is_closed", lambda A: A.finite),
    "CofiniteSet.is_closed accepts all": _set(Cof, "is_closed", _always),
    "CocountableSet.complement identity": _set(Coc, "complement", lambda S: S),
    "CocountableSet.contains_token ignores extras": _set(
        Coc, "contains_token", lambda S, k: (S.tail is not None and k >= S.tail) == S.small),
    "CocountableSet.contains_token ignores the tail": _set(
        Coc, "contains_token", lambda S, k: (k in S.extras) == S.small),
    "CocountableSet.contains_token tail bound off by one": _set(
        Coc, "contains_token", lambda S, k: (k in S.extras or (S.tail is not None and k > S.tail)) == S.small),
    "CocountableSet.is_empty ignores the tail": _set(Coc, "is_empty", lambda S: S.small and not S.extras),
    "CocountableSet.is_countable accepts all": _set(Coc, "is_countable", _always),
    "CocountableSet.is_open misses the empty set": _set(Coc, "is_open", lambda S: not S.small),
    "CocountableSet.is_open only the empty set": _set(Coc, "is_open", lambda S: S.is_empty()),
    "CocountableSet.is_open accepts all": _set(Coc, "is_open", _always),
    "CocountableSet.is_closed misses countable sets": _set(
        Coc, "is_closed", lambda S: not S.extras and S.tail is None and not S.small),
    "CocountableSet.is_closed misses the whole set": _set(Coc, "is_closed", lambda S: S.small),
    "CocountableSet.is_closed accepts all": _set(Coc, "is_closed", _always),
    "CocountableSet._desc_union meets the extras": _branch(
        Coc, "_desc_union", _always, lambda v, S, T: (S.extras & T.extras, v[1])),
    "CocountableSet._desc_union takes the later tail": _branch(
        Coc, "_desc_union", lambda S, T: None not in (S.tail, T.tail), lambda v, S, T: (v[0], max(S.tail, T.tail))),
    "CocountableSet._desc_intersect drops the common extras": _branch(
        Coc, "_desc_intersect", _always, lambda v, S, T: (v[0] - (S.extras & T.extras), v[1])),
    "CocountableSet._desc_intersect drops its extras in the other's tail": _branch(
        Coc, "_desc_intersect", lambda S, T: T.tail is not None,
        lambda v, S, T: (v[0] - {i for i in S.extras - T.extras if i >= T.tail}, v[1])),
    "CocountableSet._desc_intersect drops the other's extras in its tail": _branch(
        Coc, "_desc_intersect", lambda S, T: S.tail is not None,
        lambda v, S, T: (v[0] - {i for i in T.extras - S.extras if i >= S.tail}, v[1])),
    "CocountableSet._desc_intersect other's tail bound off by one": _branch(
        Coc, "_desc_intersect", lambda S, T: T.tail is not None,
        lambda v, S, T: (v[0] - ({T.tail} & (S.extras - T.extras)), v[1])),
    "CocountableSet._desc_intersect own tail bound off by one": _branch(
        Coc, "_desc_intersect", lambda S, T: S.tail is not None,
        lambda v, S, T: (v[0] - ({S.tail} & (T.extras - S.extras)), v[1])),
    "CocountableSet._desc_intersect of two tails takes the earlier": _branch(
        Coc, "_desc_intersect", lambda S, T: None not in (S.tail, T.tail), lambda v, S, T: (v[0], min(S.tail, T.tail))),
    "CocountableSet._desc_minus keeps its extras in the other's tail": _branch(
        Coc, "_desc_minus", lambda S, T: T.tail is not None,
        lambda v, S, T: (v[0] | {i for i in S.extras - T.extras if i >= T.tail}, v[1])),
    "CocountableSet._desc_minus other's tail bound off by one": _branch(
        Coc, "_desc_minus", lambda S, T: T.tail is not None,
        lambda v, S, T: (v[0] | ({T.tail} & (S.extras - T.extras)), v[1])),
    "CocountableSet._desc_minus without a tail subtracts nothing": _branch(
        Coc, "_desc_minus", lambda S, T: S.tail is None, lambda v, S, T: (S.extras, None)),
    "CocountableSet._desc_minus of a tail cuts no holes": _branch(
        Coc, "_desc_minus", lambda S, T: S.tail is not None and T.tail is None, lambda v, S, T: (v[0], S.tail)),
    "CocountableSet._desc_minus of two tails drops the gap": _branch(
        Coc, "_desc_minus", lambda S, T: None not in (S.tail, T.tail),
        lambda v, S, T: (v[0] - set(range(S.tail, T.tail)), None)),
    "CocountableSet.union of countables meets": _branch(
        Coc, "union", lambda S, T: S.small and T.small, lambda v, S, T: Coc(True, *S._desc_intersect(T))),
    "CocountableSet.union of cocountables joins the complements": _branch(
        Coc, "union", lambda S, T: not (S.small or T.small), lambda v, S, T: Coc(False, *S._desc_union(T))),
    "CocountableSet.union of mixed keeps the cocountable side": _branch(
        Coc, "union", lambda S, T: S.small != T.small, lambda v, S, T: T if S.small else S),
    "CocountableSet.intersect is union": _set(Coc, "intersect", lambda S, T: S.union(T)),
    "CocountableSet.minus ignores its argument": _set(Coc, "minus", lambda S, T: S),
    "CocountableSet.subset_of accepts all": _set(Coc, "subset_of", _always),
    "_norm_tail keeps the tail": _branch(
        zoo, "_norm_tail", lambda e, t: t is not None, lambda v, e, t: (frozenset(i for i in e if i < t), t)),
    "_norm_tail keeps extras past the tail": _branch(zoo, "_norm_tail", _always, lambda v, e, t: (e, v[1])),
    "johnstone_leq drops the column clause": _set(
        zoo, "johnstone_leq", lambda p, q: q[1] == INF and p[1] <= q[0]),
    "johnstone_leq drops the infinity clause": _set(
        zoo, "johnstone_leq", lambda p, q: p[0] == q[0] and p[1] <= q[1]),
    "johnstone_leq column clause ignores the rows": _set(
        zoo, "johnstone_leq", lambda p, q: p[0] == q[0] or (q[1] == INF and p[1] <= q[0])),
    "johnstone_leq infinity clause ignores the column": _set(
        zoo, "johnstone_leq", lambda p, q: (p[0] == q[0] and p[1] <= q[1]) or q[1] == INF),
    "johnstone_leq column bound off by one": _set(
        zoo, "johnstone_leq", lambda p, q: (p[0] == q[0] and p[1] < q[1]) or (q[1] == INF and p[1] <= q[0])),
    "johnstone_leq infinity bound off by one": _set(
        zoo, "johnstone_leq", lambda p, q: (p[0] == q[0] and p[1] <= q[1]) or (q[1] == INF and p[1] < q[0])),
    "_tail_contains ignores the row": _set(zoo, "_tail_contains", lambda n, p: p[0] >= n),
    "_tail_contains ignores the column": _set(zoo, "_tail_contains", lambda n, p: p[1] == INF),
    "_tail_contains row bound off by one": _set(zoo, "_tail_contains", lambda n, p: p[1] == INF and p[0] > n),
    "_johnstone_up_formula drops the column": _branch(
        zoo, "_johnstone_up_formula", _always, lambda v, p, jm, km: {q for q in v if q[1] == INF and q[0] >= p[1]}),
    "_johnstone_up_formula drops the infinity row": _branch(
        zoo, "_johnstone_up_formula", _always, lambda v, p, jm, km: {q for q in v if q[0] == p[0]}),
    "_johnstone_up_formula column bound off by one": _branch(
        zoo, "_johnstone_up_formula", _always, lambda v, p, jm, km: v - {p}),
    "_johnstone_up_formula infinity bound off by one": _branch(
        zoo, "_johnstone_up_formula", lambda p, jm, km: p[0] != p[1], lambda v, p, jm, km: v - {(p[1], INF)}),
}


def _during(owner, name, patch):
    """A fault that is live only while ``owner.name`` runs: each call first
    applies ``patch(mp, *args)`` to a fresh ``MonkeyPatch``, and undoes it
    on return."""

    def call(original, *args, **kwargs):
        with pytest.MonkeyPatch.context() as mp:
            patch(mp, *args)
            return original(*args, **kwargs)

    return lambda mp: _wrap(mp, owner, name, call)


def _constant_unit(unit, X, space, table, *rest):
    return unit(X, space, (table[0],) * len(table), *rest)


def _without_highest(mask):
    return spaces.bits(mask & ~(1 << mask.bit_length() - 1) if mask & (mask - 1) else mask)


def _first_factor_discrete(mp, X, Y, *rest):
    # each row keeps only the points of its own X-block
    block = (1 << Y.n) - 1
    _wrap(mp, construct, "FiniteSpace",
          lambda cls, labels, up: cls(labels, [r & (block << p // Y.n * Y.n) for p, r in enumerate(up)]))


def _with_full(hoare, X, which, config):
    carrier = X.irr_downsets() if which == "irr_closed" else which
    return hoare(X, [*carrier, X.full], config)


def _constant_extension(extend, refl, Y, table):
    star = extend(refl, Y, table)
    return (star[0],) * len(star)


# one fault in each function that builds a value a construction returns,
# and none in code that only a certificate reads
CONSTRUCT_FAULTS = {
    "_inclusion_space ignores reverse": lambda mp: _wrap(
        mp, powers, "_inclusion_space", lambda f, X, carrier, reverse, **kw: f(X, carrier, reverse=not reverse, **kw)),
    "diamond_mask empty": _set(powers.HoareSpace, "diamond_mask", lambda H, U: 0),
    "_lift skips the hull": lambda mp: _wrap(
        mp, powers, "_lift", lambda lift, f, PX, PY, hull: lift(f, PX, PY, lambda m: m)),
    "smyth_union misses the last member": _during(
        powers, "smyth_union", lambda mp, *a: mp.setattr(powers, "bits", _without_highest)),
    "xi_embed table constant": _during(
        powers, "xi_embed", lambda mp, *a: _wrap(mp, powers, "_unit", _constant_unit)),
    "hoare_eta table constant": _during(
        powers, "hoare_eta", lambda mp, *a: _wrap(mp, powers, "_unit", _constant_unit)),
    "phi ignores its compact": lambda mp: _wrap(mp, powers, "phi", lambda f, X, K: f(X, X.full)),
    "product rows drop the first factor's order": _during(construct, "product", _first_factor_discrete),
    # the table enumerator, which continuous_maps, function_space and
    # universal_property_verify all read
    "continuous_maps drops the last map": lambda mp: _wrap(
        mp, construct, "_map_tables", lambda f, *a: f(*a)[:-1]),
    "_extend_along_unit constant": lambda mp: _wrap(mp, construct, "_extend_along_unit", _constant_extension),
    "reflect's carrier gains the whole space": _during(
        construct, "reflect", lambda mp, *a: _wrap(mp, powers, "hoare", _with_full)),
    "pair_index swaps the factors": _set(construct.Product, "pair_index", lambda P, i, j: j * P.factors[0].n + i),
}


def corpus_docs() -> list[dict]:
    """The 24 classes of at most 4 points and 8 seeded spaces of up to 7."""
    docs = [X.to_doc() for n in range(1, 5) for X in enumerate_posets(n)]
    rng = random.Random(7)
    return docs + [random_space(rng, 7).to_doc() for _ in range(8)]


def condition_values(docs: list[dict]) -> dict:
    """The value of every condition of both batteries, on each space
    parsed afresh, by (space index, battery, system, condition name); a
    battery that raises reads "raise" under (space index, battery, system,
    None)."""
    out = {}
    for i, doc in enumerate(docs):
        X = parse_space(doc)
        for H in BASE_IDS:
            for battery in (crosscheck_h_sober, crosscheck_super):
                key = i, battery.__name__, str(H)
                try:
                    report = battery(X, H)
                except Exception:
                    out[key + (None,)] = "raise"
                    continue
                for name, value in report.conditions:
                    out[key + (name,)] = value
    return out


def detections(values: dict) -> dict:
    """The (space index, system, battery) triples of ``condition_values``
    whose battery disagrees, raises or has a condition that reads false.
    Every property holds on a finite T0 space, so a false condition is a
    detection even when all agree."""
    reports = {}
    for (i, battery, system, name), value in values.items():
        reports.setdefault((i, system, battery), []).append(value)
    out = {"disagree": [], "false": [], "raise": []}
    for triple, vals in reports.items():
        if vals == ["raise"]:
            out["raise"].append(list(triple))
            continue
        if len(set(vals)) != 1:
            out["disagree"].append(list(triple))
        if not all(vals):
            out["false"].append(list(triple))
    return out


def path_values(docs: list[dict]) -> dict:
    """The value of every path of every verdict ``check_all`` returns, on
    each space parsed afresh, by (space index, property, system,
    ``Path.name``), so that one path in two modes is one row.  Each
    verdict is checked on its own, so that one that raises reads "raise"
    under (space index, property, system, None) and leaves the others
    standing."""
    out = {}
    for i, doc in enumerate(docs):
        X = parse_space(doc)
        for prop in checkers.PROPERTY_IDS:
            for H in BASE_IDS if prop in checkers._H_REQUIRED else (None,):
                system = None if H is None else str(H)
                try:
                    v = check(X, prop, H)
                except Exception:
                    out[i, prop, system, None] = "raise"
                    continue
                for p in v.paths:
                    out[i, prop, system, p.name] = p.rendered()[1]
    return out


def kill_table(base: dict, faulty: dict[str, dict]) -> dict:
    """property -> path -> fault -> number of (space, system) pairs whose
    path value under the fault differs from ``base``, counting only the
    verdicts that do not raise; those that do are counted in the row
    ``"(raise)"``.  Read over ``condition_values`` it gives battery ->
    condition -> fault in the same way."""
    table = {}
    for (i, prop, system, path), value in base.items():
        row = table.setdefault(prop, {}).setdefault(path, {})
        for fault, values in faulty.items():
            if (i, prop, system, None) in values:
                continue
            if values.get((i, prop, system, path)) != value:
                row[fault] = row.get(fault, 0) + 1
    for fault, values in faulty.items():
        for (i, prop, system, path) in values:
            if path is None:
                row = table.setdefault(prop, {}).setdefault("(raise)", {})
                row[fault] = row.get(fault, 0) + 1
    return table


def fact_values() -> tuple[dict, dict[str, dict]]:
    """The value of every fact of every zoo claim's transcript, by (claim,
    "facts", position, fact kind), with no fault and under each fault of
    ZOO_FAULTS and FAULTS: the two arguments of ``kill_table``, whose
    ``"facts"`` entry is then fact kind -> fault -> count.  The transcripts
    are built once with no fault; a fact that raises reads "raise".  Each
    evaluation gets a fresh truncation cache, so that a window built under
    a faulty order does not leak into another."""
    transcripts = {f"{s}.{c}": zoo.verify_claim(s, c).transcript for s, c in zoo.list_claims()}

    def values():
        out = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(zoo, "_TRUNC_CACHE", {})
            for claim, transcript in transcripts.items():
                for pos, fact in enumerate(transcript):
                    try:
                        value = zoo._FACTS[fact["fact"]](fact)
                    except Exception:
                        value = "raise"
                    out[claim, "facts", pos, fact["fact"]] = value
        return out

    faulty = {}
    for name, inject in (ZOO_FAULTS | FAULTS).items():
        with pytest.MonkeyPatch.context() as mp:
            inject(mp)
            faulty[name] = values()
    return values(), faulty


_CERTIFICATES = (InternalError, NoHomeomorphism)


def certificate_sites() -> dict[str, re.Pattern]:
    """Every ``raise InternalError(...)`` and ``raise NoHomeomorphism(...)``
    in ``spaces``, ``systems``, ``powers`` and ``construct``, keyed by its
    message with each f-string field kept as ``{expr}``, to a pattern that
    the messages it raises match."""
    names = {c.__name__ for c in _CERTIFICATES}
    sites = {}
    for module in (spaces, systems, powers, construct):
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) in names):
                continue
            (msg,) = node.exc.args
            parts = msg.values if isinstance(msg, ast.JoinedStr) else [msg]
            key = "".join(p.value if isinstance(p, ast.Constant) else "{" + ast.unparse(p.value) + "}" for p in parts)
            if key in sites:
                raise ValueError(f"two certificate sites raise {key!r}")
            sites[key] = re.compile("".join(re.escape(p.value) if isinstance(p, ast.Constant) else ".*" for p in parts))
    return sites


def _hoare_unit(X, which):
    return powers.hoare_eta(powers.hoare(X, which))


def _construction_corpus(attempt) -> None:
    """Run every construction on the classes of at most 3 points, parsed
    afresh; ``attempt(fn, *args)`` makes each call and returns its value, or
    None when it raises."""
    base = [parse_space(X.to_doc()) for n in range(1, 4) for X in enumerate_posets(n)]
    refl = []
    for X in base:
        # no lift reads a unit, so each is built here
        attempt(powers.xi_embed, X)
        for which in ("closed", "irr_closed"):
            attempt(_hoare_unit, X, which)
        attempt(powers.smyth_union, X)
        for m in range(1, X.full + 1):
            attempt(spaces.chain_core, X, m)
            for core in "SCDR":
                attempt(systems.rudin_witness, core, X, m)
        ks = attempt(X.nonempty_upsets) or []
        for i, a in enumerate(ks):
            for b in ks[i:]:
                attempt(powers.filter_of_family, X, [a, b])
                for which in ("intersection", "sup", "closure_intersection", "least"):
                    attempt(powers.family_calculus, X, [a, b], which)
        attempt(powers.hofmann_mislove_report, X)
        refl.append(attempt(construct.reflect, X, "R"))
    for X, rX in zip(base, refl):
        for Y, rY in zip(base, refl):
            for f in attempt(construct.continuous_maps, X, Y) or []:
                attempt(powers.smyth_map, f)
                attempt(powers.hoare_map, f, "closed")
                attempt(powers.hoare_map, f, "irr_closed")
                if rX and rY:
                    attempt(construct.reflection_functor, rX, rY, f)
            if rX:
                attempt(construct.universal_property_verify, rX, Y)
    # the product is symmetric, so each unordered pair is built once
    for i, X in enumerate(base):
        for Y in base[i:]:
            attempt(construct.product_preservation, X, Y)


def _corpus_under_faults(record) -> None:
    """Run the construction corpus with no fault ("no fault") and under
    each fault of FAULTS and CONSTRUCT_FAULTS; ``record(fault, fn, args,
    error)`` sees each call, with ``error`` None when it returns."""

    def run(fault):
        def attempt(fn, *args):
            try:
                value = fn(*args)
            except Exception as e:
                record(fault, fn, args, e)
                return None
            record(fault, fn, args, None)
            return value

        _construction_corpus(attempt)

    run("no fault")
    for name, inject in (FAULTS | CONSTRUCT_FAULTS).items():
        with pytest.MonkeyPatch.context() as mp:
            inject(mp)
            run(name)


def certificate_values() -> dict:
    """site -> fault -> the number of corpus calls that this certificate
    site is the first to raise in, with no fault ("no fault") and under
    each fault of FAULTS and CONSTRUCT_FAULTS; every site of
    ``certificate_sites`` has a row."""
    sites = certificate_sites()
    table = {key: {} for key in sites}

    def record(fault, fn, args, error):
        if isinstance(error, _CERTIFICATES):
            row = table[next(k for k, p in sites.items() if p.fullmatch(str(error)))]
            row[fault] = row.get(fault, 0) + 1

    _corpus_under_faults(record)
    return table


def _call_key(fn, args) -> str:
    """A corpus call by its function and arguments, with a space named by
    its rows, a map by its table and endpoints and a reflection by its
    base, so that two commits' runs under one fault name it alike."""

    def name(a):
        if isinstance(a, FiniteSpace):
            return f"space{list(a.up)}"
        if isinstance(a, SpaceMap):
            return f"map{list(a.table)}:{name(a.source)}->{name(a.target)}"
        if isinstance(a, construct.Reflection):
            return f"reflection of {name(a.base)}"
        return repr(a)

    owner = getattr(fn, "__self__", None)
    args = args if owner is None else (owner, *args)
    return f"{fn.__qualname__}({', '.join(map(name, args))})"


def outcome_values() -> dict:
    """fault -> corpus call -> how it ended, with no fault ("no fault") and
    under each fault of FAULTS and CONSTRUCT_FAULTS: "returned",
    "certificate" (an ``InternalError`` or ``NoHomeomorphism``) or the
    class name of any other exception."""
    out = {}

    def record(fault, fn, args, error):
        calls = out.setdefault(fault, {})
        key = _call_key(fn, args)
        if key in calls:
            raise ValueError(f"two corpus calls are keyed {key!r}")
        if error is None:
            calls[key] = "returned"
        else:
            calls[key] = "certificate" if isinstance(error, _CERTIFICATES) else type(error).__name__

    _corpus_under_faults(record)
    return out


def _leaves(doc, prefix=()):
    """(key path, value) for every non-dict value of nested dicts."""
    if not isinstance(doc, dict):
        yield prefix, doc
        return
    for key, value in doc.items():
        yield from _leaves(value, prefix + (key,))


def report_diff(old: dict, new: dict) -> list[str]:
    """The entries of two reports that differ, one line each, with an
    entry missing on one side read as "absent"; the ``"outcomes"`` entries
    are counted per (fault, function, old outcome -> new outcome)."""
    lines = []
    a = dict(_leaves({k: v for k, v in old.items() if k != "outcomes"}))
    b = dict(_leaves({k: v for k, v in new.items() if k != "outcomes"}))
    for path in sorted(a.keys() | b.keys()):
        if a.get(path, "absent") != b.get(path, "absent"):
            lines.append(f"{' / '.join(path)}: {a.get(path, 'absent')} -> {b.get(path, 'absent')}")
    a, b = dict(_leaves(old.get("outcomes", {}))), dict(_leaves(new.get("outcomes", {})))
    moves = Counter()
    for fault, call in a.keys() | b.keys():
        was, now = a.get((fault, call), "absent"), b.get((fault, call), "absent")
        if was != now:
            moves[fault, call.split("(")[0], was, now] += 1
    for (fault, fn, was, now), count in sorted(moves.items()):
        lines.append(f"outcomes / {fault} / {fn}: {was} -> {now}: {count} calls")
    return lines


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Write the fault report; with --against, print how it differs from an older one.")
    parser.add_argument("out", metavar="NEW.json")
    parser.add_argument("--against", metavar="OLD.json")
    args = parser.parse_args()
    docs = corpus_docs()
    conditions = condition_values(docs)
    report = {"no fault": detections(conditions)}
    faulty_paths, faulty_conditions = {}, {}
    for name, inject in FAULTS.items():
        with pytest.MonkeyPatch.context() as mp:
            inject(mp)
            faulty_conditions[name] = condition_values(docs)
            report[name] = detections(faulty_conditions[name])
            faulty_paths[name] = path_values(docs)
    report["paths"] = kill_table(path_values(docs), faulty_paths)
    report["conditions"] = kill_table(conditions, faulty_conditions)
    report["facts"] = kill_table(*fact_values())["facts"]
    report["certificates"] = certificate_values()
    report["outcomes"] = outcome_values()
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if args.against:
        with open(args.against) as fh, open(args.out) as gh:
            print("\n".join(report_diff(json.load(fh), json.load(gh))) or "no difference")
