"""Injected faults for the checkers, as a table of name -> injector.

Each injector takes a pytest ``monkeypatch`` (or ``pytest.MonkeyPatch``)
and replaces one kernel method, family predicate or checker helper by a
faulty version, or corrupts every space built after it: the last two
faults let ``FiniteSpace.__init__`` validate as usual and then rewrite the
rows, so that the order is not antisymmetric or a closure row is not a
down-set.  Spaces parsed after the injection see the fault in every
memoized table they build, so a fault check parses its spaces afresh.

Not collected by pytest.  ``PYTHONPATH=src python tests/mutants.py OUT.json``
runs both characterization batteries on the fault corpus under no fault and
under each fault, and writes the (space, system, battery) triples that
disagree, raise or read false, so that two commits' fault detection can be
diffed.  Under the ``"paths"`` key it writes the per-path kill table: for
each path of each verdict ``check_all`` returns, the faults under which
its value differs from its no-fault value, with the number of (space,
system) pairs where it does; the row ``"(raise)"`` counts the pairs where
the verdict raises instead.  The ``"conditions"`` key holds the same table
for the battery conditions, keyed battery -> condition -> fault.
``tests/test_checkers.py`` asserts on the classes of at most 3 points that
every verdict path changes under some fault.
"""
import json
import random

from t0lab import check, checkers, crosscheck_h_sober, crosscheck_super, enumerate_posets, parse_space, powers, random_space, systems
from t0lab.spaces import FiniteSpace
from t0lab.systems import BASE_IDS

_SWAP_CD = {"C": "D", "D": "C"}


def _wrap(mp, owner, name, faulty):
    """Replace ``owner.name`` by ``faulty(original, *args)``."""
    original = getattr(owner, name)
    mp.setattr(owner, name, lambda *args: faulty(original, *args))


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
    """A fault that builds each space as usual and then rewrites its
    validated rows: ``corrupt(up, down)`` edits the two lists in place."""

    def init(original, X, labels, up):
        original(X, labels, up)
        rows = list(X.up), list(X.down)
        corrupt(*rows)
        object.__setattr__(X, "up", tuple(rows[0]))
        object.__setattr__(X, "down", tuple(rows[1]))

    return lambda mp: _wrap(mp, FiniteSpace, "__init__", init)


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
    "family_base_ok accepts all": lambda mp: mp.setattr(systems, "family_base_ok", lambda core, masks: True),
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
    "family_base_ok C/D swapped": lambda mp: _wrap(
        mp, systems, "family_base_ok", lambda f, core, masks: f(_SWAP_CD.get(core, core), masks)),
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


# the mode suffixes a path name carries; the kill table keys paths without
# them, so that one path in two modes is one row
_MODES = (" (raw powerset)", " (raw)", " (generators)", " (sampled)", " (exhaustive)", " (pairwise)")


def _path_key(name: str) -> str:
    for suffix in _MODES:
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def path_values(docs: list[dict]) -> dict:
    """The value of every path of every verdict ``check_all`` returns, on
    each space parsed afresh, by (space index, property, system, path name
    without its mode suffix).  Each verdict is checked on its own, so that
    one that raises reads "raise" under (space index, property, system,
    None) and leaves the others standing."""
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
                for name, value in v.characterizations:
                    out[i, prop, system, _path_key(name)] = value
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


if __name__ == "__main__":
    import sys

    import pytest

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
    with open(sys.argv[1], "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
