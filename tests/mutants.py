"""Injected faults for the checkers, as a table of name -> injector.

Each injector takes a pytest ``monkeypatch`` (or ``pytest.MonkeyPatch``)
and replaces one kernel method, family predicate or checker helper by a
faulty version.  Spaces parsed after the injection see the fault in every
memoized table they build, so a fault check parses its spaces afresh.

Not collected by pytest.  ``PYTHONPATH=src python tests/mutants.py OUT.json``
runs both characterization batteries on the fault corpus under no fault and
under each fault, and writes the (space, system, battery) triples that
disagree, raise or read false, so that two commits' fault detection can be
diffed.
"""
import json
import random

from t0lab import checkers, crosscheck_h_sober, crosscheck_super, enumerate_posets, parse_space, powers, random_space, systems
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
}


def corpus_docs() -> list[dict]:
    """The 24 classes of at most 4 points and 8 seeded spaces of up to 7."""
    docs = [X.to_doc() for n in range(1, 5) for X in enumerate_posets(n)]
    rng = random.Random(7)
    return docs + [random_space(rng, 7).to_doc() for _ in range(8)]


def detections(docs: list[dict]) -> dict:
    """The (space index, system, battery) triples, parsed afresh, whose
    battery disagrees, raises or has a condition that reads false under
    whatever fault is in place.  Every property holds on a finite T0
    space, so a false condition is a detection even when all agree."""
    out = {"disagree": [], "false": [], "raise": []}
    for i, doc in enumerate(docs):
        X = parse_space(doc)
        for H in BASE_IDS:
            for battery in (crosscheck_h_sober, crosscheck_super):
                triple = [i, str(H), battery.__name__]
                try:
                    report = battery(X, H)
                except Exception:
                    out["raise"].append(triple)
                    continue
                if not report.agreed:
                    out["disagree"].append(triple)
                if not all(v for _, v in report.conditions):
                    out["false"].append(triple)
    return out


if __name__ == "__main__":
    import sys

    import pytest

    docs = corpus_docs()
    report = {"no fault": detections(docs)}
    for name, inject in FAULTS.items():
        with pytest.MonkeyPatch.context() as mp:
            inject(mp)
            report[name] = detections(docs)
    with open(sys.argv[1], "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
