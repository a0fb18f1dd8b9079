"""Golden output: the full verdict and crosscheck output over a fixed set
of spaces, and the power-space and construction output over the small
classes, each pinned by its sha256.

Any change to a verdict, a path name, a piece of evidence, a crosscheck
condition, a seeded draw, a carrier order, a label or a lifted map changes
a digest.  Refactors of the checkers and constructions must leave both as
they are.
"""
import hashlib
import json
import random

from t0lab import check_all, construct, crosscheck_h_sober, crosscheck_super, enumerate_posets, parse_space, powers, random_space
from t0lab.systems import BASE_IDS

GOLDEN_SHA256 = "7868adc95d4dd43e8579e990fc1050b30a079e321c26395a8cb4ac75e2a993d7"


def _spaces():
    out = [X for n in range(1, 5) for X in enumerate_posets(n)]
    rng = random.Random(7)
    out += [random_space(rng, 8) for _ in range(6)]
    # 13 points: above subset_enum, so the sampled and generator modes run
    labels = [f"c{i}" for i in range(13)]
    out.append(parse_space({"points": labels, "covers": [[a, b] for a, b in zip(labels, labels[1:])]}))
    return out


def _record(X) -> dict:
    return {
        "space": X.to_doc(),
        "verdicts": [v.to_json() for v in check_all(X)],
        "cross": [
            r.to_json()
            for H in BASE_IDS
            for r in (crosscheck_h_sober(X, H), crosscheck_super(X, H))
        ],
    }


def golden_digest(spaces) -> str:
    records = [_record(X) for X in spaces]
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def test_verdict_and_crosscheck_output_is_unchanged():
    spaces = _spaces()
    assert len(spaces) == 31
    assert golden_digest(spaces) == GOLDEN_SHA256


# Smyth and Hoare spaces with their units, the Smyth, Hoare and reflection
# lifts of every map between the classes of at most 3 points, and the
# function spaces between the classes of at most 2 points
CONSTRUCTION_SHA256 = "50487a1c7c77753cc24bb4719602fc7a68033123cf434689ad8beb9201f322b5"


def _construction_records() -> list:
    classes = [X for n in range(1, 4) for X in enumerate_posets(n)]
    out = []
    for X in classes:
        S = powers.smyth(X)
        rec = {
            "smyth": [S.space.labels, list(S.space.up)],
            "xi": list(powers.xi_embed(X).table),
            "reflect": construct.reflect(X, "R").to_json(),
        }
        for which in ("closed", "irr_closed"):
            H = powers.hoare(X, which)
            rec[which] = [H.space.labels, list(H.space.up), list(powers.hoare_eta(H).table)]
        out.append(rec)
    for X in classes:
        rX = construct.reflect(X, "R")
        for Y in classes:
            rY = construct.reflect(Y, "R")
            for f in construct.continuous_maps(X, Y):
                out.append([
                    list(f.table),
                    list(powers.smyth_map(f).table),
                    list(powers.hoare_map(f, "closed").table),
                    list(powers.hoare_map(f, "irr_closed").table),
                    list(construct.reflection_functor(rX, rY, f).table),
                ])
    small = [X for X in classes if X.n <= 2]
    for X in small:
        for Y in small:
            F = construct.function_space(X, Y)
            out.append([F.labels, list(F.up)])
    return out


def test_power_space_and_construction_output_is_unchanged():
    records = _construction_records()
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == CONSTRUCTION_SHA256


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_golden.py OUT.json writes the records
    # GOLDEN_SHA256 hashes, indented, so that two commits' records diff
    import sys

    with open(sys.argv[1], "w") as fh:
        json.dump([_record(X) for X in _spaces()], fh, indent=1, sort_keys=True)
        fh.write("\n")
