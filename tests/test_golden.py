"""Golden output: the full verdict and crosscheck output over a fixed set
of spaces, pinned by its sha256.

Any change to a verdict, a path name, a piece of evidence, a crosscheck
condition or a seeded draw changes the digest.  Refactors of the checkers
must leave it as it is.
"""
import hashlib
import json
import random

from t0lab import check_all, crosscheck_h_sober, crosscheck_super, enumerate_posets, parse_space, random_space
from t0lab.systems import BASE_IDS

GOLDEN_SHA256 = "8d839a37834bfd098385beb71d59fc4de443cf592a044a995eff7625d005e002"


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
