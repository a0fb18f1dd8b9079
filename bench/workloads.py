"""The three workloads: seeded input generation, the timed operations and
the correctness checks that run after each operation, outside its timing.

Each workload is a round of operations over inputs generated once from the
seed.  Every round parses its documents afresh, so per-space caches never
carry over from one round to the next and each round does the same work.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable

import t0lab
from t0lab import checkers, cli, construct, powers, systems
from t0lab.spaces import SpaceMap

# sizes pinned by the workload definitions below
MAPS_PER_ROUND = 19702
# (max_points, count) of each part of the corpus.  The spaces of up to 8
# points carry the tail (p90); the spaces of up to 5 points set the median,
# among many operations of about the same cost.  With the first part alone
# the median fell between the 4-point and the 5-point spaces, and moved
# by about a tenth from run to run with the order of the two near it.
VERDICTS_CORPUS = ((8, 64), (5, 64))
VERDICTS_CORPUS_SEED = 7
WIDE_SHAPES = (
    ("chain", 9), ("chain", 12), ("chain", 13), ("chain", 14),
    ("fence", 9), ("fence", 10), ("tree", 10), ("tree", 13),
    ("antichain", 12),
)

# Failures of the program known at the time the benchmark was written, by
# operation: the h_consonant false alarm on six corpus spaces of
# `verdicts` and on the fences and trees of `wide` (where `t0lab check`
# exits 1 for it), and antichain 12 exceeding the Smyth carrier cap.  They
# count as failed operations; a run is incorrect if any other operation
# fails, or if one of these stops failing in the same way.
H_CONSONANT = "verdict h_consonant: holds=True agreed=False"
EXPECTED_FAILURES = {
    "verdicts": {f"v{i}": {H_CONSONANT} for i in (7, 15, 19, 40, 41, 50)},
    "wide": {
        **{name: {"exit 1", H_CONSONANT} for name in ("fence9", "fence10", "tree10", "tree13")},
        "antichain12": {"exit 3: cap exceeded: Smyth carrier has 4095 members, cap is 2048"},
    },
    "maps": {},
}


def unexpected_failures(expected: dict[str, set[str]], notes: dict[str, set[str]]) -> list[str]:
    """Operations whose failure notes differ from the expected ones (an
    entry of EXPECTED_FAILURES)."""
    out = [f"{key} failed unexpectedly: {'; '.join(sorted(notes[key]))}"
           for key in sorted(notes) if notes[key] != expected.get(key)]
    out += [f"{key} did not fail as expected" for key in sorted(set(expected) - set(notes))]
    return out


@dataclass
class Op:
    """One operation: ``run`` is timed; ``check(result, counters)`` is not
    and returns (JSON-able output for the digest, list of failure notes)."""

    key: str
    run: Callable[[], object]
    check: Callable[[object, dict], tuple[object, list[str]]]


def relabel(doc: dict, rng: random.Random) -> dict:
    """The same space with its points permuted and renamed."""
    pts = list(doc["points"])
    order = list(range(len(pts)))
    rng.shuffle(order)
    new = {pts[old]: f"v{pos}" for pos, old in enumerate(order)}
    return {
        "points": [new[pts[old]] for old in order],
        "covers": sorted([new[a], new[b]] for a, b in doc["covers"]),
    }


def count_paths(counters: dict, verdicts: list[dict], crosses: list[dict]) -> None:
    """Path modes of verdicts and crosschecks, in their JSON form."""
    for v in verdicts:
        for c in v["characterizations"]:
            if c["value"].startswith("skipped"):
                kind = "skipped"
            elif "sampled" in c["name"]:
                kind = "sampled"
            else:
                kind = "computed"
            counters[f"checkers.paths.{kind}"] += 1
        if not (v["holds"] and v["characterizations_agreed"]):
            counters["checkers.verdicts.not_agreed"] += 1
    for r in crosses:
        for mode in r["modes"].values():
            kind = "sampled" if mode == "sampled" else "computed"
            counters[f"checkers.paths.{kind}"] += 1


def verdict_failures(X, verdicts: list[dict], crosses: list[dict]) -> list[str]:
    bad = []
    for v in verdicts:
        tag = f"{v['property']}[{v['system']}]"
        if not (v["holds"] and v["characterizations_agreed"]):
            bad.append(f"verdict {v['property']}: holds={v['holds']} "
                       f"agreed={v['characterizations_agreed']}")
        verdict = checkers.Verdict(
            v["property"], v["system"], v["holds"],
            tuple((c["name"], c["value"]) for c in v["characterizations"]),
            v["characterizations_agreed"], v["evidence"])
        if not checkers.validate_evidence(X, verdict):
            bad.append(f"evidence rejected {tag}")
    for r in crosses:
        if not r["agreed"]:
            bad.append(f"{r['property']} crosscheck not agreed")
    return bad


# -- verdicts: one `t0lab sweep` instance per small random space -----------


def _h_family(rng, X, core):
    """A seeded family of compacts of the given shape, as `t0lab sweep`
    draws them."""
    ks = X.nonempty_upsets()
    k0 = ks[rng.randrange(len(ks))]
    if core == "S":
        return [k0]
    fam = [k0] if core == "C" else {k0}
    cur = k0
    for _ in range(3):
        if core == "C":
            cur = cur | X.sat_mask(rng.getrandbits(X.n))
            fam.append(cur)
        else:
            fam.add(k0 | X.sat_mask(rng.getrandbits(X.n)))
    return sorted(set(fam))


def _sweep_instance(doc: dict, inst_seed: str):
    X = t0lab.parse_space(doc)
    out = {"X": X, "verdicts": checkers.check_all(X), "cross": []}
    for H in systems.BASE_IDS:
        out["cross"].append(checkers.crosscheck_h_sober(X, H))
        out["cross"].append(checkers.crosscheck_super(X, H))
    out["hm"] = powers.hofmann_mislove_report(X)
    rng = random.Random(inst_seed)
    out["instances"] = inst = []
    for core in ("S", "C", "D", "R"):
        H = systems.SubsetSystemId(core)
        fam = _h_family(rng, X, core)
        if not systems.h_family_member(H, X, fam):
            continue
        mins = systems.m_family(X, fam)
        for A in mins[:2]:
            m = systems.rudin_minimal(X, fam, A)
            q = systems.property_q_instance(H, X, fam, A) if core == "R" else None
            inst.append((core, fam, mins, A, m, systems.property_m_instance(H, X, fam, m), q))
    out["reflect"] = construct.reflect(X, "R")
    return out


def _check_sweep(out, counters):
    X = out["X"]
    verdicts = [v.to_json() for v in out["verdicts"]]
    crosses = [r.to_json() for r in out["cross"]]
    count_paths(counters, verdicts, crosses)
    bad = verdict_failures(X, verdicts, crosses)
    hm = out["hm"]
    if not (hm["bijective"] and hm["order_reversing"]):
        bad.append("compact/open-filter correspondence failed")
    instances = []
    for core, fam, mins, A, m, m_ok, q_ok in out["instances"]:
        if m not in mins:
            bad.append(f"shrunk set left the minimal class for {core}")
        if not m_ok:
            bad.append(f"cut family left the system for {core}")
        if q_ok is False:
            bad.append("no closed irreducible subset stayed minimal")
        instances.append([core, [X.labels_of(k) for k in fam], A.labels, m.labels, m_ok, q_ok])
    refl = out["reflect"]
    if refl.iso is None:
        bad.append("reflection is not homeomorphic to the base")
    return {"verdicts": verdicts, "cross": crosses, "hm": hm,
            "instances": instances, "reflect": refl.to_json()}, bad


def verdicts_inputs(seed: int) -> dict:
    """A fixed corpus of `random_space` structures (so that every seed runs
    the same amount of work), relabelled by the seed."""
    gen = random.Random(VERDICTS_CORPUS_SEED)
    rng = random.Random(seed)
    docs = [relabel(t0lab.random_space(gen, n).to_doc(), rng)
            for n, count in VERDICTS_CORPUS for _ in range(count)]
    index = list(range(len(docs)))
    rng.shuffle(index)
    return {"seed": seed, "index": index, "docs": [docs[i] for i in index]}


def verdicts_ops(inputs: dict) -> list[Op]:
    seed = inputs["seed"]
    return [Op(f"v{i}", lambda d=d, i=i: _sweep_instance(d, f"{seed}|{i}"), _check_sweep)
            for i, d in zip(inputs["index"], inputs["docs"])]


# -- wide: `t0lab check --cross --system R` on large structured spaces -----


def shape_doc(kind: str, n: int) -> dict:
    p = [f"p{i}" for i in range(n)]
    if kind == "chain":
        covers = [[p[i], p[i + 1]] for i in range(n - 1)]
    elif kind == "fence":
        covers = [[p[i], p[i + 1]] if i % 2 == 0 else [p[i + 1], p[i]] for i in range(n - 1)]
    elif kind == "tree":  # binary tree, root on top
        covers = [[p[c], p[(c - 1) // 2]] for c in range(1, n)]
    else:
        covers = []
    return {"points": p, "covers": covers}


def wide_inputs(seed: int, workdir: str) -> dict:
    rng = random.Random(seed)
    files = []
    for kind, n in WIDE_SHAPES:
        doc = relabel(shape_doc(kind, n), rng)
        path = os.path.join(workdir, f"{kind}{n}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        files.append((f"{kind}{n}", path, doc))
    return {"seed": seed, "files": files, "docs": [doc for _, _, doc in files]}


def _run_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _check_cli(doc):
    def check(res, counters):
        rc, out, err = res
        counters["cli.stdout_bytes"] += len(out.encode())
        bad = [] if rc == 0 else [": ".join([f"exit {rc}"] + err.strip().splitlines()[:1])]
        if rc in (0, 1):
            payload = json.loads(out)
            verdicts = payload["verdict"]["verdicts"]
            count_paths(counters, verdicts, payload["crosschecks"])
            bad += verdict_failures(t0lab.parse_space(doc), verdicts, payload["crosschecks"])
        return {"rc": rc, "stdout": out, "stderr": err}, bad
    return check


def wide_ops(inputs: dict) -> list[Op]:
    return [Op(name, lambda path=path: _run_cli(["check", path, "--cross", "--system", "R"]),
               _check_cli(doc))
            for name, path, doc in inputs["files"]]


# -- maps: exhaustive map work over the small classes ---------------------


def maps_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    classes = {n: [relabel(X.to_doc(), rng) for X in construct.enumerate_posets(n)]
               for n in range(1, 6)}
    small = [d for n in range(1, 5) for d in classes[n]]
    base = [d for n in range(1, 6) for d in classes[n]]
    pairs = [("pair", a, b) for a in small for b in small]
    pairs += [("product", a, b) for a, b in combinations_with_replacement(base, 2)
              if len(a["points"]) + len(b["points"]) <= 6]
    rng.shuffle(pairs)
    return {"seed": seed, "pairs": pairs, "docs": base}


def _map_pair(dx: dict, dy: dict):
    X, Y = t0lab.parse_space(dx), t0lab.parse_space(dy)
    fs = construct.continuous_maps(X, Y)
    lifts = [(powers.smyth_map(f), powers.hoare_map(f, "closed")) for f in fs]
    up = construct.universal_property_verify(construct.reflect(X, "R"), Y)
    return X, Y, fs, lifts, up


def _check_map_pair(res, counters):
    X, Y, fs, lifts, up = res
    counters["maps.count"] += len(fs)
    bad = []
    SX, SY = powers.smyth(X), powers.smyth(Y)
    HX, HY = powers.hoare(X, "closed"), powers.hoare(Y, "closed")
    for P, space in ((powers.smyth_map(SpaceMap.identity(X)), SX.space),
                     (powers.hoare_map(SpaceMap.identity(X), "closed"), HX.space)):
        if P.table != tuple(range(space.n)):
            bad.append("identity law failed")
    for f, (ps, ph) in zip(fs, lifts):
        # each lift against its definition: K -> sat f(K), A -> cl f(A)
        if ps.table != tuple(SY.index[Y.sat_mask(f.image_mask(k))] for k in SX.carrier):
            bad.append("Smyth lift differs from sat(f(K))")
        if ph.table != tuple(HY.index[Y.closure_mask(f.image_mask(a))] for a in HX.carrier):
            bad.append("Hoare lift differs from cl(f(A))")
    if not up["ok"]:
        bad.append("universal property failed")
    out = {"maps": [f.table for f in fs], "smyth": [p.table for p, _ in lifts],
           "hoare": [h.table for _, h in lifts], "up": up}
    return out, bad


def _product(da: dict, db: dict):
    return construct.product_preservation(t0lab.parse_space(da), t0lab.parse_space(db), "R")


def _check_product(rep, counters):
    bad = [] if rep["ok"] and rep["iso"] is not None else ["product preservation failed"]
    return {**rep, "iso": rep["iso"].to_json() if rep["iso"] is not None else None}, bad


def maps_ops(inputs: dict) -> list[Op]:
    ops = []
    for i, (kind, a, b) in enumerate(inputs["pairs"]):
        if kind == "pair":
            ops.append(Op(f"m{i}", lambda a=a, b=b: _map_pair(a, b), _check_map_pair))
        else:
            ops.append(Op(f"p{i}", lambda a=a, b=b: _product(a, b), _check_product))
    return ops
