"""Command-line front end.

Exit codes: 0 success; 1 a property violation, characterization
disagreement, or sweep failure; 2 malformed input or usage error;
3 an enumeration cap was exceeded; 4 an internal invariant broke (a bug).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys

from .config import Caps, RunConfig
from .errors import CapExceeded, InternalError, SpaceParseError, T0LabError, UsageError
from .spaces import FiniteSpace, parse_space, random_space, to_dot
from . import checkers, construct, powers, systems

_CAP_NAMES = [f.name for f in dataclasses.fields(Caps)]


def _load_space(path: str) -> FiniteSpace:
    if path == "-":
        return parse_space(sys.stdin.read())
    with open(path) as fh:
        return parse_space(fh.read())


def _emit(args, payload) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        _emit_text(payload)


def _emit_text(payload, indent: str = "") -> None:
    if isinstance(payload, dict):
        for k, v in payload.items():
            if isinstance(v, (dict, list)):
                print(f"{indent}{k}:")
                _emit_text(v, indent + "  ")
            else:
                print(f"{indent}{k}: {v}")
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                _emit_text(v, indent + "  ")
                print()
            else:
                print(f"{indent}- {v}")
    else:
        print(f"{indent}{payload}")


def _config(args) -> RunConfig:
    caps = Caps()
    overrides = {}
    for name in _CAP_NAMES:
        v = getattr(args, f"cap_{name}", None)
        if v is not None:
            # a sampled path over no samples would read true unearned
            least = 1 if name == "sample_count" else 0
            if v < least:
                raise UsageError(f"--cap-{name.replace('_', '-')} must be at least {least}, got {v}")
            overrides[name] = v
    if overrides:
        caps = caps.with_(**overrides)
    return RunConfig(caps=caps, seed=args.seed)


# -- subcommands ----------------------------------------------------------


def _cmd_inspect(args) -> int:
    X = _load_space(args.space)
    config = _config(args)
    info = {
        "points": list(X.labels),
        "relation": [
            [X.labels[i], X.labels[j]]
            for i in range(X.n)
            for j in range(X.n)
            if i != j and (X.up[i] >> j) & 1
        ],
        "covers": [[X.labels[a], X.labels[b]] for a, b in X.cover_pairs()],
        "maximal": sorted(X.labels_of(X.max_mask(X.full))),
        "minimal": sorted(X.labels_of(X.min_mask(X.full))),
    }
    if X.n <= config.caps.family_listing:
        opens = X.upsets()
        info["open_sets"] = len(opens)
        info["closed_sets"] = len(opens)
        info["compact_saturated"] = len(X.nonempty_upsets())
        info["irreducible_closed"] = [
            sorted(X.labels_of(d)) for d in X.irr_downsets()
        ]
    _emit(args, info)
    return 0


def _cmd_check(args) -> int:
    X = _load_space(args.space)
    config = _config(args)
    if args.cross and args.system is None:
        raise UsageError("--cross needs --system")
    rc = 0
    payload = {}
    if args.property == "all":
        verdicts = checkers.check_all(X, config)
        payload["verdicts"] = [v.to_json() for v in verdicts]
        if any(not v.ok for v in verdicts):
            rc = 1
    else:
        v = checkers.check(X, args.property, args.system, config)
        payload = v.to_json()
        if not v.ok:
            rc = 1
    if args.cross:
        r1 = checkers.crosscheck_h_sober(X, args.system, config)
        r2 = checkers.crosscheck_super(X, args.system, config)
        payload = {"verdict": payload, "crosschecks": [r1.to_json(), r2.to_json()]}
        if not (r1.agreed and r2.agreed):
            rc = 1
    _emit(args, payload)
    return rc


def _cmd_construct(args) -> int:
    config = _config(args)
    X = _load_space(args.space)
    if args.what in ("product", "function-space", "maps") and args.other is None:
        raise UsageError(f"construct {args.what} needs a second space")
    if args.what == "product":
        P = construct.product(X, _load_space(args.other), config)
        _emit(args, P.space.to_doc())
    elif args.what == "maps":
        ms = construct.continuous_maps(X, _load_space(args.other), config)
        _emit(args, {"count": len(ms), "maps": [m.to_json() for m in ms[:50]]})
    elif args.what == "function-space":
        F = construct.function_space(X, _load_space(args.other), config)
        _emit(args, F.to_doc())
    elif args.what == "smyth":
        S = powers.smyth(X, config)
        _emit(args, {
            "carrier": [sorted(X.labels_of(k)) for k in S.carrier],
            "points": list(S.space.labels),
            "embedding": powers.xi_embed(X, config).to_json(),
        })
    elif args.what == "hoare":
        H = powers.hoare(X, "irr_closed", config)
        _emit(args, {
            "carrier": [sorted(X.labels_of(c)) for c in H.carrier],
            "points": list(H.space.labels),
        })
    else:
        raise UsageError(f"unknown construction {args.what!r}")
    return 0


def _cmd_reflect(args) -> int:
    config = _config(args)
    X = _load_space(args.space)
    refl = construct.reflect(X, args.system, args.kind, config)
    payload = refl.to_json()
    rc = 0
    if args.verify_universal:
        reports = []
        ok = True
        for n in range(1, config.caps.target_bound + 1):
            for Y in construct.enumerate_posets(n):
                rep = construct.universal_property_verify(refl, Y, None, config)
                ok = ok and rep["ok"]
                reports.append(rep)
        payload["universal_property"] = {
            "targets": len(reports),
            "ok": ok,
            "maps_checked": sum(r["maps_checked"] for r in reports),
        }
        if not ok:
            rc = 1
    _emit(args, payload)
    return rc


def _cmd_zoo(args) -> int:
    from . import zoo
    if args.zoo_space is None:
        _emit(args, {"spaces": sorted(zoo.SPACES), "claims": [
            f"{s}.{c}" for s, c in zoo.list_claims()
        ]})
        return 0
    if args.claim is None:
        claims = [c for s, c in zoo.list_claims() if s == args.zoo_space]
        if not claims:
            raise UsageError(f"unknown symbolic space {args.zoo_space!r}")
        _emit(args, {"space": args.zoo_space, "claims": claims})
        return 0
    rep = zoo.verify_claim(args.zoo_space, args.claim)
    _emit(args, rep.to_json())
    return 0 if rep.verdict != "refuted" else 1


def _cmd_render(args) -> int:
    X = _load_space(args.space)
    highlight = args.highlight.split(",") if args.highlight else ()
    print(to_dot(X, name=args.name, highlight=highlight))
    return 0


# -- sweep ----------------------------------------------------------------


def _sweep_one(X, config, rng) -> list[str]:
    """Run the invariant battery on one space; returns violation notes."""
    bad = []
    for v in checkers.check_all(X, config):
        if not v.ok:
            bad.append(f"{v.property}[{v.system}] holds={v.holds} agreed={v.characterizations_agreed}")
    for Hid in systems.BASE_IDS:
        r1 = checkers.crosscheck_h_sober(X, Hid, config)
        if not r1.agreed:
            bad.append(f"crosscheck_h_sober[{Hid}] disagreed")
        r2 = checkers.crosscheck_super(X, Hid, config)
        if not r2.agreed:
            bad.append(f"crosscheck_super[{Hid}] disagreed")
    rep = powers.hofmann_mislove_report(X, config)
    if not (rep["bijective"] and rep["order_reversing"]):
        bad.append("compact/open-filter correspondence failed")
    # sampled minimal-closed-set instances
    for core in ("S", "C", "D", "R"):
        H = systems.SubsetSystemId(core)
        fam = systems.sample_family(rng, X, X.nonempty_upsets(), 0 if core == "S" else 3, core == "C")
        if not systems.h_family_member(H, X, fam):
            continue
        mins = systems.m_family(X, fam, config)
        for A in mins[:2]:
            m = systems.rudin_minimal(X, fam, A)
            if m not in mins:
                bad.append(f"shrunk set left the minimal class for {core}")
            if not systems.property_m_instance(H, X, fam, m):
                bad.append(f"cut family left the system for {core}")
        if core == "R":
            for A in mins[:2]:
                if not systems.property_q_instance(H, X, fam, A, config):
                    bad.append("no closed irreducible subset stayed minimal")
    refl = construct.reflect(X, "R", "h_sobrification", config)
    if refl.iso is None:
        bad.append("reflection is not homeomorphic to the base")
    return bad


def _minimize(X, config, rng_seed) -> FiniteSpace:
    """Greedily drop points while the violation persists."""
    cur = X
    changed = True
    while changed and cur.n > 1:
        changed = False
        for i in range(cur.n):
            sub = cur.subspace(cur.full & ~(1 << i))
            if _sweep_one(sub, config, random.Random(rng_seed)):
                cur = sub
                changed = True
                break
    return cur


def _cmd_sweep(args) -> int:
    config = _config(args)
    if args.max_points < 1:
        raise UsageError(f"--max-points must be at least 1, got {args.max_points}")
    if args.count < 0:
        raise UsageError(f"--count must be at least 0, got {args.count}")
    rng = random.Random(args.seed)
    reports = []
    for i in range(args.count):
        X = random_space(rng, args.max_points)
        inst_rng = random.Random(f"{args.seed}|{i}")
        bad = _sweep_one(X, config, inst_rng)
        reports.append({"index": i, **X.to_doc(), "violations": bad})
        if bad:
            small = _minimize(X, config, f"{args.seed}|{i}")
            print(json.dumps({
                "sweep": "violation",
                "instance": i,
                "violations": bad,
                "minimized": small.to_doc(),
            }, indent=2, sort_keys=True))
            return 1
    payload = {
        "seed": args.seed,
        "count": args.count,
        "max_points": args.max_points,
        "violations": 0,
        "spaces": reports,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


# -- parser ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="t0lab",
        description="Exact workbench for finite T0 spaces: order calculus, "
        "sobriety-style checkers, power spaces, reflections, and a catalog "
        "of symbolic counterexample spaces.",
    )
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--seed", type=int, default=0)
    for name in _CAP_NAMES:
        p.add_argument(f"--cap-{name.replace('_', '-')}", dest=f"cap_{name}", type=int)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("inspect", help="show a space's order and derived families")
    sp.add_argument("space", help="JSON space document path, or - for stdin")
    sp.set_defaults(fn=_cmd_inspect)

    sp = sub.add_parser("check", help="run property checkers")
    sp.add_argument("space")
    sp.add_argument("--property", default="all", choices=("all",) + checkers.PROPERTY_IDS)
    sp.add_argument("--system", help="subset system id, e.g. S, C, Cω, D, Dω, R, Rω, D^d")
    sp.add_argument("--cross", action="store_true", help="also run the characterization crosschecks")
    sp.set_defaults(fn=_cmd_check)

    sp = sub.add_parser("construct", help="products, map spaces, power spaces")
    sp.add_argument("what", choices=("product", "maps", "function-space", "smyth", "hoare"))
    sp.add_argument("space")
    sp.add_argument("other", nargs="?")
    sp.set_defaults(fn=_cmd_construct)

    sp = sub.add_parser("reflect", help="build a sobriety-style reflection")
    sp.add_argument("space")
    sp.add_argument("--system", default="R")
    sp.add_argument("--kind", default="h_sobrification",
                    choices=("sobrification", "h_sobrification", "super_h_sobrification"))
    sp.add_argument("--verify-universal", action="store_true",
                    help="verify the universal property against all small targets")
    sp.set_defaults(fn=_cmd_reflect)

    sp = sub.add_parser("zoo", help="symbolic counterexample catalog")
    sp.add_argument("zoo_space", nargs="?")
    sp.add_argument("claim", nargs="?")
    sp.set_defaults(fn=_cmd_zoo)

    sp = sub.add_parser("sweep", help="randomized invariant sweep")
    # SUPPRESS keeps a top-level --seed intact when the flag is absent here
    sp.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sp.add_argument("--count", type=int, default=20)
    sp.add_argument("--max-points", type=int, default=6)
    sp.set_defaults(fn=_cmd_sweep)

    sp = sub.add_parser("render", help="emit Graphviz DOT for a space")
    sp.add_argument("space")
    sp.add_argument("--name", default="space")
    sp.add_argument("--highlight", help="comma-separated point labels")
    sp.set_defaults(fn=_cmd_render)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CapExceeded as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return 3
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4
    except (SpaceParseError, UsageError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except T0LabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
