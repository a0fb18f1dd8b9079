"""Benchmark for t0lab: one closed-loop caller, one thread, one workload per
process.

Run one workload (the last stdout line is a JSON result; ``--trace 0``
gives the end-to-end metrics, ``--trace 1`` the per-layer ones)::

    python3 bench/run.py --workload verdicts --seed 1 --seconds 32 --trace 0

Run every workload, traced and untraced, each in a fresh process, over
several seeds, appending each run's full record to a file::

    python3 bench/run.py --workload all --seed 1 --runs 3 --out after.jsonl

Compare two such files metric by metric against the bounds in
``BENCHMARK.json``::

    python3 bench/run.py compare before.jsonl after.jsonl

Timings are reported at a fixed reference speed.  On a shared 2-core
virtual machine (Python 3.11) the same Python code ran at 1.0x to 1.9x its
fastest speed, in phases of seconds to minutes, with CPU time equal to wall
time.  So a short probe of plain interpreter work runs right before every
operation and after the last one of a round, and each operation's wall time
is scaled by REF_NS over the mean of the two probes around it: the time the
operation would take when the probe takes REF_NS, which is about its
fastest time there.  Set-up time is scaled the same way by bare
interpreter starts around it (REF_START_S).  The wall-clock figures and
the speed factor (median probe over REF_NS) are printed beside them.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from math import ceil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verdicts", "wide", "maps")
SETUP_REPEATS = 11
KERNEL_MASKS = 4000
KERNEL_REPEATS = 5
PROBE_ITERS = 1500
REF_NS = 800_000  # a probe's time at the fastest on that machine
REF_START_S = 0.042  # the same for `python3 -c pass`


def probe() -> int:
    """ns taken by a fixed piece of interpreter work: dict, set, tuple and
    hash operations on small ints, the mix t0lab's own code runs (a plain
    arithmetic loop tracked the slow phases less well)."""
    t = time.perf_counter_ns()
    d: dict[int, int] = {}
    acc = 0
    for i in range(PROBE_ITERS):
        k = (i * 2654435761) & 1023
        d[k] = d.get(k, 0) + 1
        acc ^= hash((k, i & 7)) & k
        acc += len({k, i & 255, acc & 255})
    return time.perf_counter_ns() - t


# -- statistics ------------------------------------------------------------


def tail_percentile(samples: list[float], q: float) -> float | None:
    """Nearest-rank q-th percentile, or None unless at least ten samples
    lie beyond it (so p90 needs 100 samples)."""
    n = len(samples)
    rank = ceil(q / 100 * n)
    if n == 0 or n - rank < 10:
        return None
    return sorted(samples)[rank - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# -- one measured run ------------------------------------------------------


class Measurement:
    """Latencies, failures and output digests of whole rounds."""

    def __init__(self):
        self.rounds: list[list[int]] = []  # latency in ns of each op, per round
        self.probes: list[list[int]] = []  # probe ns before each op and after the last
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.notes: dict[str, set[str]] = {}  # failure notes of each failing op
        self.round_digests: list[str] = []
        self.counters: Counter = Counter()
        # after the first round: later rounds add garbage that the cyclic
        # collector frees at times of its own, so a peak taken over all
        # rounds would grow with the number of rounds a run fits
        self.peak_rss_mb = 0.0

    def per_op_ns(self) -> list[float]:
        """Each operation's median over its repetitions, at reference speed
        (see the module docstring).  The probes do not see speed changes
        inside a long operation, so a repetition can be off by a third;
        the median drops such a repetition where the mean would not."""
        return [statistics.median(r) for r in zip(*(
            [lat * 2 * REF_NS / (p[i] + p[i + 1]) for i, lat in enumerate(lats)]
            for lats, p in zip(self.rounds, self.probes)))]

    def wall_per_op_ns(self) -> list[float]:
        return [statistics.fmean(r) for r in zip(*self.rounds)]

    def speed_factor(self) -> float:
        """How much slower than at REF_NS the machine ran (median probe)."""
        return statistics.median(x for p in self.probes for x in p) / REF_NS


def measure(make_ops, seconds: float, rounds: int | None = None,
            tracer=None) -> Measurement:
    """Run whole rounds of operations: as many as fit ``seconds`` (at least
    one), or exactly ``rounds``.  Only ``op.run`` is timed."""
    m = Measurement()
    t0 = time.perf_counter()
    while True:
        ops = make_ops()
        latencies = []
        probes = []
        payloads = []
        for op in ops:
            probes.append(probe())
            if tracer is not None:
                tracer.op_id = m.attempted
                tracer.active = True
            start = time.perf_counter_ns()
            try:
                result, error = op.run(), None
            except Exception as e:  # a raising operation is a failed operation
                result, error = None, e
            latencies.append(time.perf_counter_ns() - start)
            if tracer is not None:
                tracer.active = False
            m.attempted += 1
            if error is None:
                try:
                    payload, bad = op.check(result, m.counters)
                except Exception as e:
                    payload = {"check_raised": traceback.format_exception_only(e)[-1].strip()}
                    bad = [f"check raised {type(e).__name__}"]
            else:
                payload = {"raised": traceback.format_exception_only(error)[-1].strip()}
                bad = [f"raised {type(error).__name__}"]
            if bad:
                m.failed += 1
                m.failures.update(set(bad))
                m.notes.setdefault(op.key, set()).update(bad)
            payloads.append(op.key.encode() + json.dumps(payload, sort_keys=True, default=str).encode())
        probes.append(probe())
        m.rounds.append(latencies)
        m.probes.append(probes)
        m.round_digests.append(hashlib.sha256(b"".join(payloads)).hexdigest())
        done = len(m.rounds)
        if done == 1:
            m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = time.perf_counter() - t0
        if done == rounds or (rounds is None and elapsed * (done + 1) / done > seconds):
            return m


def setup(workload: str, seed: int, workdir: str) -> dict:
    from bench import workloads as w
    if workload == "wide":
        return w.wide_inputs(seed, workdir)
    return getattr(w, f"{workload}_inputs")(seed)


def ops_factory(workload: str, inputs: dict):
    from bench import workloads as w
    make = getattr(w, f"{workload}_ops")
    return lambda: make(inputs)


def bare_start() -> float:
    """Wall time of a bare interpreter start, the reference for set-up."""
    t = time.perf_counter()
    subprocess.Popen([sys.executable, "-c", "pass"]).wait()
    return time.perf_counter() - t


def setup_times(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Time of fresh processes that start, import t0lab, generate the
    inputs and exit: the set-up a user pays before the first operation.
    Returns the times at reference speed and as measured.  Process start
    slows more than the probe in the slow phases, so set-up is scaled by
    bare interpreter starts right before and after it instead:
    REF_START_S over their mean."""
    scaled, wall = [], []
    ref = [bare_start()]
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        # a blocking wait: waiting with a timeout polls in steps of up to 50 ms
        rc = subprocess.Popen([sys.executable, __file__, "--setup-only", "--workload", workload,
                               "--seed", str(seed)], cwd=ROOT).wait()
        wall.append(time.perf_counter() - t)
        if rc != 0:
            raise SystemExit(f"set-up for {workload} exited with {rc}")
        ref.append(bare_start())
        scaled.append(wall[-1] * 2 * REF_START_S / (ref[-2] + ref[-1]))
    return scaled, wall


def kernel_probes(docs: list[dict], seed: int) -> dict[str, float]:
    """ns per call of the order-calculus kernel on seeded masks over the
    workload's spaces (median of repeats, at reference speed)."""
    import t0lab
    spaces = [t0lab.parse_space(d) for d in docs]
    rng = random.Random(seed)
    per = max(1, KERNEL_MASKS // len(spaces))
    work = [(X, [rng.getrandbits(X.n) for _ in range(per)]) for X in spaces]
    calls = per * len(spaces)
    out = {}
    for name, attr in (("closure", "closure_mask"), ("sat", "sat_mask"), ("ubs", "ubs_mask"),
                       ("max", "max_mask"), ("top", "top_of")):
        runs = []
        for _ in range(KERNEL_REPEATS):
            before = probe()
            t = time.perf_counter_ns()
            for X, masks in work:
                f = getattr(X, attr)
                for mask in masks:
                    f(mask)
            ns = time.perf_counter_ns() - t
            runs.append(ns * 2 * REF_NS / (before + probe()) / calls)
        out[f"spaces.kernel.{name}_ns"] = statistics.median(runs)
    return out


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(m: Measurement, setup_s: tuple[list[float], list[float]]) -> dict:
    """Per-operation timings at reference speed (each operation's median
    over the rounds); ``samples`` counts the operations of one round.  The
    ``wall_`` figures are the same without the scaling."""
    ms = [x / 1e6 for x in m.per_op_ns()]
    wall = [x / 1e6 for x in m.wall_per_op_ns()]
    n = len(ms)
    out = {
        "ops_per_s": metric(n / (sum(ms) / 1e3), "1/s", n),
        "latency_p50_ms": metric(statistics.median(ms), "ms", n),
        "wall_ops_per_s": metric(n / (sum(wall) / 1e3), "1/s", n),
        "wall_latency_p50_ms": metric(statistics.median(wall), "ms", n),
        "speed_factor": metric(m.speed_factor(), "x", sum(map(len, m.probes))),
    }
    p90 = tail_percentile(ms, 90)
    if p90 is not None:
        out["latency_p90_ms"] = metric(p90, "ms", n)
    out["fail_share"] = metric(m.failed / m.attempted, "share", m.attempted)
    out["peak_rss_mb"] = metric(m.peak_rss_mb, "MB", 1)
    scaled, wall = setup_s
    out["setup_s"] = metric(statistics.median(scaled), "s", len(scaled))
    out["wall_setup_s"] = metric(statistics.median(wall), "s", len(wall))
    return out


def per_layer(tracer, m: Measurement, plain: Measurement, kernel: dict) -> dict:
    from bench import trace
    ops = m.attempted
    times = tracer.self_times()
    speed = m.speed_factor()  # self times at reference speed, as a whole
    out = {}
    for name in trace.span_names():
        calls, self_ns = times.get(name, (0, 0))
        out[f"{name}.calls"] = metric(calls / ops, "calls/op", ops)
        out[f"{name}.self_ms"] = metric(self_ns / 1e6 / ops / speed, "ms/op", ops)
    counts = tracer.counters + m.counters
    for name in trace.COUNTERS:
        unit = "B/op" if name.endswith("bytes") else "1/op"
        out[name] = metric(counts[name] / ops, unit, ops)
    for name, ns in kernel.items():
        out[name] = metric(ns, "ns", KERNEL_REPEATS)
    out["trace.overhead"] = metric(sum(m.per_op_ns()) / sum(plain.per_op_ns()), "x", ops)
    return out


def run_here(args) -> int:
    """One run of one workload in this process, or a set-up child."""
    import t0lab
    if Path(t0lab.__file__).resolve().parent != ROOT / "src" / "t0lab":
        print(f"t0lab was imported from {t0lab.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    from bench import workloads as w
    setup_s = ([], []) if args.setup_only or args.trace else setup_times(args.workload, args.seed)
    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        inputs = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            return 0
        make_ops = ops_factory(args.workload, inputs)
        if args.trace:
            from bench import trace
            tracer = trace.Tracer()
            uninstall = trace.install(tracer)
            # one traced round and the same round untraced: the per-layer
            # figures are per-operation means, and the ratio of the two
            # rounds is the tracing overhead
            try:
                m = measure(make_ops, args.seconds, rounds=1, tracer=tracer)
            finally:
                uninstall()
            plain = measure(make_ops, args.seconds, rounds=1)
            metrics = per_layer(tracer, m, plain, kernel_probes(inputs["docs"], args.seed))
            if args.spans:
                tracer.write(args.spans)
            digests = m.round_digests + plain.round_digests
        else:
            m = measure(make_ops, args.seconds)
            metrics = end_to_end(m, setup_s)
            digests = m.round_digests
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report(args, w, m, digests, metrics)


def report(args, w, m: Measurement, digests: list[str], metrics: dict) -> int:
    problems = w.unexpected_failures(w.EXPECTED_FAILURES[args.workload], m.notes)
    if len(set(digests)) != 1:
        problems.append("rounds produced different outputs")
    if args.workload == "maps" and m.counters["maps.count"] != w.MAPS_PER_ROUND * len(m.round_digests):
        problems.append(f"map count {m.counters['maps.count']} is not "
                        f"{w.MAPS_PER_ROUND} per round")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(m.round_digests),
        "correct": not problems, "problems": problems,
        "attempted": m.attempted, "failed": m.failed,
        "fail_share": m.failed / m.attempted,
        "output_digest": m.round_digests[0],
        "failures": dict(sorted(m.failures.items())),
        "metrics": metrics,
    }
    print_record(record)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result_line(record, args.trace)))
    return 0


def result_line(record: dict, traced: bool) -> dict:
    """The last stdout line: exactly the metrics named in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [x["name"] for x in spec["per_layer" if traced else "end_to_end"]]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": record["metrics"][k]["value"],
                        "unit": record["metrics"][k]["unit"]} for k in names},
    }


def print_record(r: dict) -> None:
    print(f"workload {r['workload']}  seed {r['seed']}  trace {int(r['trace'])}  "
          f"rounds {r['rounds']}  operations {r['attempted']}  failed {r['failed']}")
    for name, x in r["metrics"].items():
        print(f"  {name:48s} {x['value']:>14.6g} {x['unit']:9s} samples {x['samples']}")
    if not r["trace"] and "latency_p90_ms" not in r["metrics"]:
        print(f"  {'latency_p90_ms':48s} {'n/a':>14s}           needs 100 samples")
    print(f"  output_digest {r['output_digest']}")
    for note, k in r["failures"].items():
        print(f"  failure x{k}: {note}")
    for p in r["problems"]:
        print(f"  INCORRECT: {p}")


# -- suite and comparison --------------------------------------------------


def run_suite(args) -> int:
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace is None else (args.trace,)
    results = []
    for k in range(args.runs):
        for name in names:
            for tr in traces:
                cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed + k),
                       "--seconds", str(args.seconds), "--trace", str(tr)]
                if args.out:
                    cmd += ["--out", args.out]
                p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
                sys.stderr.write(p.stderr)
                lines = p.stdout.rstrip("\n").splitlines()
                print("\n".join(lines[:-1]), flush=True)
                if p.returncode != 0 or not lines:
                    print(f"{name} seed {args.seed + k} trace {tr}: exit {p.returncode}")
                    return 1
                results.append(json.loads(lines[-1]))
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "runs": len(results),
    }))
    return 0


def load_records(path: str) -> dict:
    out: dict = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                r = json.loads(line)
                out.setdefault((r["workload"], bool(r["trace"])), []).append(r)
    return out


def compare(before: str, after: str) -> int:
    """Medians and quartiles per metric; flags end-to-end regressions beyond
    the bounds in BENCHMARK.json, and spreads too wide to decide."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {x["name"]: x for x in spec["end_to_end"]}
    a, b = load_records(before), load_records(after)
    regressions = 0
    for key in sorted(set(a) & set(b)):
        ra, rb = a[key], b[key]
        print(f"== {key[0]} ({'traced' if key[1] else 'untraced'}): "
              f"{len(ra)} runs before, {len(rb)} after")
        for label in ("fail_share", "output_digest"):
            sa = {r["seed"]: r[label] for r in ra}
            sb = {r["seed"]: r[label] for r in rb}
            changed = sorted(s for s in set(sa) & set(sb) if sa[s] != sb[s])
            print(f"  {label:48s} " + (f"CHANGED on seeds {changed}" if changed else
                                       f"same on {len(set(sa) & set(sb))} common seeds"))
        for name in ra[0]["metrics"]:
            xa = [r["metrics"][name]["value"] for r in ra if name in r["metrics"]]
            xb = [r["metrics"][name]["value"] for r in rb if name in r["metrics"]]
            if not xa or not xb:
                continue
            qa, qb = quartiles(xa), quartiles(xb)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            flag = ""
            if name in bounds:
                bound = bounds[name]["bound"]
                lower = bounds[name]["better"] == "lower"
                worse = change if lower else -change
                spread = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
                all_better = max(xb) < min(xa) if lower else min(xb) > max(xa)
                if worse > bound:
                    flag = f"REGRESSION (bound {bound:.0%})"
                    regressions += 1
                elif spread > bound and not all_better:
                    flag = f"unresolved (spread {spread:.0%} > bound {bound:.0%})"
                else:
                    flag = f"ok (bound {bound:.0%})"
            print(f"  {name:48s} {qa[1]:>12.6g} [{qa[0]:.6g}, {qa[2]:.6g}] -> "
                  f"{qb[1]:>12.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {change:+7.1%} {flag}")
    return 1 if regressions else 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare BEFORE.jsonl AFTER.jsonl", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=32)
    p.add_argument("--trace", type=int, choices=(0, 1),
                   help="0: end-to-end metrics, 1: per-layer metrics; omitted: both")
    p.add_argument("--runs", type=int, default=1, help="consecutive seeds to run")
    p.add_argument("--out", help="append each run's full record to this JSONL file")
    p.add_argument("--spans", help="with --trace 1, write the spans to this CSV file")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.setup_only and (args.workload == "all" or args.trace is None or args.runs > 1):
        return run_suite(args)
    return run_here(args)


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
