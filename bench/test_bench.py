"""Tests of the benchmark harness itself: ``python3 -m pytest bench -q``."""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from t0lab import construct  # noqa: E402

from bench import run, trace, workloads  # noqa: E402
from bench.workloads import Op  # noqa: E402


def test_p90_needs_ten_samples_beyond_it():
    assert run.tail_percentile([float(x) for x in range(99)], 90) is None
    assert run.tail_percentile([float(x) for x in range(100)], 90) == 89.0
    assert run.tail_percentile([float(x) for x in range(200)], 90) == 179.0
    assert run.tail_percentile([], 90) is None


def test_self_time_subtracts_direct_children(monkeypatch, tmp_path):
    clock = iter([0, 10, 12, 20, 30, 40, 45, 100])
    monkeypatch.setattr(trace.time, "perf_counter_ns", lambda: next(clock))
    t = trace.Tracer()
    a = t.open("A")
    b = t.open("B")
    c = t.open("C")
    t.close(c)  # C: 12..20
    t.close(b)  # B: 10..30
    d = t.open("B")
    t.close(d)  # B again: 40..45
    t.close(a)  # A: 0..100
    assert list(t.parent) == [-1, 0, 1, 0]
    assert t.self_times() == {"A": (1, 100 - 20 - 5), "B": (2, (20 - 8) + 5), "C": (1, 8)}
    t.write(str(tmp_path / "spans.csv"))
    rows = (tmp_path / "spans.csv").read_text().splitlines()
    assert rows[0] == "name,start_ns,end_ns,parent,op" and rows[3] == "C,12,20,1,-1"


def test_install_rebinds_every_import_and_undoes_it():
    import t0lab
    from t0lab import cli, spaces
    orig = spaces.parse_space
    t = trace.Tracer()
    uninstall = trace.install(t)
    try:
        assert t0lab.parse_space is cli.parse_space is spaces.parse_space is not orig
        t.active = True
        t0lab.parse_space(workloads.shape_doc("chain", 3))
        t.active = False
        calls = t.self_times()
        assert calls["spaces.parse_space"][0] == 1 and calls["spaces.FiniteSpace"][0] == 1
    finally:
        uninstall()
    assert t0lab.parse_space is cli.parse_space is spaces.parse_space is orig
    assert "__wrapped__" not in vars(spaces.FiniteSpace.__init__)


def test_fail_share_counts_raises_and_exit_codes(tmp_path):
    doc = workloads.shape_doc("antichain", 7)  # h_consonant false alarm: exit 1
    path = tmp_path / "anti7.json"
    path.write_text(json.dumps(doc))
    ops = [
        Op("cap", lambda: construct.enumerate_posets(8), lambda r, c: ({}, [])),
        Op("cli", lambda: workloads._run_cli(["check", str(path), "--cross", "--system", "R"]),
           workloads._check_cli(doc)),
        Op("ok", lambda: 1, lambda r, c: ({"r": r}, [])),
    ]
    m = run.measure(lambda: ops, seconds=0, rounds=2)
    assert (m.attempted, m.failed) == (6, 4)
    assert m.failures["raised CapExceeded"] == 2
    assert m.failures["exit 1"] == 2
    assert m.failures["verdict h_consonant: holds=True agreed=False"] == 2
    assert len(set(m.round_digests)) == 1
    alarm = {"exit 1", workloads.H_CONSONANT}
    assert m.notes == {"cap": {"raised CapExceeded"}, "cli": alarm}
    # a failure is accepted only on the operation it is pinned to, and a
    # pinned operation that stops failing makes the run incorrect too
    expected = {"cli": alarm}
    assert workloads.unexpected_failures(expected, m.notes) == [
        "cap failed unexpectedly: raised CapExceeded"]
    expected = {"cap": {"raised CapExceeded"}, "cli": alarm, "ok": {"exit 3: cap exceeded"}}
    assert workloads.unexpected_failures(expected, m.notes) == ["ok did not fail as expected"]
    expected = {"cap": {"raised CapExceeded"}, "cli": {"exit 1"}}
    assert workloads.unexpected_failures(expected, m.notes) == [
        "cli failed unexpectedly: exit 1; " + workloads.H_CONSONANT]


def test_same_seed_same_digest():
    def digest(name, seed, k):
        inputs = getattr(workloads, f"{name}_inputs")(seed)
        ops = getattr(workloads, f"{name}_ops")(inputs)[:k]
        return run.measure(lambda: ops, seconds=0, rounds=1).round_digests[0]

    for name, k in (("verdicts", 6), ("maps", 40)):
        assert digest(name, 3, k) == digest(name, 3, k)
        assert digest(name, 3, k) != digest(name, 4, k)


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    m = run.Measurement()
    m.rounds, m.attempted, m.peak_rss_mb = [[2_000_000]], 1, 30.0
    m.probes = [[run.REF_NS, run.REF_NS]]
    e2e = run.end_to_end(m, ([0.2], [0.3]))
    assert all(e2e[x["name"]]["unit"] == x["unit"] for x in spec["end_to_end"])
    kernel = {f"spaces.kernel.{k}_ns": 100.0 for k in trace.KERNEL}
    layers = run.per_layer(trace.Tracer(), m, m, kernel)
    assert {k: v["unit"] for k, v in layers.items()} == {x["name"]: x["unit"] for x in spec["per_layer"]}


def test_timings_are_scaled_to_reference_speed():
    m = run.Measurement()
    r = run.REF_NS
    # round 1 runs at half speed throughout; in round 2 the second op sits
    # between probes of r and 3r, so at half speed on average
    m.rounds = [[2_000, 1_000], [1_000, 1_000]]
    m.probes = [[2 * r, 2 * r, 2 * r], [r, r, 3 * r]]
    assert m.per_op_ns() == [1_000, 500]
    assert m.wall_per_op_ns() == [1_500, 1_000]
    assert m.speed_factor() == 2.0
