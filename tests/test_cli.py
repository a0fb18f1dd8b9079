import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mutants
from t0lab import FiniteSpace, checkers, cli, construct, parse_space, powers, systems
from t0lab.cli import main
from t0lab.errors import InternalError
from t0lab.spaces import SpaceMap, chain_core

DIAMOND = {
    "points": ["bot", "l", "r", "top"],
    "covers": [["bot", "l"], ["bot", "r"], ["l", "top"], ["r", "top"]],
}
SIER = {"points": ["a", "b"], "covers": [["a", "b"]]}


@pytest.fixture
def diamond_doc(tmp_path):
    p = tmp_path / "diamond.json"
    p.write_text(json.dumps(DIAMOND))
    return str(p)


@pytest.fixture
def sier_doc(tmp_path):
    p = tmp_path / "sier.json"
    p.write_text(json.dumps(SIER))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


# -- inspect / render ------------------------------------------------------


def test_inspect(capsys, diamond_doc):
    code, doc = run_json(capsys, "inspect", diamond_doc)
    assert code == 0
    assert doc["points"] == ["bot", "l", "r", "top"]
    assert doc["minimal"] == ["bot"] and doc["maximal"] == ["top"]
    assert ["bot", "l"] in doc["covers"]
    assert sorted(map(sorted, doc["irreducible_closed"])) == [
        ["bot"], ["bot", "l"], ["bot", "l", "r", "top"], ["bot", "r"],
    ]


def test_inspect_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(SIER)))
    code, doc = run_json(capsys, "inspect", "-")
    assert code == 0 and doc["points"] == ["a", "b"]


def test_render_dot(capsys, diamond_doc):
    code, out = run(capsys, "render", diamond_doc, "--highlight", "l,top")
    assert code == 0
    assert out.startswith("digraph") and '"bot" -> "l"' in out


# -- check -----------------------------------------------------------------


def test_check_single_property(capsys, sier_doc):
    code, doc = run_json(capsys, "check", sier_doc, "--property", "sober")
    assert code == 0
    assert doc["property"] == "sober" and doc["holds"]
    assert doc["characterizations_agreed"] is True
    assert doc["evidence"]["generic_points"] == {"{a}": "a", "{a,b}": "b"}


def test_check_all(capsys, diamond_doc):
    code, doc = run_json(capsys, "check", diamond_doc)
    assert code == 0
    assert len(doc["verdicts"]) == 6 + 7 * 7
    assert all(v["holds"] for v in doc["verdicts"])


def test_check_accepts_labels_holding_reserved_characters(capsys, tmp_path):
    # unescaped, the compacts {a, b} and {"a,b"} would share the set label {a,b}
    p = tmp_path / "commas.json"
    p.write_text(json.dumps({"points": ["a", "b", "a,b"], "covers": []}))
    code, doc = run_json(capsys, "check", str(p))
    assert code == 0
    assert all(v["holds"] for v in doc["verdicts"])


def test_check_with_crosschecks(capsys, diamond_doc):
    code, doc = run_json(
        capsys, "check", diamond_doc, "--property", "h_sober",
        "--system", "D", "--cross",
    )
    assert code == 0
    assert doc["verdict"]["holds"] is True
    assert len(doc["crosschecks"]) == 2
    assert all(c["agreed"] for c in doc["crosschecks"])
    code, _ = run(capsys, "check", diamond_doc, "--cross")
    assert code == 2  # --cross without --system


def test_cross_without_system_fails_before_any_checker(capsys, monkeypatch, diamond_doc):
    calls = []

    def check_all(*args):
        calls.append(args)
        raise AssertionError("a checker ran before the usage error")

    monkeypatch.setattr(checkers, "check_all", check_all)
    code, _ = run(capsys, "check", diamond_doc, "--cross")
    assert code == 2 and calls == []


def test_check_h_property_needs_system(capsys, diamond_doc):
    code, _ = run(capsys, "check", diamond_doc, "--property", "h_sober")
    assert code == 2
    code, doc = run_json(
        capsys, "check", diamond_doc, "--property", "h_sober", "--system", "D"
    )
    assert code == 0 and doc["system"] == "D"


def test_check_fast_and_text_format(capsys, diamond_doc):
    code, out = run(
        capsys, "--format", "text", "check", diamond_doc,
        "--property", "d_space",
    )
    assert code == 0
    assert "d_space" in out and "true" in out.lower()


# -- construct -------------------------------------------------------------


def test_construct_product(capsys, sier_doc, diamond_doc):
    code, doc = run_json(capsys, "construct", "product", sier_doc, diamond_doc)
    assert code == 0 and len(doc["points"]) == 8


def test_construct_product_needs_two_spaces(capsys, sier_doc):
    code, _ = run(capsys, "construct", "product", sier_doc)
    assert code == 2


def test_construct_maps_and_cap(capsys, sier_doc, diamond_doc):
    code, doc = run_json(capsys, "construct", "maps", sier_doc, diamond_doc)
    assert code == 0
    assert doc["count"] == len(doc["maps"]) == 9
    code, _ = run(
        capsys, "--cap-map-count", "3", "construct", "maps", sier_doc, diamond_doc
    )
    assert code == 3  # cap exhaustion has its own exit code


def test_construct_smyth_and_hoare(capsys, diamond_doc):
    code, doc = run_json(capsys, "construct", "smyth", diamond_doc)
    assert code == 0 and len(doc["points"]) == 5
    assert doc["embedding"] is not None
    code, doc = run_json(capsys, "construct", "hoare", diamond_doc)
    assert code == 0 and len(doc["points"]) == 4  # point closures


def test_construct_function_space(capsys, sier_doc):
    code, doc = run_json(capsys, "construct", "function-space", sier_doc, sier_doc)
    assert code == 0 and len(doc["points"]) == 3


# -- reflect ---------------------------------------------------------------


def test_reflect_with_universal_check(capsys, sier_doc):
    code, doc = run_json(
        capsys, "--cap-target-bound", "3",
        "reflect", sier_doc, "--system", "R", "--verify-universal",
    )
    assert code == 0
    assert doc["points"] == 2
    assert doc["iso_to_base"] is not None
    assert doc["universal_property"]["ok"] is True
    assert doc["universal_property"]["targets"] == 1 + 2 + 5


# -- zoo -------------------------------------------------------------------


def test_zoo_listing(capsys):
    code, doc = run_json(capsys, "zoo")
    assert code == 0 and len(doc["claims"]) == 9
    assert sorted(doc["spaces"]) == ["cocountable", "cofinite_nat", "johnstone"]


def test_zoo_space_listing(capsys):
    code, doc = run_json(capsys, "zoo", "johnstone")
    assert code == 0
    assert sorted(doc["claims"]) == [
        "is_dcpo_d_space", "not_well_filtered", "tails_compact",
    ]


def test_zoo_claim_verification(capsys):
    code, doc = run_json(capsys, "zoo", "johnstone", "not_well_filtered")
    assert code == 0
    assert doc["verdict"] == "verified" and doc["transcript"]
    code, doc = run_json(capsys, "zoo", "cocountable", "wf_not_sober")
    assert code == 0 and doc["verdict"] == {"checked_to_depth": 12}


def test_zoo_unknown_claim(capsys):
    code, _ = run(capsys, "zoo", "johnstone", "is_a_lattice")
    assert code == 2


# a fresh interpreter: import t0lab, run ``check`` and then ``zoo`` through
# runpy as ``python -m t0lab`` would, noting after each step whether the zoo
# module is loaded
_FRESH_PROCESS = """
import contextlib, io, json, runpy, sys
space = sys.argv[1]
import t0lab
loaded = ["t0lab.zoo" in sys.modules]


def cli(*argv):
    sys.argv = ["t0lab", *argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            runpy.run_module("t0lab", run_name="__main__")
        except SystemExit as e:
            return [e.code, out.getvalue()]


check = cli("check", space)
loaded.append("t0lab.zoo" in sys.modules)
claims = t0lab.list_claims()
from t0lab import verify_claim
print(json.dumps({
    "loaded": loaded, "check": check, "claims": claims, "zoo": cli("zoo", "johnstone", "not_well_filtered"),
    "verify_claim": verify_claim is sys.modules["t0lab.zoo"].verify_claim,
}))
"""


def test_the_zoo_loads_on_first_use(capsys, diamond_doc):
    from t0lab import zoo

    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", _FRESH_PROCESS, diamond_doc], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    doc = json.loads(proc.stdout)
    assert doc["loaded"] == [False, False]
    assert doc["check"] == list(run(capsys, "check", diamond_doc))
    assert doc["claims"] == [list(c) for c in zoo.list_claims()] and doc["verify_claim"]
    assert doc["zoo"] == list(run(capsys, "zoo", "johnstone", "not_well_filtered"))


# -- sweep -----------------------------------------------------------------


def test_sweep_is_deterministic(capsys):
    code1, out1 = run(capsys, "sweep", "--seed", "7", "--count", "4", "--max-points", "5")
    code2, out2 = run(capsys, "sweep", "--seed", "7", "--count", "4", "--max-points", "5")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["violations"] == 0 and len(doc["spaces"]) == 4
    assert all(s["violations"] == [] for s in doc["spaces"])
    # top-level --seed spells the same run
    code3, out3 = run(capsys, "--seed", "7", "sweep", "--count", "4", "--max-points", "5")
    assert code3 == 0 and out3 == out1


def test_sweep_seed_changes_the_run(capsys):
    _, out1 = run(capsys, "sweep", "--seed", "7", "--count", "3", "--max-points", "4")
    _, out2 = run(capsys, "sweep", "--seed", "8", "--count", "3", "--max-points", "4")
    assert json.loads(out1)["seed"] == 7
    assert json.loads(out2)["seed"] == 8


def test_sweep_rejects_max_points_below_one(capsys):
    assert main(["sweep", "--max-points", "0", "--count", "1"]) == 2
    assert "--max-points must be at least 1" in capsys.readouterr().err


def test_sweep_rejects_a_negative_count(capsys):
    assert main(["sweep", "--count", "-1"]) == 2
    assert "--count must be at least 0" in capsys.readouterr().err


def test_negative_cap_is_a_usage_error(capsys, diamond_doc):
    assert main(["--cap-sample-count", "-1", "check", diamond_doc, "--property", "sober"]) == 2
    assert "--cap-sample-count must be at least 1" in capsys.readouterr().err


def test_zero_sample_count_is_a_usage_error(capsys, tmp_path):
    # with no samples, the sampled paths of h_bounded would read true
    v = tmp_path / "v.json"
    v.write_text(json.dumps({"points": ["a", "b", "c"], "covers": [["a", "c"], ["b", "c"]]}))
    argv = ["--cap-sample-count", "0", "--cap-subset-enum", "0", "check", str(v), "--property", "h_bounded", "--system", "D"]
    assert main(argv) == 2
    assert "--cap-sample-count must be at least 1" in capsys.readouterr().err


# -- error paths -----------------------------------------------------------


def test_parse_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"points": ["a", "a"]}))
    code, _ = run(capsys, "inspect", str(bad))
    assert code == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{]")
    code, _ = run(capsys, "inspect", str(notjson))
    assert code == 2
    code, _ = run(capsys, "inspect", str(tmp_path / "missing.json"))
    assert code == 2


def test_broken_certification_is_an_internal_error_exit_4(capsys, diamond_doc, monkeypatch):
    monkeypatch.setattr(powers.SmythSpace, "box_mask", lambda self, U: 0)
    with pytest.raises(InternalError):
        powers.smyth(parse_space(DIAMOND))
    assert main(["construct", "smyth", diamond_doc]) == 4
    assert "internal error" in capsys.readouterr().err


def test_unit_row_outside_the_smyth_carrier_is_an_internal_error_exit_4(capsys, tmp_path, monkeypatch):
    # with its order made not antisymmetric after validation, the chain's
    # Smyth carrier misses the up-set of one of its points
    doc = {"points": ["p0", "p1", "p2"], "covers": [["p0", "p1"], ["p1", "p2"]]}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    mutants.FAULTS["rows not antisymmetric"](monkeypatch)
    with pytest.raises(InternalError, match="not in the Smyth carrier"):
        powers.xi_embed(parse_space(doc))
    assert main(["construct", "smyth", str(path)]) == 4
    assert "not in the Smyth carrier" in capsys.readouterr().err


def _exit_code_when_inspect_runs(monkeypatch, diamond_doc, site):
    """The CLI exit code when ``site(space)`` runs as a command."""
    monkeypatch.setattr(cli, "_cmd_inspect", lambda args: site(cli._load_space(args.space)))
    return main(["inspect", diamond_doc])


def test_broken_function_space_certification_is_an_internal_error_exit_4(capsys, sier_doc, monkeypatch):
    monkeypatch.setattr(FiniteSpace, "is_up", lambda self, m: False)
    with pytest.raises(InternalError):
        construct.function_space(parse_space(SIER), parse_space(SIER))
    assert main(["construct", "function-space", sier_doc, sier_doc]) == 4
    assert "internal error" in capsys.readouterr().err


def test_broken_chain_core_closure_is_an_internal_error_exit_4(capsys, diamond_doc, monkeypatch):
    monkeypatch.setattr(FiniteSpace, "closure_mask", lambda self, m: m)
    X = parse_space(DIAMOND)
    with pytest.raises(InternalError):
        chain_core(X, X.full)
    assert _exit_code_when_inspect_runs(monkeypatch, diamond_doc, lambda Y: chain_core(Y, Y.full)) == 4
    assert "internal error" in capsys.readouterr().err


def test_failed_rudin_witness_recheck_is_an_internal_error_exit_4(capsys, diamond_doc, monkeypatch):
    monkeypatch.setattr(systems.RudinWitness, "recheck", lambda self: False)
    X = parse_space(DIAMOND)
    with pytest.raises(InternalError):
        systems.rudin_witness("R", X, X.full)
    assert _exit_code_when_inspect_runs(monkeypatch, diamond_doc, lambda Y: systems.rudin_witness("R", Y, Y.full)) == 4
    assert "internal error" in capsys.readouterr().err


def test_broken_product_projection_is_an_internal_error_exit_4(capsys, sier_doc, monkeypatch):
    # saturation breaks on the 4-point product only, so its projections
    # stop commuting with it
    sat = FiniteSpace.sat_mask
    monkeypatch.setattr(FiniteSpace, "sat_mask", lambda self, m: self.full if self.n == 4 else sat(self, m))
    with pytest.raises(InternalError):
        construct.product(parse_space(SIER), parse_space(SIER))
    assert main(["construct", "product", sier_doc, sier_doc]) == 4
    assert "internal error" in capsys.readouterr().err


def test_reflection_unit_failing_to_embed_is_an_internal_error_exit_4(capsys, diamond_doc, monkeypatch):
    # the unit's embedding is certified once, inside powers._unit
    monkeypatch.setattr(SpaceMap, "is_order_embedding", lambda self: False)
    assert _exit_code_when_inspect_runs(monkeypatch, diamond_doc, lambda Y: construct.reflect(Y, "R")) == 4
    assert "internal error: unit into the power space failed to embed" in capsys.readouterr().err


def test_failed_determinacy_of_a_principal_closure_is_an_internal_error_exit_4(capsys, diamond_doc, monkeypatch):
    # each point closure must have its own point as greatest element
    monkeypatch.setattr(FiniteSpace, "top_of", lambda self, m: None)
    assert _exit_code_when_inspect_runs(monkeypatch, diamond_doc, lambda Y: construct.reflect(Y, "R")) == 4
    assert "internal error: principal closure failed determinacy" in capsys.readouterr().err


def test_reflection_lift_failing_naturality_is_an_internal_error_exit_4(capsys, diamond_doc, monkeypatch):
    def site(Y):
        r = construct.reflect(Y, "R")
        # the same reflection with a constant unit, which no lift commutes with
        fake = dataclasses.replace(construct.reflect(Y, "R"), unit=SpaceMap(Y, r.space, (0,) * Y.n))
        return construct.reflection_functor(r, fake, SpaceMap.identity(Y))

    assert _exit_code_when_inspect_runs(monkeypatch, diamond_doc, site) == 4
    assert "internal error" in capsys.readouterr().err


def test_reflection_lift_missing_its_target_carrier_is_an_internal_error_exit_4(capsys, diamond_doc, monkeypatch):
    def site(Y):
        r = construct.reflect(Y, "R")
        # the same reflection over the carrier {Y}, which holds no hull of
        # a smaller point closure
        fake = dataclasses.replace(r, hoare=powers.hoare(Y, [Y.full]))
        return construct.reflection_functor(r, fake, SpaceMap.identity(Y))

    assert _exit_code_when_inspect_runs(monkeypatch, diamond_doc, site) == 4
    assert "internal error: image hull is not in the target carrier" in capsys.readouterr().err


def test_extension_without_a_generic_point_is_an_internal_error_exit_4(capsys, diamond_doc, monkeypatch):
    def site(Y):
        r = construct.reflect(Y, "R")
        # every closed set of a finite space has a generic point; deny it
        monkeypatch.setattr(FiniteSpace, "top_of", lambda self, m: None)
        return construct._extend_along_unit(r, Y, tuple(range(Y.n)))

    assert _exit_code_when_inspect_runs(monkeypatch, diamond_doc, site) == 4
    assert "internal error" in capsys.readouterr().err
