"""CLI contract: exit codes, report formats, determinism, wire formats."""

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoid_measures import checks, finite
from groupoid_measures.cli import bundled_scenarios, main
from groupoid_measures.checks import (MAX_COMPOSABLE_PAIRS, MAX_NERVE_STRINGS, REGISTRY,
                                      read_model)
from groupoid_measures.density.grids import MAX_GRID_NODES
from groupoid_measures.expressions import ScenarioError

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "gmbench"))
import workloads  # noqa: E402


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bundled_pair3_scenario_passes(capsys, tmp_path):
    out = tmp_path / "report.csv"
    code, _, _ = run_cli(capsys, "run", "pair3_homology", "--out", str(out))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    betti = {r["check"]: float(r["lhs"]) for r in rows
             if r["check"].startswith("homology_betti")}
    assert betti == {"homology_betti[0]": 1.0, "homology_betti[1]": 0.0,
                     "homology_betti[2]": 0.0}
    assert all(r["pass"] == "true" for r in rows)


def test_zero_tolerance_forces_failure(capsys):
    code, out, _ = run_cli(capsys, "run", "sphere_dh", "--tol", "dh_two_ways=0")
    assert code == 1
    rows = list(csv.DictReader(io.StringIO(out)))
    failed = [r for r in rows if r["pass"] == "false"]
    assert [r["check"] for r in failed] == ["dh_two_ways"]


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "run", "/nonexistent/scenario.json")
    assert code == 2
    assert "cannot read" in err


def test_malformed_json_reports_line_and_column(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x",\n  "engine": }')
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 2
    assert "line 2" in err and "column" in err


@pytest.mark.parametrize("depth, message", [
    (100, None), (250, "the model descriptor is nested too deep to read"),
    (2000, "JSON nested too deep to parse")])
def test_nested_disjoint_unions_are_read_or_refused(capsys, tmp_path, depth, message):
    # each part of a part is read by its own call; the JSON parser recurses too
    model = '{"kind": "unit", "n": 1}'
    for _ in range(depth):
        model = '{"kind": "disjoint_union", "parts": [' + model + ']}'
    path = tmp_path / "deep.json"
    path.write_text('{"name": "x", "engine": "finite", "model": ' + model
                    + ', "checks": [{"name": "betti_zero"}]}')
    code, _, err = run_cli(capsys, "run", str(path))
    if message is None:
        assert code == 0
    else:
        assert_input_error(code, err)
        assert message in err


def test_unknown_check_lists_valid_names(capsys, tmp_path):
    doc = {"name": "x", "engine": "finite",
           "model": {"kind": "unit", "n": 2},
           "checks": [{"name": "not_a_check"}]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert "unknown check" in err
    assert "coinvariants_dimension" in err


def test_engine_mismatch_is_input_error(capsys, tmp_path):
    doc = {"name": "x", "engine": "finite",
           "model": {"kind": "unit", "n": 2},
           "checks": [{"name": "weyl"}]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert "engine" in err


def test_list_checks_has_full_catalog(capsys):
    code, out, _ = run_cli(capsys, "list-checks")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) >= 25
    assert len(lines) == len(REGISTRY)


def test_list_checks_engine_filter(capsys):
    code, out, _ = run_cli(capsys, "list-checks", "--engine", "finite")
    assert code == 0
    assert all(" finite " in line for line in out.splitlines() if line.strip())
    code, out, _ = run_cli(capsys, "list-checks", "--engine", "imaginary")
    assert code == 0
    assert out.strip() == ""


def test_json_report_format(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "run", "z2_group", "--format", "json",
                         "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["failed"] == 0
    assert {"scenario", "check", "lhs", "rhs", "abs_err", "rel_err",
            "tolerance", "pass"} <= set(doc["rows"][0])


def test_reports_are_deterministic_for_fixed_seed(capsys):
    _, out1, _ = run_cli(capsys, "run", "z2_swap")
    _, out2, _ = run_cli(capsys, "run", "z2_swap")
    assert out1 == out2


def test_gm_seed_environment_override(capsys):
    os.environ["GM_SEED"] = "12345"
    try:
        code, out1, _ = run_cli(capsys, "run", "rotation_witness")
        _, out2, _ = run_cli(capsys, "run", "rotation_witness")
    finally:
        del os.environ["GM_SEED"]
    assert code == 0
    assert out1 == out2


def test_scenarios_run_concurrently_give_the_serial_rows():
    # operations are pure functions of immutable inputs, so threads that
    # run the bundled scenarios side by side give the serial rows
    from concurrent.futures import ThreadPoolExecutor

    from groupoid_measures import read_scenario, run_scenario
    from groupoid_measures.cli import load_scenario

    def run(path):
        return run_scenario(read_scenario(load_scenario(path), seed_override=1))

    paths = bundled_scenarios() * 2
    serial = [run(p) for p in paths]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so that they interleave
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            concurrent = list(pool.map(run, paths, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == serial


def test_retired_parallel_option_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "pair3_homology", "--parallel"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "unrecognized arguments: --parallel" in err and "Traceback" not in err


def test_run_help_lists_no_parallel_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert "--out" in out and "--tol" in out and "--parallel" not in out


def test_gm_run_reads_and_runs_each_document_once(capsys, monkeypatch):
    # reading evaluates a document's SCALAR params, so it happens once per
    # document; the benchmark tracer counts scenarios through run_scenario
    from groupoid_measures import cli
    calls = {"load_scenario": [], "read_scenario": [], "run_scenario": []}
    for name in calls:
        def spy(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            calls[_name].append(args[0] if _name == "load_scenario" else None)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, spy)
    code, _, _ = run_cli(capsys, "run", "pair3_homology", "z2_group", "pair3_homology")
    assert code == 0
    assert [os.path.basename(p) for p in calls["load_scenario"]] == [
        "pair3_homology.json", "z2_group.json", "pair3_homology.json"]
    assert len(calls["read_scenario"]) == len(calls["run_scenario"]) == 3


def test_embedded_groupoid_document_round_trips(capsys, tmp_path):
    from groupoid_measures.finite import pair_groupoid
    doc = {"name": "wire", "engine": "finite",
           "model": {"kind": "json", "doc": json.loads(pair_groupoid(2).to_json())},
           "checks": [{"name": "coinvariants_dimension"},
                      {"name": "homology_betti",
                       "params": {"kmax": 1, "expected": [1, 0]}}]}
    path = tmp_path / "wire.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 0


def test_bundled_scenarios_exist():
    names = {os.path.basename(p) for p in bundled_scenarios()}
    assert "pair3_homology.json" in names
    assert len(names) >= 12


@pytest.mark.parametrize("flag, message", [
    ("oops", "KEY=VALUE"),
    ("axioms_valid=nan", "--tol value for 'axioms_valid' must be a finite number"),
    ("axioms_valid=-1", "--tol value for 'axioms_valid' must be >= 0"),
    ("weyll=1e-30", "--tol names no check 'weyll'"),
])
def test_bad_tol_flag_is_input_error(capsys, flag, message):
    code, _, err = run_cli(capsys, "run", "z2_group", "--tol", flag)
    assert code == 2
    assert message in err


@pytest.mark.parametrize("where", ["missing/report.csv", "."])
def test_unwritable_out_is_input_error(capsys, tmp_path, where):
    code, out, err = run_cli(capsys, "run", "z2_group", "--out", str(tmp_path / where))
    assert_input_error(code, err)
    assert "cannot write report" in err and out == ""


def assert_input_error(code, err):
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in err


def run_doc(capsys, tmp_path, doc):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    return run_cli(capsys, "run", str(path))


def test_non_integer_gm_seed_is_input_error(capsys, monkeypatch):
    monkeypatch.setenv("GM_SEED", "abc")
    code, _, err = run_cli(capsys, "run", "z2_swap")
    assert_input_error(code, err)
    assert "GM_SEED" in err


def test_unknown_model_kind_is_input_error(capsys, tmp_path):
    doc = {"name": "x", "engine": "smooth", "model": {"kind": "no_such_model"},
           "checks": [{"name": "model_axioms"}]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert "no_such_model" in err


def test_disallowed_expression_name_is_input_error(capsys, tmp_path):
    doc = {"name": "x", "engine": "smooth",
           "model": {"kind": "circle_self", "params": {"n": 16}},
           "checks": [{"name": "weyl", "params": {"f": "__import__('os')"}}]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert "not allowed" in err


def test_short_expected_betti_list_is_input_error(capsys, tmp_path):
    doc = {"name": "x", "engine": "finite", "model": {"kind": "pair", "n": 2},
           "checks": [{"name": "homology_betti",
                       "params": {"kmax": 2, "expected": [1]}}]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert "kmax 2" in err


def test_non_numeric_check_tolerance_is_input_error(capsys, tmp_path):
    doc = {"name": "x", "engine": "finite", "model": {"kind": "unit", "n": 2},
           "checks": [{"name": "axioms_valid", "tolerance": "tight"}]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert "tolerance" in err


def test_stokes_order_for_exactly_integrated_omega_passes(capsys, tmp_path):
    doc = {"name": "x", "engine": "smooth", "model": {"kind": "foliation"},
           "checks": [{"name": "stokes_order", "params": {"omega": "0*x"}}]}
    code, out, _ = run_doc(capsys, tmp_path, doc)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["check"], float(r["lhs"])) for r in rows] == [("stokes_order", 0.0)]


def test_weyl_without_f_is_input_error(capsys, tmp_path):
    doc = {"name": "x", "engine": "smooth",
           "model": {"kind": "circle_self", "params": {"n": 16}},
           "checks": [{"name": "weyl"}]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert "'weyl'" in err and "'f'" in err


def test_cocycle_expected_without_element_is_input_error(capsys, tmp_path):
    doc = {"name": "x", "engine": "smooth", "model": {"kind": "scaling_line"},
           "checks": [{"name": "cocycle_expected", "params": {"expected": "log(2)"}}]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert "'cocycle_expected'" in err and "'element'" in err


def test_stokes_order_below_five_leaf_nodes_is_input_error(capsys, tmp_path):
    doc = {"name": "x", "engine": "smooth", "model": {"kind": "foliation", "n_leaf": 3},
           "checks": [{"name": "stokes_order"}]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert "n_leaf >= 5" in err


def test_stokes_order_at_five_leaf_nodes_runs(capsys, tmp_path):
    doc = {"name": "x", "engine": "smooth", "model": {"kind": "foliation", "n_leaf": 5},
           "checks": [{"name": "stokes_order"}]}
    code, out, err = run_doc(capsys, tmp_path, doc)
    assert code in (0, 1) and "Traceback" not in err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["check"] for r in rows] == ["stokes_order"]


def test_non_integer_element_is_input_error(capsys, tmp_path):
    doc = {"name": "x", "engine": "smooth", "model": {"kind": "scaling_line"},
           "checks": [{"name": "cocycle_expected",
                       "params": {"element": "two", "expected": "log(2)"}}]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert "'element'" in err and "'two'" in err


def test_non_integer_n_leaf_is_input_error(capsys, tmp_path):
    doc = {"name": "x", "engine": "smooth", "model": {"kind": "foliation", "n_leaf": "many"},
           "checks": [{"name": "stokes_closed"}]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert "'n_leaf'" in err and "'many'" in err


def test_non_integer_model_param_is_input_error(capsys, tmp_path):
    doc = {"name": "x", "engine": "smooth",
           "model": {"kind": "rotation2d", "params": {"n_r": "big", "n_phi": 8}},
           "checks": [{"name": "model_axioms"}]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert "n_r" in err and "'big'" in err


def test_non_integer_kmax_is_input_error(capsys, tmp_path):
    doc = {"name": "x", "engine": "finite", "model": {"kind": "pair", "n": 2},
           "checks": [{"name": "homology_betti", "params": {"kmax": "x"}}]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert "'kmax'" in err and "'x'" in err


@pytest.mark.parametrize("model,counts", [
    # 8 factored test functions on a Lebesgue rotation: two row computations
    # each (u and its inversion) and no grid-sized s- or t-integral
    ({"kind": "rotation2d", "params": {"n_r": 6, "n_phi": 16}},
     {"rows": 16, "s": 0, "t": 0}),
    # the grid path: one s- and one t-integral each, and a t-integral is an
    # s-integral of the inverted function, so 16 s-calls and 8 t-calls (24 in
    # all); two separate passes made 32 and 8 (40 in all)
    ({"kind": "antipodal_circle", "params": {"n": 16}},
     {"rows": 0, "s": 16, "t": 8}),
], ids=["row-space", "grid"])
def test_both_defect_checks_share_one_pass_of_fiber_integrals(capsys, tmp_path,
                                                              monkeypatch, model, counts):
    from groupoid_measures.smooth import transverse
    calls = dict.fromkeys(counts, 0)
    for key, attr in (("rows", "_factored_parts"), ("s", "s_fiber_integrate"),
                      ("t", "t_fiber_integrate")):
        def counted(*args, _fn=getattr(transverse, attr), _key=key):
            calls[_key] += 1
            return _fn(*args)
        monkeypatch.setattr(transverse, attr, counted)
    doc = {"name": "x", "engine": "smooth", "model": model,
           "checks": [{"name": "invariance_defect"}, {"name": "inversion_defect"}]}
    code, out, _ = run_doc(capsys, tmp_path, doc)
    assert code == 0
    assert [r["check"] for r in csv.DictReader(io.StringIO(out))] == \
        ["invariance_defect", "inversion_defect"]
    assert calls == counts


def test_finite_checks_share_one_homology_of_the_groupoid(capsys, tmp_path,
                                                          monkeypatch):
    from groupoid_measures import finite
    kmaxes = []

    def counted(g, kmax, _fn=finite.homology):
        kmaxes.append((g.n_objects, kmax))
        return _fn(g, kmax)

    monkeypatch.setattr(finite, "homology", counted)
    doc = {"name": "x", "engine": "finite", "model": {"kind": "pair", "n": 3},
           "checks": [{"name": "homology_betti", "params": {"kmax": 2}},
                      {"name": "betti_zero"},
                      {"name": "morita_restriction", "params": {"subset": [0], "kmax": 1}}]}
    code, out, _ = run_doc(capsys, tmp_path, doc)
    assert code == 0
    assert len(list(csv.DictReader(io.StringIO(out)))) == 3 + 1 + 2
    # the full groupoid once; the restriction to one object is a new groupoid
    assert kmaxes == [(3, 2), (1, 1)]


@pytest.mark.parametrize("expected, message", [
    ("ab", "list of Betti numbers"),
    ([1, "x"], "'x'"),
])
def test_non_integer_expected_betti_is_input_error(capsys, tmp_path, expected, message):
    doc = {"name": "x", "engine": "finite", "model": {"kind": "pair", "n": 2},
           "checks": [{"name": "homology_betti",
                       "params": {"kmax": 1, "expected": expected}}]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert message in err


@pytest.mark.parametrize("subset, message", [
    ([7], "not in range(2)"),
    ([0, 7], "not in range(2)"),
    ([], "misses the orbit"),
])
def test_bad_morita_subset_is_input_error(capsys, tmp_path, subset, message):
    doc = {"name": "x", "engine": "finite", "model": {"kind": "pair", "n": 2},
           "checks": [{"name": "morita_restriction", "params": {"subset": subset}}]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert "'morita_restriction'" in err and message in err


@pytest.mark.parametrize("check, params", [
    ("weyl", {"f": "1 + 0*r", "phi": "-1 + 0*r"}),
    ("cutoff_normalization", {"phi": "-1 + 0*r"}),
    ("weyl_seed_independence", {"f": "1 + 0*r", "phi1": "1 + 0*r", "phi2": "r - 2"}),
    ("weinstein_two_ways", {"phi": "-1 + 0*r"}),
    ("cutoff_saturation_error", {"phi": "-1 + 0*r"}),
])
def test_negative_cutoff_seed_is_input_error(capsys, tmp_path, check, params):
    doc = {"name": "x", "engine": "smooth",
           "model": {"kind": "rotation2d", "params": {"n_r": 6, "n_phi": 16}},
           "checks": [{"name": check, "params": params}]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert f"'{check}'" in err and "nonnegative" in err
    assert "seed 'phi" in err



LEAF_FAMILY = {"B": {"lo": 1.0, "hi": 2.0, "n": 9}, "area": "4*pi*t",
               "area_derivative": "4*pi + 0*t"}
LEAF_CHECKS = [{"name": "affine_total", "params": {"expected": "4*pi"}},
               {"name": "dh_weyl", "params": {"f": "exp(-4*(t-1.5)**2)"}},
               {"name": "affine_volume_two_ways"},
               {"name": "iota_scaling"}]


@pytest.mark.parametrize("change, message", [
    ({"iota": 0}, "component count"),
    ({"area": "-t"}, "leaf areas must be positive"),
    ({"B": {"n": 10**30, "lo": 1, "hi": 2}}, "has more than"),
    ({"leaf_nodes": 10**7}, "has more than"),
    ({"iota": 1e308}, "component count"),
])
def test_malformed_leaf_family_is_input_error(capsys, tmp_path, change, message):
    doc = {"name": "x", "engine": "symplectic", "model": dict(LEAF_FAMILY, **change),
           "checks": [{"name": "affine_volume_two_ways"}]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert "'affine_volume_two_ways'" in err and message in err


@pytest.mark.parametrize("change, message", [
    ({"leaf": "cube"}, "unknown leaf template 'cube'"),
    ({"B": {"n": 1, "lo": 1, "hi": 2}}, "too few nodes"),
    ({"B": {"lo": 2, "hi": 1, "n": 9}}, "hi > lo"),
    ({"B": {"hi": 2, "n": 9}}, "missing required model field 'B' field 'lo'"),
    ({"B": {"lo": "a", "hi": 2, "n": 9}}, "'a'"),
    ({"leaf_nodes": 1}, "leaf_nodes"),
    ({"B": {"n": True, "lo": 1, "hi": 2}},
     "model field 'B' field 'n' must be an integer, got True"),
    ({"B": {"n": 9, "lo": 1, "hi": 2, "m": 3}}, "unknown model field 'B' field 'm'"),
    ({"iotta": 2}, "unknown model field 'iotta'; declared: B, area, area_derivative, iota"),
])
def test_malformed_leaf_family_field_is_read_before_any_check(capsys, tmp_path, change,
                                                              message):
    doc = {"name": "x", "engine": "symplectic", "model": dict(LEAF_FAMILY, **change),
           "checks": [{"name": "affine_volume_two_ways"}]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert message in err and "check '" not in err


def test_sampled_leaf_family_runs(capsys, tmp_path):
    doc = {"name": "x", "engine": "symplectic",
           "model": {"B": {"lo": 1, "hi": 2, "n": 3}, "area": [1, 2, 3],
                     "area_derivative": [2, 2, 2], "leaf": "torus", "leaf_nodes": 8},
           "checks": [{"name": "affine_total", "params": {"expected": "2"}},
                      {"name": "affine_volume_two_ways"}, {"name": "iota_scaling"}]}
    code, out, _ = run_doc(capsys, tmp_path, doc)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["check"] for r in rows] == ["affine_total", "affine_volume_two_ways",
                                          "iota_scaling"]
    assert float(rows[0]["lhs"]) == 2.0


def test_degenerate_affine_structure_is_input_error(capsys, tmp_path):
    doc = {"name": "x", "engine": "symplectic",
           "model": dict(LEAF_FAMILY, area_derivative="0*t"),
           "checks": [{"name": "affine_total", "params": {"expected": "1"}}]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert "'affine_total'" in err and "degenerate" in err


@pytest.mark.parametrize("area, message", [
    ("x", "'x'"), (-1, "positive"), (True, "'area' must be a finite number, got True")])
def test_bad_sphere_area_is_input_error(capsys, tmp_path, area, message):
    doc = {"name": "x", "engine": "symplectic", "model": {"kind": "sphere", "area": area},
           "checks": [{"name": "liouville_total", "params": {"expected": "1"}}]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    # a value of the wrong kind is refused when it is read; a negative area
    # when the sphere is built
    assert message in err and ("'liouville_total'" in err) == (area == -1)


@pytest.mark.parametrize("params, message", [
    ({"f": "1 + 0*r", "phi": "where(r < 1.5, 0, 1)"}, "misses an orbit"),
    ({"f": "1 + 0*r", "phi": 1}, "must be a string"),
])
def test_unusable_weyl_seed_is_input_error(capsys, tmp_path, params, message):
    doc = {"name": "x", "engine": "smooth",
           "model": {"kind": "rotation2d", "params": {"n_r": 6, "n_phi": 16}},
           "checks": [{"name": "weyl", "params": params}]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert "'weyl'" in err and message in err


def test_leaf_checks_integrate_each_leaf_once(capsys, tmp_path, monkeypatch):
    # the template once, then one total per base node, shared by the
    # doubled-iota family of iota_scaling; dh_weyl reads each leaf once more
    from groupoid_measures.symplectic import models
    calls = {"integrate": 0, "leaf_liouville": 0}

    def counted_integrate(*args, _fn=models.integrate):
        calls["integrate"] += 1
        return _fn(*args)

    def counted_liouville(self, i, _fn=models.LeafFamilyModel.leaf_liouville):
        calls["leaf_liouville"] += 1
        return _fn(self, i)

    monkeypatch.setattr(models, "integrate", counted_integrate)
    monkeypatch.setattr(models.LeafFamilyModel, "leaf_liouville", counted_liouville)
    doc = {"name": "x", "engine": "symplectic", "model": dict(LEAF_FAMILY, iota=2),
           "checks": LEAF_CHECKS}
    code, out, _ = run_doc(capsys, tmp_path, doc)
    assert code == 0
    assert len(list(csv.DictReader(io.StringIO(out)))) == 4
    assert calls == {"integrate": 1 + 9, "leaf_liouville": 9 + 9}


def test_cutoff_checks_share_one_cutoff_per_seed(capsys, tmp_path, monkeypatch):
    from groupoid_measures import checks
    from groupoid_measures.smooth import transverse
    seeds = []

    def counted(model, rho, phi, _fn=transverse.cutoff_construct):
        seeds.append(float(phi.flat[0]))
        return _fn(model, rho, phi)

    for module in (checks, transverse):
        monkeypatch.setattr(module, "cutoff_construct", counted)
    doc = {"name": "x", "engine": "smooth",
           "model": {"kind": "rotation2d", "params": {"n_r": 6, "n_phi": 16}},
           "checks": [{"name": "cutoff_normalization"},
                      {"name": "weyl", "params": {"f": "1 + 0*r"}},
                      {"name": "weyl_seed_independence",
                       "params": {"f": "1 + 0*r", "phi1": "1.0 + 0*c0", "phi2": "2 + 0*r"}},
                      {"name": "weinstein_two_ways"},
                      {"name": "weinstein_expected", "params": {"expected": "3*pi"}},
                      {"name": "cutoff_normalization", "params": {"phi": "2 + 0*r"}},
                      {"name": "cutoff_saturation_error",
                       "params": {"phi": "where(r < 1.5, 0, 1)"}}]}
    code, out, _ = run_doc(capsys, tmp_path, doc)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["check"] for r in rows][-1] == "cutoff_saturation_error"
    # the constant seed, the seed 2, and the saturating seed (which fails)
    assert seeds == [1.0, 2.0, 0.0]


@pytest.mark.parametrize("engine, model, check, message", [
    ("smooth", {"kind": "circle_self", "params": {"n": 16}},
     {"name": "weyl", "params": {"f": "r(1)"}}, "not callable"),
    ("smooth", {"kind": "circle_self", "params": {"n": 16}},
     {"name": "weyl", "params": {"f": "sin"}}, "unsupported operand"),
    ("smooth", {"kind": "circle_self", "params": {"n": 16}},
     {"name": "weinstein_expected", "params": {"expected": "1/0"}}, "division by zero"),
    ("symplectic", dict(LEAF_FAMILY, area="sin(t, t, t, t)"),
     {"name": "affine_volume_two_ways"}, "positional argument"),
])
def test_expression_evaluation_error_is_input_error(capsys, tmp_path, engine, model,
                                                    check, message):
    doc = {"name": "x", "engine": engine, "model": model, "checks": [check]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert f"'{check['name']}'" in err and "cannot evaluate" in err and message in err


@pytest.mark.parametrize("check", [
    {"name": "weyl", "params": {"f": "1 + 0*x"}},
    {"name": "weinstein_expected", "params": {"expected": "1"}},
    {"name": "weinstein_two_ways"},
    {"name": "cutoff_normalization"},
    {"name": "invariance_defect"},
    {"name": "inversion_witness", "params": {"tau": "1 + x"}},
    {"name": "averaging_annihilates"},
    {"name": "averaging_orbit_constant"},
    {"name": "orbit_density_mass"},
])
def test_group_quadrature_check_on_a_non_proper_model_is_input_error(capsys, tmp_path,
                                                                      check):
    doc = {"name": "x", "engine": "smooth", "model": {"kind": "scaling_line"},
           "checks": [check]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert f"'{check['name']}'" in err and "'scaling_line' is not a proper" in err


def assert_failing_rows(code, out, err, checks):
    """Exit 1 with a report whose failing rows are exactly ``checks``."""
    assert code == 1 and "Traceback" not in err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["check"] for r in rows if r["pass"] == "false"] == checks


def test_averaging_that_is_not_orbit_constant_stays_a_failure(capsys, tmp_path,
                                                              monkeypatch):
    # a broken model, not bad input: the row fails, and it is not exit 2
    from groupoid_measures.smooth import CyclicAxisModel
    monkeypatch.setattr(CyclicAxisModel, "orbit_spread", lambda self, values: 1.0)
    doc = {"name": "x", "engine": "smooth",
           "model": {"kind": "rotation2d", "params": {"n_r": 6, "n_phi": 16}},
           "checks": [{"name": "averaging_orbit_constant"}]}
    assert_failing_rows(*run_doc(capsys, tmp_path, doc), ["averaging_orbit_constant"])


def test_an_off_by_one_rank_fails_the_orbit_count_rows(capsys, tmp_path, monkeypatch):
    # each row compares a computed rank with the orbit count, so an exact
    # rank that is one too large fails all three rows instead of an abort
    reduce = finite.linalg_q._reduce
    monkeypatch.setattr(finite.linalg_q, "_reduce", lambda columns: reduce(columns) + 1)
    doc = {"name": "x", "engine": "finite", "model": {"kind": "pair", "n": 3},
           "checks": [{"name": "coinvariants_dimension"}, {"name": "cone_dimension"},
                      {"name": "betti_zero"}]}
    assert_failing_rows(*run_doc(capsys, tmp_path, doc),
                        ["coinvariants_dimension", "cone_dimension", "betti_zero"])


DATA = os.path.join(os.path.dirname(__file__), "data")
# every document under tests/data, each with the error line gm prints on it
REPRODUCERS = [
    ("weinstein_small_orbits.json",
     "check 'weinstein_two_ways': an orbit volume is below threshold"),
    ("iota_degenerate_lattice.json",
     "check 'iota_scaling': affine structure is degenerate"),
    ("dh_weyl_log.json", "check 'dh_weyl': 'log(t - 1)' is not finite at every point"),
    ("subnormal_axis.json", "error: axis spacing 1.39067116157e-312 "
                            "is below the smallest normal float"),
    # finite samples whose products overflow (an overflowed orbit volume once
    # gave weinstein_two_ways 0 = 0), or whose affine volume underflows to 0
    ("affine_overflow.json", "check 'affine_volume_two_ways': overflow encountered"),
    ("weinstein_rho_overflow.json", "check 'weinstein_two_ways': overflow encountered"),
    # a subnormal lattice density counts as vanishing (it once gave the
    # affine checks 0 = 0 and dh_weyl 9e-323 = 9e-323)
    ("iota_subnormal_lattice.json", "check 'iota_scaling': affine structure is degenerate"),
    ("affine_subnormal_lattice.json",
     "check 'affine_volume_two_ways': affine structure is degenerate"),
    # sides of opposite sign near the float range once wrote abs_err Infinity
    ("liouville_error_overflow.json",
     "check 'liouville_total': the error of row 'liouville_total' is not finite"),
    # a count, samples or kmax above its cap once ran until it was stopped
    ("invariance_count_1e308.json",
     "check 'invariance_defect': parameter 'count' must be <= 1000, got 1e+308"),
    ("trace_samples_1e308.json", "check 'trace_matches_orbit_constancy': "
                                 "parameter 'samples' must be <= 1000, got 1e+308"),
    ("homology_kmax_1e308.json",
     "check 'homology_betti': parameter 'kmax' must be <= 16, got 1e+308"),
    # samples x objects under no cap once ran past 30 s
    ("trace_samples_unit_65536.json", "check 'trace_matches_orbit_constancy': 1000 samples "
                                      "over 65536 objects are more than 131072 sample objects"),
    ("homology_kmax_1e8.json",
     "check 'homology_betti': parameter 'kmax' must be <= 16, got 100000000"),
    # a table entry that names an arrow out of range once passed both checks
    ("groupoid_stray_compose.json",
     "check 'axioms_valid': invalid groupoid: composition spurious for pair (7, 0)"),
    # its work is the composable triples, which the nerve cap counts
    ("associative_cyclic_64.json", "check 'convolution_associative': the nerve has "
                                   "266305 strings in degrees 0..3, more than 131072"),
    # validate's work is the composable triples too, which Z256 took 4.8 s over
    ("axioms_cyclic_64.json", "check 'axioms_valid': the nerve has "
                              "266305 strings in degrees 0..3, more than 131072"),
    # a misspelled model key was once ignored, and the run went on with the default
    ("rotation_params_nr.json", "error: unknown model field 'params' field 'nr'; "
                                "declared: n_r, n_phi, r_lo, r_hi\n"),
    ("sigma_rh0.json", "error: unknown model field 'sigma' field 'rh0'; "
                       "declared: rho, tau\n"),
    ("leaf_family_iotta.json", "error: unknown model field 'iotta'; "
                               "declared: B, area, area_derivative, iota, leaf, leaf_nodes\n"),
    # a list name was once a nested list in JSON reports and "[1, 2]" in CSV
    ("scenario_name_not_string.json", "scenario field 'name' must be a string, got [1, 2]"),
    # a misspelled key of a check entry or of the document once ran the defaults
    ("check_entry_parms.json", "error: check 'homology_betti': unknown check entry field "
                               "'parms'; declared: name, params, tolerance\n"),
    ("check_entry_tolerence.json", "error: check 'homology_betti': unknown check entry "
                                   "field 'tolerence'; declared: name, params, tolerance\n"),
    ("scenario_sede.json", "error: unknown scenario field 'sede'; declared: name, engine, "
                           "seed, model, tolerances, checks\n"),
    ("stokes_order_nan.json",
     "check 'stokes_order': 'sqrt(x - 0.5) + 0*y' is not finite at every point"),
]


@pytest.mark.parametrize("doc, message", REPRODUCERS)
def test_data_that_breaks_a_precondition_is_input_error(capsys, doc, message):
    code, _, err = run_cli(capsys, "run", os.path.join(DATA, doc))
    assert_input_error(code, err)
    assert message in err


def test_every_reproducer_is_named_with_its_error():
    # CI runs every file under tests/data and expects exit 2; a new one
    # needs its error line in REPRODUCERS
    assert sorted(os.listdir(DATA)) == sorted(doc for doc, _ in REPRODUCERS)


def test_degenerate_lattice_fails_every_affine_check_alike(capsys, tmp_path):
    # a zero lattice density used to give affine_volume_two_ways and dh_weyl 0 = 0
    with open(os.path.join(DATA, "iota_degenerate_lattice.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    messages = set()
    for name in ("affine_total", "affine_volume_two_ways", "iota_scaling", "dh_weyl"):
        params = {"expected": "1"} if name == "affine_total" else {}
        code, _, err = run_doc(capsys, tmp_path, dict(
            doc, checks=[{"name": name, "params": params}]))
        assert_input_error(code, err)
        messages.add(err.split(": ", 2)[2])
    assert messages == {"affine structure is degenerate: the lattice density vanishes "
                        "on base mass 1.000e+00\n"}


def test_nan_omega_of_a_convergence_order_is_input_error(capsys):
    code, out, err = run_cli(capsys, "run", os.path.join(DATA, "stokes_order_nan.json"))
    assert_input_error(code, err)
    assert out == ""
    assert "check 'stokes_order': 'sqrt(x - 0.5) + 0*y' is not finite at every point" in err


def test_shortfall_is_the_clipped_difference_and_keeps_nan():
    for value in (-np.inf, -1.0, 0.0, 1.8, 1.9, 3.0, np.inf):
        assert checks._shortfall(1.8, value) == max(0.0, 1.8 - value)
    assert np.isnan(checks._shortfall(1.8, np.nan))


def test_model_axioms_on_the_scaling_model_redraws_undefined_pairs(capsys, tmp_path):
    doc = {"name": "x", "engine": "smooth", "model": {"kind": "scaling_line"},
           "checks": [{"name": "model_axioms"}]}
    code, out, err = run_doc(capsys, tmp_path, doc)
    assert code == 0 and "Traceback" not in err
    assert [r["check"] for r in csv.DictReader(io.StringIO(out))] == ["model_axioms"]


@pytest.mark.parametrize("check, kind", [
    ("stokes_closed", "foliation"), ("stokes_order", "foliation"),
    ("ruelle_sullivan_closed", "foliation"), ("ruelle_sullivan_pairing", "foliation"),
    ("exactness_reconstruction", "submersion_probe"),
    ("exactness_obstruction", "submersion_probe"),
])
def test_foliation_and_submersion_checks_need_their_model_kind(capsys, tmp_path,
                                                               check, kind):
    doc = {"name": "x", "engine": "smooth", "model": {"kind": "scaling_line"},
           "checks": [{"name": check}]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert f"'{check}'" in err and f"needs a '{kind}' model" in err


SCENARIO = {"name": "x", "engine": "finite", "model": {"kind": "pair", "n": 2},
            "checks": [{"name": "axioms_valid"}]}


@pytest.mark.parametrize("doc, message", [
    (5, "must be a JSON object"),
    ([SCENARIO], "must be a JSON object"),
    (dict(SCENARIO, checks=5), "'checks' must be a JSON list"),
    (dict(SCENARIO, checks=["homology_betti"]), "check entry must be a JSON object"),
    (dict(SCENARIO, model=5), "'model' must be a JSON object"),
    (dict(SCENARIO, seed="x"), "'seed' must be an integer"),
    (dict(SCENARIO, seed=-1), "'seed' must be >= 0"),
    (dict(SCENARIO, tolerances=5), "'tolerances' must be a JSON object"),
    (dict(SCENARIO, tolerances={"axioms_valid": "nan"}),
     "check 'axioms_valid': tolerance must be a finite number, got 'nan'"),
    (dict(SCENARIO, checks=[{"name": "axioms_valid", "tolerance": True}]),
     "tolerance must be a finite number, got True"),
    (dict(SCENARIO, checks=[{"name": "axioms_valid", "tolerance": -1e-6}]),
     "tolerance must be >= 0"),
    (dict(SCENARIO, checks=[{"name": "axioms_valid", "params": 5}]),
     "params must be an object"),
    (dict(SCENARIO, checks=[{"name": "axioms_valid", "params": {"kmax": 1}}]),
     "unknown parameter 'kmax'"),
])
def test_document_of_the_wrong_shape_is_input_error(capsys, tmp_path, doc, message):
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert message in err


ROTATION8 = {"kind": "rotation2d", "params": {"n_r": 8, "n_phi": 8}}
CAP = f"has more than {MAX_GRID_NODES} nodes"


def trivial_model(axis_change: dict) -> dict:
    """A trivial-action model on one grid axis, changed by ``axis_change``."""
    return {"kind": "trivial",
            "grid": {"axes": [dict({"n": 9, "lo": 0, "hi": 1}, **axis_change)]}}



@pytest.mark.parametrize("engine, model, check, message", [
    ("finite", {"kind": "z2_action", "points": 2, "swaps": [[0, 5]]},
     {"name": "axioms_valid"}, "not a pair of points in range(2)"),
    ("finite", {"kind": "disjoint_union"}, {"name": "axioms_valid"}, "'parts'"),
    ("finite", {"kind": "json", "doc": {"x": 1}}, {"name": "axioms_valid"},
     "bad groupoid document"),
    ("finite", {"kind": "json", "doc": {"objects": True, "arrows": [{"src": 0, "tgt": 0}],
                                        "compose": [[0, 0, 0]], "units": [0],
                                        "inverses": [0]}},
     {"name": "axioms_valid"}, "objects must be an integer, got True"),
    ("finite", {"kind": "cyclic", "n": 0}, {"name": "axioms_valid"}, "'n' must be >= 1"),
    ("finite", {"kind": "pair", "n": 0}, {"name": "betti_zero"}, "'n' must be >= 1"),
    ("smooth", {"kind": "rotation2d", "params": {"r_lo": "x"}}, {"name": "model_axioms"},
     "'r_lo' must be a finite number"),
    ("smooth", {"kind": "rotation2d", "params": {"r_lo": "nan"}}, {"name": "model_axioms"},
     "'r_lo' must be a finite number, got 'nan'"),
    ("smooth", {"kind": "rotation2d", "params": {"r_lo": True}}, {"name": "model_axioms"},
     "'r_lo' must be a finite number, got True"),
    ("smooth", trivial_model({"n": 2.5}), {"name": "model_axioms"},
     "field 'n' must be an integer, got 2.5"),
    ("smooth", trivial_model({"periodic": "no"}), {"name": "model_axioms"},
     "field 'periodic' must be true or false, got 'no'"),
    ("smooth", {"kind": "rotation2d", "params": {"n_r": 1}}, {"name": "model_axioms"},
     "too few nodes"),
    # sizes no machine could hold, refused before any array is allocated
    ("smooth", {"kind": "foliation", "n_leaf": 10**30}, {"name": "stokes_closed"}, CAP),
    ("smooth", {"kind": "foliation", "n_leaf": 10**12}, {"name": "stokes_closed"}, CAP),
    ("smooth", {"kind": "submersion_probe", "n_fiber": 10**30},
     {"name": "exactness_obstruction"}, CAP),
    ("smooth", trivial_model({"n": 10**30}), {"name": "model_axioms"}, CAP),
    ("smooth", {"kind": "rotation2d", "params": {"n_phi": 2**30}}, {"name": "model_axioms"},
     CAP),
    ("smooth", {"kind": "scaling_line", "params": {"max_power": 10**30}},
     {"name": "model_axioms"}, "max_power must be at most 1022"),
    ("smooth", {"kind": "trivial"}, {"name": "model_axioms"},
     "missing required model field 'grid'"),
    ("smooth", dict(ROTATION8, sigma={"rho": "-1 + 0*r"}), {"name": "invariance_defect"},
     "strictly positive"),
    ("smooth", ROTATION8, {"name": "orbit_density_mass", "params": {"node": [99, 0]}},
     "not a node of the (8, 8) grid"),
    ("smooth", ROTATION8, {"name": "orbit_density_mass", "params": {"node": [1]}},
     "not a node of the (8, 8) grid"),
    ("smooth", {"kind": "scaling_line"},
     {"name": "cocycle_expected", "params": {"element": 1, "point": [1, 2],
                                             "expected": "0"}}, "1 coordinates"),
    ("smooth", {"kind": "submersion_probe", "n_base": 1}, {"name": "exactness_obstruction"},
     "'n_base' must be >= 2"),
    ("smooth", {"kind": "submersion", "params": {"fiber_axes": [1]},
                "grid": {"axes": [{"n": 4, "lo": 0, "hi": 1}, {"n": 4, "lo": 0, "hi": 1}]}},
     {"name": "cocycle_vanishes"}, "unknown model kind 'submersion'"),
])
def test_bad_descriptor_or_grid_node_is_input_error(capsys, tmp_path, engine, model,
                                                     check, message):
    doc = {"name": "x", "engine": engine, "model": model, "checks": [check]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert message in err


def _refuse_to_build(*args, **kwargs):
    raise AssertionError("a finite builder ran")


@pytest.mark.parametrize("model", [
    {"kind": "cyclic", "n": 10**40},
    {"kind": "z2_action", "points": 2**63},
    {"kind": "disjoint_union", "parts": [{"kind": "unit", "n": 1}, {"kind": "pair", "n": 129}]},
], ids=["cyclic", "z2_action", "disjoint_union"])
def test_oversized_finite_groupoid_is_input_error(capsys, tmp_path, monkeypatch, model):
    # the cap is read from the descriptor alone, so no builder may run
    for name in ("unit_groupoid", "pair_groupoid", "group_groupoid", "cyclic_group_table",
                 "action_groupoid", "disjoint_union"):
        monkeypatch.setattr(finite, name, _refuse_to_build)
    doc = {"name": "x", "engine": "finite", "model": model,
           "checks": [{"name": "axioms_valid"}]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert f"has more than {MAX_COMPOSABLE_PAIRS} composable pairs" in err


def test_composable_pairs_count_the_built_table(monkeypatch):
    parts = [{"kind": "unit", "n": 3}, {"kind": "pair", "n": 3}, {"kind": "cyclic", "n": 4},
             {"kind": "z2_action", "points": 3, "swaps": [[0, 2]]}]
    for doc in parts + [{"kind": "disjoint_union", "parts": parts}]:
        descriptor = read_model("finite", doc)
        assert descriptor.pairs == len(descriptor.build().compose_table)
    # a descriptor at the cap is read and built and one pair more is refused
    # when it is read; a stub stands in for the builder, so neither allocates
    # a table
    monkeypatch.setattr(finite, "unit_groupoid", lambda n: n)
    cap = {"kind": "unit", "n": MAX_COMPOSABLE_PAIRS}
    assert read_model("finite", cap).build() == MAX_COMPOSABLE_PAIRS
    with pytest.raises(ScenarioError, match="composable pairs"):
        read_model("finite", dict(cap, n=MAX_COMPOSABLE_PAIRS + 1))


def test_a_json_groupoid_counts_its_listed_entries_against_the_cap(monkeypatch):
    # pair(2) lists 8 entries: at a cap of 8 it is built, at 7 it is refused
    doc = {"kind": "json", "doc": json.loads(finite.pair_groupoid(2).to_json())}
    assert read_model("finite", doc).pairs == 8
    monkeypatch.setattr(checks, "MAX_COMPOSABLE_PAIRS", 8)
    assert read_model("finite", doc).build() == finite.pair_groupoid(2)
    monkeypatch.setattr(checks, "MAX_COMPOSABLE_PAIRS", 7)
    with pytest.raises(ScenarioError, match="a 'json' groupoid has more than 7 composable"):
        read_model("finite", doc)


@pytest.mark.parametrize("check", [
    {"name": "homology_betti", "params": {"kmax": 2}},
    {"name": "morita_restriction", "params": {"kmax": 2}},
    {"name": "boundary_squares", "params": {"kmax": 3}},
], ids=lambda check: check["name"])
def test_oversized_nerve_is_input_error(capsys, tmp_path, monkeypatch, check):
    # Z128 has 16 384 composable pairs, under MAX_COMPOSABLE_PAIRS, but
    # 2 113 665 strings in degrees 0..3; they are counted, never enumerated
    monkeypatch.setattr(finite, "nerve", _refuse_to_build)
    monkeypatch.setattr(finite, "homology", _refuse_to_build)
    doc = {"name": "x", "engine": "finite", "model": {"kind": "cyclic", "n": 128},
           "checks": [check]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert f"the nerve has 2113665 strings in degrees 0..3, more than {MAX_NERVE_STRINGS}" in err


def test_a_nerve_at_the_cap_is_enumerated_and_one_string_more_is_refused(capsys, tmp_path,
                                                                         monkeypatch):
    # pair(3) has 3 + 9 + 27 + 81 = 120 strings in degrees 0..3
    doc = {"name": "x", "engine": "finite", "model": {"kind": "pair", "n": 3},
           "checks": [{"name": "homology_betti", "params": {"kmax": 2}}]}
    monkeypatch.setattr(checks, "MAX_NERVE_STRINGS", 120)
    assert run_doc(capsys, tmp_path, doc)[0] == 0
    monkeypatch.setattr(checks, "MAX_NERVE_STRINGS", 119)
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert "the nerve has 120 strings" in err


def test_axioms_valid_at_the_nerve_cap_validates_and_one_string_more_is_refused(
        capsys, tmp_path, monkeypatch):
    # stubs stand in for the count and for validate, so neither does the work
    validated = []
    monkeypatch.setattr(finite, "validate", lambda g: validated.append(g) or [])
    doc = dict(SCENARIO, checks=[{"name": "axioms_valid"}])
    monkeypatch.setattr(finite, "nerve_sizes", lambda g, kmax: [0] * kmax + [MAX_NERVE_STRINGS])
    assert run_doc(capsys, tmp_path, doc)[0] == 0 and len(validated) == 1
    monkeypatch.setattr(finite, "nerve_sizes",
                        lambda g, kmax: [0] * kmax + [MAX_NERVE_STRINGS + 1])
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert f"the nerve has {MAX_NERVE_STRINGS + 1} strings in degrees 0..3" in err
    assert len(validated) == 1


def test_average_orbit_constant_at_its_cap_runs_and_one_sample_arrow_more_is_refused(
        capsys, tmp_path, monkeypatch):
    # pair(2) has 4 arrows, so 5 samples are 20 sample arrows
    doc = dict(SCENARIO, checks=[{"name": "average_orbit_constant", "params": {"samples": 5}}])
    monkeypatch.setattr(checks, "MAX_SAMPLE_ARROWS", 20)
    assert run_doc(capsys, tmp_path, doc)[0] == 0
    monkeypatch.setattr(checks, "MAX_SAMPLE_ARROWS", 19)
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert "5 samples over 4 arrows are more than 19 sample arrows" in err


def test_average_orbit_constant_over_its_cap_draws_nothing(capsys, tmp_path, monkeypatch):
    # unit(4096) at 33 samples: 135 168 sample arrows, one sample more than
    # the measured 2**17
    monkeypatch.setattr(finite, "average_function", _refuse_to_build)
    doc = {"name": "x", "engine": "finite", "model": {"kind": "unit", "n": 4096},
           "checks": [{"name": "average_orbit_constant", "params": {"samples": 33}}]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert f"33 samples over 4096 arrows are more than {checks.MAX_SAMPLE_ARROWS}" in err


def test_every_bundled_and_many_small_average_is_under_its_cap():
    docs = []
    for path in bundled_scenarios():
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    averages = [(entry, doc["model"]) for doc in docs + [s.doc for s in workloads.many_small(1)]
                for entry in doc["checks"] if entry["name"] == "average_orbit_constant"]
    assert len(averages) == 42
    check = REGISTRY["average_orbit_constant"]
    for entry, model in averages:
        samples = check.read_params(entry.get("params", {}))["samples"]
        arrows = read_model("finite", model).build().n_arrows
        assert samples * arrows <= checks.MAX_SAMPLE_ARROWS


# every count, samples and kmax parameter of the catalog, with its cap
CAPPED_PARAMS = [(name, key, checks.MAX_DRAWS if kind is checks.DRAWS else checks.MAX_DEGREE)
                 for name, check in sorted(REGISTRY.items())
                 for key, (kind, _) in check.params.items()
                 if kind is checks.DRAWS or key == "kmax"]


def test_every_count_samples_and_kmax_parameter_is_capped():
    assert len(CAPPED_PARAMS) == 10


@pytest.mark.parametrize("value", [None, 1e308])
@pytest.mark.parametrize("name, key, cap", CAPPED_PARAMS,
                         ids=[f"{n}-{k}" for n, k, _ in CAPPED_PARAMS])
def test_param_above_its_cap_is_input_error(capsys, tmp_path, name, key, cap, value):
    engine = REGISTRY[name].engine
    doc = {"name": "x", "engine": engine,
           "model": ROTATION8 if engine == "smooth" else {"kind": "unit", "n": 1},
           "checks": [{"name": name, "params": {key: cap + 1 if value is None else value}}]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert f"'{name}': parameter '{key}' must be <= {cap}" in err


@pytest.mark.parametrize("engine, check, params, message", [
    ("smooth", "averaging_annihilates", {"count": 0}, "'count' must be >= 1"),
    ("smooth", "cocycle_vanishes", {"samples": 0}, "'samples' must be >= 1"),
    ("finite", "average_orbit_constant", {"samples": -1}, "'samples' must be >= 1"),
    ("finite", "boundary_squares", {"kmax": 1}, "'kmax' must be >= 2"),
    ("smooth", "invariance_defect", {"count": 0}, "'count' must be >= 1"),
    ("smooth", "inversion_defect", {"count": 0}, "'count' must be >= 1"),
])
def test_param_that_would_check_nothing_is_input_error(capsys, tmp_path, engine, check,
                                                       params, message):
    model = ROTATION8 if engine == "smooth" else {"kind": "pair", "n": 2}
    doc = {"name": "x", "engine": engine, "model": model,
           "checks": [{"name": check, "params": params}]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert f"'{check}'" in err and message in err


def test_every_entry_is_read_before_the_first_check_runs(capsys, tmp_path, monkeypatch):
    from groupoid_measures import finite
    calls = []
    monkeypatch.setattr(finite, "validate", lambda g: calls.append(g) or [])
    doc = dict(SCENARIO, checks=[{"name": "axioms_valid"},
                                 {"name": "homology_betti", "params": {"kmax": "x"}}])
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert calls == []


def spy_on_every_runner(monkeypatch) -> list:
    """The names of the checks whose runners run, each in place of its runner."""
    calls = []
    for name, check in list(REGISTRY.items()):
        def spy(ctx, tol, _name=name, **values):
            calls.append(_name)
            return 0, 0
        monkeypatch.setitem(REGISTRY, name, dataclasses.replace(check, runner=spy))
    return calls


@pytest.mark.parametrize("bad", [
    dict(SCENARIO, checks=[{"name": "homology_betti", "params": {"kmax": "x"}}]),
    dict(SCENARIO, model={"kind": "pair", "n": 2, "m": 3}),
    {"name": "x", "engine": "smooth", "model": {"kind": "rotation2d", "params": {"nr": 512}},
     "checks": [{"name": "model_axioms"}]},
], ids=["check_params", "model_field", "model_params"])
def test_every_document_is_read_before_the_first_check_runs(capsys, tmp_path,
                                                            monkeypatch, bad):
    calls = spy_on_every_runner(monkeypatch)
    good, bad_path, out = tmp_path / "good.json", tmp_path / "bad.json", tmp_path / "r.csv"
    good.write_text(json.dumps(dict(SCENARIO, checks=[{"name": "axioms_valid"}])))
    bad_path.write_text(json.dumps(bad))
    code, _, err = run_cli(capsys, "run", str(good), str(bad_path), "--out", str(out))
    assert_input_error(code, err)
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("engine, model, entries, message", [
    ("finite", {"kind": "pear"}, [], "unknown model kind 'pear'; declared: 'unit', 'pair'"),
    ("smooth", {"kind": "pair", "n": 2}, [{"name": "model_axioms"}],
     "unknown model kind 'pair'"),
    ("symplectic", {"kind": "foliation"}, [{"name": "dh_two_ways"}],
     "unknown model kind 'foliation'"),
    ("smooth", {"kind": "rotation2d"},
     [{"name": "weinstein_two_ways"}, {"name": "stokes_closed"}],
     "check 'stokes_closed': needs a 'foliation' model, got kind 'rotation2d'"),
    ("smooth", {"kind": "foliation"}, [{"name": "model_axioms"}],
     "check 'model_axioms': needs a group action model, got kind 'foliation'"),
    ("finite", {"kind": "unit", "n": 2, "parts": []}, [],
     "unknown model field 'parts'; declared: n"),
])
def test_a_model_that_no_check_can_run_on_stops_the_run_before_any_check(
        capsys, tmp_path, monkeypatch, engine, model, entries, message):
    calls = spy_on_every_runner(monkeypatch)
    doc = {"name": "x", "engine": engine, "model": model, "checks": entries}
    code, out, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert message in err and calls == [] and out == ""


def test_each_scenario_context_is_released_before_the_next_runs(capsys, tmp_path,
                                                                monkeypatch):
    # a context caches models and grids; every document is read first, but
    # holding a context per document would raise the peak memory of the run
    import weakref
    alive, contexts = [], []

    def spy(ctx, tol):
        alive.append(sum(ref() is not None for ref in contexts))
        contexts.append(weakref.ref(ctx))
        return 0, 0
    monkeypatch.setitem(REGISTRY, "axioms_valid",
                        dataclasses.replace(REGISTRY["axioms_valid"], runner=spy))
    paths = []
    for k in range(3):
        paths.append(tmp_path / f"s{k}.json")
        paths[-1].write_text(json.dumps(dict(SCENARIO, checks=[{"name": "axioms_valid"}])))
    code, _, _ = run_cli(capsys, "run", *map(str, paths))
    assert code == 0 and alive == [0, 0, 0]


@pytest.mark.parametrize("exc, message", [
    (MemoryError(), "out of memory"),
    (MemoryError("Unable to allocate 64.0 GiB for an array with shape (2, 2**32)"),
     "out of memory: Unable to allocate 64.0 GiB for an array with shape (2, 2**32)"),
], ids=["bare", "numpy"])
def test_a_check_that_runs_out_of_memory_is_input_error(capsys, tmp_path, monkeypatch,
                                                        exc, message):
    # a stub raises MemoryError in place of the runner; nothing is allocated
    def out_of_memory(ctx, tol):
        raise exc
    monkeypatch.setitem(REGISTRY, "axioms_valid",
                        dataclasses.replace(REGISTRY["axioms_valid"], runner=out_of_memory))
    code, out, err = run_doc(capsys, tmp_path, SCENARIO)
    assert_input_error(code, err)
    assert out == "" and err == f"error: check 'axioms_valid': {message}\n"


def test_exact_rows_compare_exactly(capsys, tmp_path, monkeypatch):
    from fractions import Fraction

    from groupoid_measures.checks import CheckDef
    tiny = Fraction(1, 10 ** 400)  # rounds to 0.0 as a float
    monkeypatch.setitem(REGISTRY, "exact_sides", CheckDef(
        "exact_sides", "finite", lambda ctx, tol: {
            "tiny": (tiny, 0), "third": (Fraction(1, 3), Fraction(1, 3)), "count": (3, 3)},
        0.0, True, {}, "finite_groupoid"))
    path, out = tmp_path / "s.json", tmp_path / "r.json"
    path.write_text(json.dumps(dict(SCENARIO, checks=[{"name": "exact_sides"}])))
    code, _, _ = run_cli(capsys, "run", str(path), "--format", "json", "--out", str(out))
    assert code == 1
    rows = {r["check"]: r for r in json.loads(out.read_text())["rows"]}
    assert [rows[k]["pass"] for k in ("tiny", "third", "count")] == [False, True, True]
    # the text is rounded only when rendered: floats, as for every row
    assert out.read_text().count('"lhs": 3.0,') == 1
    assert rows["tiny"]["lhs"] == rows["tiny"]["abs_err"] == 0.0
    row = REGISTRY["exact_sides"].rows("x", {"tiny": (tiny, 0)}, 0.0)[0]
    assert row.abs_err == tiny and not row.passed
    _, csv_text, _ = run_cli(capsys, "run", str(path))
    assert "x,count,3,3,0,0,0,true" in csv_text.splitlines()


def test_exact_row_errors_are_exact_and_rendered_as_floats():
    from fractions import Fraction

    from groupoid_measures.reports import CheckRow
    row = CheckRow("x", "c", Fraction(1, 3), Fraction(1, 2), 0.0, exact=True)
    assert row.abs_err == Fraction(1, 6) and row.rel_err == Fraction(1, 3)
    assert not row.passed
    assert row.rendered() == {"lhs": 1 / 3, "rhs": 0.5, "abs_err": 1 / 6,
                              "rel_err": 1 / 3}
    assert all(type(v) is float for v in row.rendered().values())
    # against a zero reference the relative error is the absolute one
    zero = CheckRow("x", "c", 2, 0, 0.0, exact=True)
    assert zero.rel_err == zero.abs_err == 2 and type(zero.rel_err) is int
    assert CheckRow("x", "c", 7, 7, 0.0, exact=True).passed


def test_model_axioms_below_its_defect_is_a_failing_row(capsys, tmp_path):
    doc = {"name": "x", "engine": "smooth", "model": ROTATION8,
           "checks": [{"name": "model_axioms", "tolerance": 1e-300}]}
    code, out, err = run_doc(capsys, tmp_path, doc)
    assert code == 1 and "Traceback" not in err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["check"], r["pass"]) for r in rows] == [("model_axioms", "false")]


@pytest.mark.parametrize("model, check, message", [
    ({"kind": "sphere"}, {"name": "affine_total", "params": {"expected": "4*pi"}},
     "needs a leaf-family model, which has no kind, got kind 'sphere'"),
    ({"kind": "sphere"}, {"name": "iota_scaling"}, "got kind 'sphere'"),
    ({"kind": "torus_cell"}, {"name": "affine_volume_two_ways"}, "got kind 'torus_cell'"),
    (LEAF_FAMILY, {"name": "liouville_total", "params": {"expected": "4*pi"}},
     "needs a 'sphere' or 'torus_cell' model, got kind None"),
    (LEAF_FAMILY, {"name": "dh_two_ways"}, "got kind None"),
    ({"area": "2 + 0*t"}, {"name": "dh_expected", "params": {"expected": "4"}},
     "got kind None"),
])
def test_symplectic_checks_need_their_model_kind(capsys, tmp_path, model, check, message):
    doc = {"name": "x", "engine": "symplectic", "model": model, "checks": [check]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert f"'{check['name']}'" in err and message in err


@pytest.mark.parametrize("check", ["invariance_defect", "inversion_defect",
                                   "averaging_annihilates", "cocycle_additivity",
                                   "cocycle_vanishes"])
@pytest.mark.parametrize("sigma, message", [
    ({"rho": "1 + sqrt(x - 0.5)"}, "'1 + sqrt(x - 0.5)' is not finite at every point"),
    ({"tau": "log(x + 0.5)"}, "'log(x + 0.5)' is not finite at every point"),
])
def test_nan_density_is_input_error(capsys, tmp_path, check, sigma, message):
    # NaN compares false both ways: it used to slip past the sign tests and
    # give passing rows with lhs 0.  The sample is rejected where it is
    # taken, and numpy's own warning about the sqrt or log is not raised.
    doc = {"name": "x", "engine": "smooth",
           "model": {"kind": "mirror_interval", "params": {"n": 33}, "sigma": sigma},
           "checks": [{"name": check}]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert f"check '{check}': {message}" in err


@pytest.mark.parametrize("sigma, check, message", [
    ({"rho": "x"}, {"name": "invariance_defect"},
     "algebroid weight must be strictly positive and finite"),
    ({"tau": "x"}, {"name": "invariance_defect"}, "base density must be nonnegative and finite"),
    ({}, {"name": "weinstein_two_ways", "params": {"phi": "-1 + 0*x"}},
     "cut-off seed 'phi' must be nonnegative and finite"),
])
def test_finite_density_or_seed_of_the_wrong_sign_is_input_error(capsys, tmp_path, sigma,
                                                                 check, message):
    doc = {"name": "x", "engine": "smooth",
           "model": {"kind": "mirror_interval", "params": {"n": 33}, "sigma": sigma},
           "checks": [check]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert f"check '{check['name']}': {message}" in err


@pytest.mark.parametrize("check", [
    {"name": "cocycle_expected", "params": {"element": 3, "point": [-1.0], "expected": "0"}},
    {"name": "cocycle_additivity"},
])
def test_sigma_not_positive_at_a_cocycle_endpoint_is_input_error(capsys, tmp_path, check):
    # positive on the grid [0.5, 3], negative at x < 0 and above 5
    doc = {"name": "x", "engine": "smooth",
           "model": {"kind": "scaling_line", "sigma": {"rho": "5 - x", "tau": "x"}},
           "checks": [check]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert "strictly positive and finite at both endpoints" in err


MIRROR33 = {"kind": "mirror_interval", "params": {"n": 33}}


@pytest.mark.parametrize("model, check, message", [
    (dict(MIRROR33, sigma={"rho": "1 + sqrt(x - 0.5)"}), {"name": "invariance_defect"},
     "'1 + sqrt(x - 0.5)' is not finite"),
    (dict(MIRROR33, sigma={"tau": "log(x + 0.5)"}), {"name": "invariance_defect"},
     "'log(x + 0.5)' is not finite"),
    # a cut-off seed that is NaN, or inf, at every node
    ({"kind": "circle_self", "params": {"n": 256}},
     {"name": "weinstein_two_ways", "params": {"phi": "sqrt(-1)"}}, "'sqrt(-1)' is not finite"),
    ({"kind": "circle_self", "params": {"n": 256}},
     {"name": "weinstein_two_ways", "params": {"phi": "exp(1000*t)"}},
     "'exp(1000*t)' is not finite"),
])
def test_nan_density_prints_only_the_error_line(tmp_path, model, check, message):
    # a fresh interpreter with Python's default warning filters, so a numpy
    # RuntimeWarning would reach stderr ahead of the error line
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"name": "x", "engine": "smooth", "model": model,
                                "checks": [check]}))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
    proc = subprocess.run([sys.executable, "-m", "groupoid_measures.cli", "run", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert_input_error(proc.returncode, proc.stderr)
    assert f"check '{check['name']}': {message}" in proc.stderr


FAMILY_1E200 = dict(LEAF_FAMILY, area="1e200*t", area_derivative="1e200 + 0*t")
FOLIATION33 = {"kind": "foliation", "n_leaf": 33, "n_transverse": 5}


# affine_overflow.json and weinstein_rho_overflow.json are two more
@pytest.mark.parametrize("engine, model, check, message", [
    ("symplectic", FAMILY_1E200, {"name": "dh_weyl", "params": {"f": "1e300 + 0*t"}},
     "overflow encountered"),
    ("symplectic", FAMILY_1E200, {"name": "iota_scaling"}, "overflow encountered"),
    ("symplectic", {"kind": "sphere", "area": 1e308}, {"name": "dh_two_ways"},
     "overflow encountered"),
    ("smooth", dict(ROTATION8, sigma={"tau": "1e308 + 0*r"}), {"name": "invariance_defect"},
     "overflow encountered"),
    ("smooth", ROTATION8, {"name": "weyl", "params": {"f": "1e308*r"}},
     "'1e308*r' is not finite at every point"),
    ("smooth", FOLIATION33, {"name": "stokes_closed", "params": {"omega": "1e308*x + 0*y"}},
     "overflow encountered"),
])
def test_finite_data_whose_check_overflows_is_input_error(capsys, tmp_path, engine, model,
                                                          check, message):
    # no row may hold the inf or NaN these give, nor compare two of them
    doc = {"name": "x", "engine": engine, "model": model, "checks": [check]}
    code, out, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert out == "" and f"check '{check['name']}': {message}" in err


def test_finite_wrong_answer_with_extreme_values_stays_a_failing_row(capsys, tmp_path):
    doc = {"name": "x", "engine": "symplectic", "model": FAMILY_1E200,
           "checks": [{"name": "affine_total", "params": {"expected": "1"}}]}
    code, out, err = run_doc(capsys, tmp_path, doc)
    assert code == 1 and "Traceback" not in err
    (row,) = csv.DictReader(io.StringIO(out))
    assert float(row["lhs"]) == pytest.approx(1e200) and row["pass"] == "false"


def test_underflow_in_a_check_keeps_numpys_default(capsys, tmp_path):
    # f and tau are normal floats at x = -0.3125, their product is not
    doc = {"name": "x", "engine": "smooth",
           "model": dict(MIRROR33, sigma={"tau": "exp(-1000*x**2)"}),
           "checks": [{"name": "weyl", "params": {"f": "exp(-1000*(x-0.5)**2)"}}]}
    with np.errstate(under="raise"):
        code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert "check 'weyl': underflow encountered" in err
    code, out, err = run_doc(capsys, tmp_path, doc)
    assert code == 0 and err == "# 1/1 checks passed\n"
    (row,) = csv.DictReader(io.StringIO(out))
    assert 0 < float(row["lhs"]) == float(row["rhs"])


# ---------------------------------------------------------------------------
# seeded draws: random.Random(seed + salt) in one fresh process, over many
# seeds, and on random finite groupoids written as json models

FINITE_CHECKS = [name for name, d in REGISTRY.items() if d.engine == "finite"]


def finite_json_doc(g, seed):
    """A finite scenario on ``g`` as a ``json`` model with every finite check."""
    return {"name": "finite_json", "engine": "finite", "seed": seed,
            "model": {"kind": "json", "doc": json.loads(g.to_json())},
            "checks": [{"name": name} for name in FINITE_CHECKS]}


# the process imports numpy first: a numpy that loads numpy.random itself
# (before 2.0) leaves nothing for the run to add
NO_RANDOM_MODULES = """
import json, sys
import numpy
guarded = ("numpy.random", "secrets", "_hashlib")
preloaded = [m for m in guarded if m in sys.modules]
from groupoid_measures import cli
code = cli.main(["run", *cli.bundled_scenarios(), *sys.argv[1:]])
print(json.dumps({"exit": code, "preloaded": preloaded,
                  "loaded": [m for m in guarded if m in sys.modules]}))
"""


def test_gm_run_loads_neither_numpy_random_nor_openssl(tmp_path):
    # every seeded draw comes from the stdlib random.Random: numpy.random
    # imports secrets, and secrets OpenSSL's _hashlib
    path = tmp_path / "finite.json"
    action = finite.action_groupoid(finite.cyclic_group_table(2),
                                    [[0, 1, 2], [1, 0, 2]], 3)
    path.write_text(json.dumps(finite_json_doc(action, 5)))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-c", NO_RANDOM_MODULES, str(path),
         "--out", str(tmp_path / "report.csv")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["preloaded"]:
        pytest.skip(f"importing numpy loads {result['preloaded']} itself")
    assert result == {"exit": 0, "preloaded": [], "loaded": []}


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 77, 1000, 123456789, 2**32])
def test_every_bundled_row_passes_for_the_benchmark_seeds(capsys, tmp_path, monkeypatch,
                                                         seed):
    monkeypatch.setenv("GM_SEED", str(seed))
    out = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "run", *bundled_scenarios(), "--format", "json",
                         "--out", str(out))
    rows = json.loads(out.read_text())["rows"]
    assert code == 0
    assert len(rows) == 88 and all(r["pass"] for r in rows)


@st.composite
def permutation_actions(draw):
    """Z_m acting on 1-4 points through the powers of one permutation; m is
    a multiple of its order, so some points have nontrivial isotropy."""
    points = draw(st.integers(1, 4))
    perm = draw(st.permutations(range(points)))
    powers = [list(range(points))]
    while len(powers) == 1 or powers[-1] != powers[0]:
        powers.append([perm[x] for x in powers[-1]])
    order = len(powers) - 1
    m = order * draw(st.integers(1, max(1, 6 // order)))
    action = [powers[a % order] for a in range(m)]
    return finite.action_groupoid(finite.cyclic_group_table(m), action, points)


FINITE_GROUPOIDS = st.one_of(
    permutation_actions(),
    st.tuples(permutation_actions(), permutation_actions()).filter(
        lambda pair: pair[0].n_arrows + pair[1].n_arrows <= 12).map(
        lambda pair: finite.disjoint_union(*pair)))


@settings(max_examples=25, deadline=None)
@given(FINITE_GROUPOIDS, st.integers(0, 2**40))
def test_random_finite_groupoids_pass_every_finite_check(g, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.json")
        out = os.path.join(tmp, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(finite_json_doc(g, seed), fh)
        code = main(["run", path, "--format", "json", "--out", out])
        with open(out, encoding="utf-8") as fh:
            rows = json.load(fh)["rows"]
    assert code == 0
    assert {r["check"].split("[")[0] for r in rows} == set(FINITE_CHECKS)
    assert all(r["pass"] for r in rows)
