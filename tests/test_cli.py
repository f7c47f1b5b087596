"""CLI contract: exit codes, report formats, determinism, wire formats."""

import csv
import io
import json
import os

import pytest

from groupoid_measures.cli import bundled_scenarios, main
from groupoid_measures.checks import REGISTRY


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


def test_parallel_scenarios_give_same_rows(capsys):
    _, seq, _ = run_cli(capsys, "run", "pair3_homology", "z2_group")
    _, par, _ = run_cli(capsys, "run", "pair3_homology", "z2_group", "--parallel")
    assert seq == par


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


def test_bad_tol_flag_is_input_error(capsys):
    code, _, err = run_cli(capsys, "run", "z2_group", "--tol", "oops")
    assert code == 2
    assert "KEY=VALUE" in err


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


def test_both_defect_checks_share_one_pass_of_fiber_integrals(capsys, tmp_path,
                                                              monkeypatch):
    # 8 test functions: one s- and one t-integral each, and a t-integral is
    # an s-integral of the inverted function, so 16 s-calls and 8 t-calls
    # (24 in all); two separate passes made 32 and 8 (40 in all)
    from groupoid_measures.smooth import transverse
    calls = {"s": 0, "t": 0}
    for key, attr in (("s", "s_fiber_integrate"), ("t", "t_fiber_integrate")):
        def counted(*args, _fn=getattr(transverse, attr), _key=key):
            calls[_key] += 1
            return _fn(*args)
        monkeypatch.setattr(transverse, attr, counted)
    doc = {"name": "x", "engine": "smooth",
           "model": {"kind": "rotation2d", "params": {"n_r": 6, "n_phi": 16}},
           "checks": [{"name": "invariance_defect"}, {"name": "inversion_defect"}]}
    code, out, _ = run_doc(capsys, tmp_path, doc)
    assert code == 0
    assert [r["check"] for r in csv.DictReader(io.StringIO(out))] == \
        ["invariance_defect", "inversion_defect"]
    assert calls == {"s": 16, "t": 8}


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
    ({"leaf": "cube"}, "unknown leaf template 'cube'"),
    ({"area": "-t"}, "leaf areas must be positive"),
    ({"B": {"n": 1, "lo": 1, "hi": 2}}, "too few nodes"),
    ({"B": {"lo": 2, "hi": 1, "n": 9}}, "hi > lo"),
    ({"B": {"hi": 2, "n": 9}}, "missing 'lo'"),
    ({"B": {"lo": "a", "hi": 2, "n": 9}}, "'a'"),
    ({"leaf_nodes": 1}, "leaf_nodes"),
])
def test_malformed_leaf_family_is_input_error(capsys, tmp_path, change, message):
    doc = {"name": "x", "engine": "symplectic", "model": dict(LEAF_FAMILY, **change),
           "checks": [{"name": "affine_volume_two_ways"}]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert "'affine_volume_two_ways'" in err and message in err


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


@pytest.mark.parametrize("area, message", [("x", "'x'"), (-1, "positive")])
def test_bad_sphere_area_is_input_error(capsys, tmp_path, area, message):
    doc = {"name": "x", "engine": "symplectic", "model": {"kind": "sphere", "area": area},
           "checks": [{"name": "liouville_total", "params": {"expected": "1"}}]}
    code, _, err = run_doc(capsys, tmp_path, doc)
    assert_input_error(code, err)
    assert "'liouville_total'" in err and message in err


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

    def counted_integrate(rho, _fn=models.integrate):
        calls["integrate"] += 1
        return _fn(rho)

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
