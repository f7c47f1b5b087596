"""The check catalog as a table: every declared parameter is listed and read
the same way, so a malformed value is an input error, never a traceback."""

import contextlib
import csv
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from groupoid_measures.checks import MODEL_KINDS, REGISTRY, REQUIRED
from groupoid_measures.cli import bundled_scenarios, main
from groupoid_measures.expressions import FIELD
from groupoid_measures.finite import pair_groupoid

# a small model for the checks of each engine ...
ENGINE_MODELS = {
    "finite": {"kind": "pair", "n": 2},
    "smooth": {"kind": "circle_self", "params": {"n": 8}},
    "symplectic": {"B": {"lo": 1, "hi": 2, "n": 5}, "leaf_nodes": 8},
}
# ... and for the checks that build their own model from the document
FOLIATION = {"kind": "foliation", "n_leaf": 9, "n_transverse": 5}
SUBMERSION = {"kind": "submersion_probe", "n_base": 5, "n_fiber": 65}
OWN_MODELS = {
    "stokes_closed": FOLIATION, "stokes_order": FOLIATION,
    "ruelle_sullivan_closed": FOLIATION, "ruelle_sullivan_pairing": FOLIATION,
    "exactness_reconstruction": SUBMERSION, "exactness_obstruction": SUBMERSION,
    "liouville_total": {"kind": "sphere"}, "dh_two_ways": {"kind": "sphere"},
    "dh_expected": {"kind": "sphere"},
}
# a valid value of each kind a check may require
REQUIRED_VALUES = {"field expression": "1 + 0*x", "scalar expression": "1", "int": 0}


def small_scenario(name: str, params: dict | None = None) -> dict:
    """A tiny valid scenario running one check, with its required params."""
    check = REGISTRY[name]
    required = {key: REQUIRED_VALUES[kind.label]
                for key, (kind, default) in check.params.items() if default is REQUIRED}
    return {"name": "t", "engine": check.engine, "seed": 1,
            "model": OWN_MODELS.get(name, ENGINE_MODELS[check.engine]),
            "checks": [{"name": name, "params": dict(required, **(params or {}))}]}


def run(doc) -> tuple[int, str, str]:
    """``gm run`` on a document, as (exit, stdout, stderr); an escaping
    exception fails the caller."""
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", path])
        return code, out.getvalue(), err.getvalue()
    finally:
        os.unlink(path)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_every_check_runs_on_its_small_scenario(name):
    code, out, err = run(small_scenario(name))
    assert code in (0, 1), err
    assert_documented_exit(code, out, err)


def test_list_checks_names_every_declared_parameter(capsys):
    assert main(["list-checks"]) == 0
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
    assert set(lines) == set(REGISTRY)
    for name, check in REGISTRY.items():
        for key, (kind, default) in check.params.items():
            assert f"{key}: {kind.label} = " in lines[name]
        if not check.params:
            assert lines[name].endswith("params: -")


TEXT = st.text(alphabet="xyt +*().", max_size=6)  # no digits: no huge counts
# fields that are non-finite or zero at some node of every small model, a
# subscript, which no field takes, and finite fields at the ends of the float
# range, whose products overflow or underflow
BAD_FIELDS = ["log(t - 1)", "sqrt(x - 0.5)", "0*x", "1/(x - x)", "phi[5]",
              "1e200*t", "1e200 + 0*t", "1e-310 + 0*x", "-1e308 + 0*y"]
JSON_VALUES = st.one_of(
    TEXT,
    st.sampled_from(BAD_FIELDS),
    st.floats(-4, 4) | st.sampled_from([math.nan, math.inf, 1e308, -1e308, 5e-324]),
    st.integers(-3, -1),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-1, 3) | TEXT, max_size=3),
    st.dictionaries(TEXT, st.integers(0, 2), max_size=2),
)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(REGISTRY)), st.data())
def test_any_param_value_gives_a_documented_exit(name, data):
    keys = sorted(REGISTRY[name].params)
    if keys and data.draw(st.booleans()):
        params = {data.draw(st.sampled_from(keys)): data.draw(JSON_VALUES)}
    else:
        params = {"undeclared": data.draw(JSON_VALUES)}
    code, out, err = run(small_scenario(name, params))
    assert_documented_exit(code, out, err)
    if "undeclared" in params:
        assert code == 2 and "unknown parameter 'undeclared'" in err


FIELD_PARAMS = [(name, key) for name, check in sorted(REGISTRY.items())
                for key, (kind, _) in check.params.items()
                if kind.convert is FIELD.convert]  # memo kinds included


@pytest.mark.parametrize("expr", BAD_FIELDS)
@pytest.mark.parametrize("name, key", FIELD_PARAMS)
def test_every_field_parameter_gives_a_documented_exit_on_a_bad_field(name, key, expr):
    code, out, err = run(small_scenario(name, {key: expr}))
    assert_documented_exit(code, out, err)


def assert_documented_exit(code: int, out: str, err: str):
    """Exit 2 prints one error line; exit 0 or 1 writes a report whose every
    lhs, rhs, abs_err and rel_err is finite."""
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
    else:
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows and all(math.isfinite(float(r[side]))
                            for r in rows
                            for side in ("lhs", "rhs", "abs_err", "rel_err")), out


def value_paths(value, path=()):
    """The path of every value inside a JSON value, objects and lists too."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield path + (key,)
        yield from value_paths(item, path + (key,))


def replaced(doc, path, value):
    """A deep copy of ``doc`` with the value at ``path`` replaced."""
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return doc


BUNDLED = {}
for scenario_path in bundled_scenarios():
    with open(scenario_path, encoding="utf-8") as fh:
        BUNDLED[os.path.basename(scenario_path)] = json.load(fh)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(BUNDLED)), st.data())
def test_any_model_value_gives_a_documented_exit(name, data):
    # one value of the model document (its sigma included) replaced
    doc = BUNDLED[name]
    path = data.draw(st.sampled_from(list(value_paths(doc["model"], ("model",)))))
    code, out, err = run(replaced(doc, path, data.draw(JSON_VALUES)))
    assert_documented_exit(code, out, err)


SIGMA = {"rho": "1 + 0*x", "tau": "1 + 0*x"}
# a small valid descriptor of every model kind in the table
KIND_MODELS = {
    "finite": {
        "unit": {"kind": "unit", "n": 2},
        "pair": {"kind": "pair", "n": 2},
        "cyclic": {"kind": "cyclic", "n": 3},
        "z2_action": {"kind": "z2_action", "points": 3, "swaps": [[0, 1]]},
        "disjoint_union": {"kind": "disjoint_union",
                           "parts": [{"kind": "unit", "n": 1}, {"kind": "pair", "n": 2}]},
        "json": {"kind": "json", "doc": json.loads(pair_groupoid(2).to_json())},
    },
    "smooth": {
        "rotation2d": {"kind": "rotation2d", "sigma": SIGMA,
                       "params": {"n_r": 4, "n_phi": 8, "r_lo": 1.0, "r_hi": 2.0}},
        "finite_action": {"kind": "finite_action", "sigma": SIGMA,
                          "params": {"preset": "mirror_interval", "n": 9, "half_width": 1.0}},
        "antipodal_circle": {"kind": "antipodal_circle", "params": {"n": 8}, "sigma": SIGMA},
        "mirror_interval": {"kind": "mirror_interval", "sigma": SIGMA,
                            "params": {"n": 9, "half_width": 1.0}},
        "circle_self": {"kind": "circle_self", "params": {"n": 8}, "sigma": SIGMA},
        "trivial": {"kind": "trivial", "params": {}, "sigma": SIGMA,
                    "grid": {"axes": [{"n": 5, "lo": 0, "hi": 1, "periodic": False}]}},
        "scaling_line": {"kind": "scaling_line", "params": {"max_power": 2}, "sigma": SIGMA},
        "foliation": FOLIATION,
        "submersion_probe": SUBMERSION,
    },
    "symplectic": {
        "sphere": {"kind": "sphere", "area": 2.0},
        "torus_cell": {"kind": "torus_cell"},
        None: dict(ENGINE_MODELS["symplectic"], area="4*pi*t", area_derivative="4*pi + 0*t",
                   iota=1, leaf="sphere"),
    },
}
KINDS = [(engine, kind) for engine, kinds in MODEL_KINDS.items() for kind in kinds]


def kind_scenario(engine: str, kind, model: dict) -> dict:
    """A scenario running the first check, by name, that a model of the kind serves."""
    serves = MODEL_KINDS[engine][kind].serves
    name = next(name for name, check in sorted(REGISTRY.items())
                if check.engine == engine and check.model in serves)
    return dict(small_scenario(name), model=model)


def test_every_model_kind_has_a_small_descriptor_that_runs():
    assert KINDS == [(engine, kind) for engine, kinds in KIND_MODELS.items() for kind in kinds]
    for engine, kind in KINDS:
        code, out, err = run(kind_scenario(engine, kind, KIND_MODELS[engine][kind]))
        assert code in (0, 1), err


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KINDS), st.data())
def test_any_model_field_value_gives_a_documented_exit(engine_kind, data):
    # one declared field of a descriptor replaced, or a key it does not declare added
    engine, kind = engine_kind
    fields = sorted(MODEL_KINDS[engine][kind].fields)
    key = "undeclared"
    if fields and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(fields))
    model = dict(KIND_MODELS[engine][kind], **{key: data.draw(JSON_VALUES)})
    code, out, err = run(kind_scenario(engine, kind, model))
    assert_documented_exit(code, out, err)
    if key == "undeclared":
        assert code == 2 and "unknown model field 'undeclared'" in err
