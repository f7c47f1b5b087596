"""Reading and running scenario documents: everything between a parsed JSON
document and its report rows.

A violated identity is a failing row.  An input error is a ``ScenarioError``,
raised where a value is first found wrong: malformed JSON, a document of the
wrong shape, unknown checks (in a document or a ``--tol`` key), bad check
parameters, a model kind its engine lacks or a model key its kind does not
declare, a key a document or a check entry does not declare, a check whose
family the model does not serve, missing or unwritable files, or data that
breaks a precondition of a check (an orbit volume below threshold, a
degenerate lattice), a field sample that is not finite, a check whose
arithmetic overflows, is invalid or divides by zero, a check that runs out of
memory, or a float row whose error |lhs - rhs| overflows, so no row holds a
NaN or an inf.  Anything else, a ``ModelError`` included (misuse of the
library or a constructor check that no document reaches), is a bug in the
program and ends in a traceback.  Every document, its model descriptor and
every check entry are read before the first check runs.
"""

from __future__ import annotations

import numpy as np

from .checks import FAMILIES, MODEL_KINDS, REGISTRY, ScenarioContext, read_model
from .expressions import REQUIRED, Kind, ScenarioError, integer, number, read_fields
from .reports import CheckRow


SEED = integer(0)  # nonnegative: random.Random(-n) would repeat random.Random(n)
TOLERANCE = number(0)


def _json(shape: type) -> Kind:
    """A JSON object (dict) or list, as it is."""
    what = "object" if shape is dict else "list"

    def convert(value, name):
        if not isinstance(value, shape):
            raise ScenarioError(f"{name} must be a JSON {what}, got {value!r}")
        return value
    return Kind(f"JSON {what}", convert)


def _string(value, name) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{name} must be a string, got {value!r}")
    return value


def _engine(value, name) -> str:
    if not (isinstance(value, str) and value in MODEL_KINDS):
        raise ScenarioError(f"unknown engine {value!r}")
    return value


ENGINE = Kind("engine", _engine)


_ANY, _ABSENT = Kind("JSON value", lambda value, name: value), object()
# the fields of a scenario document, read in this order, and of each check
# entry; a check's tolerance is read once it is chosen from its entry, the
# document's tolerances, the check's default and --tol
SCENARIO_FIELDS = {"name": (Kind("string", _string), REQUIRED),
                   "engine": (ENGINE, REQUIRED),
                   "seed": (SEED, 0),
                   "model": (_json(dict), REQUIRED),
                   "tolerances": (_json(dict), {}),
                   "checks": (_json(list), REQUIRED)}
CHECK_FIELDS = {"name": (_ANY, None), "params": (_ANY, {}), "tolerance": (_ANY, _ABSENT)}


def read_scenario(doc: dict, tol_overrides: dict[str, float] | None = None,
                  seed_override: int | None = None) -> tuple[tuple, list]:
    """The arguments of a scenario's context and its plan: each check with its
    tolerance and parameter values.  Every field of the document, its model
    descriptor and every check entry are read, a field none of them declares
    is an input error, each check is matched to the model's families, and no
    check runs and no model is built."""
    fields = read_fields(doc, SCENARIO_FIELDS, lambda key: f"scenario field {key!r}")
    engine = fields["engine"]
    seed = fields["seed"] if seed_override is None else seed_override
    model = read_model(engine, fields["model"])
    plan = []
    for entry in fields["checks"]:
        if not isinstance(entry, dict):
            raise ScenarioError(f"a check entry must be a JSON object, got {entry!r}")
        name = entry.get("name")
        if not isinstance(name, str) or name not in REGISTRY:
            valid = ", ".join(sorted(REGISTRY))
            raise ScenarioError(f"unknown check {name!r}; valid names: {valid}")
        check = REGISTRY[name]
        if check.engine != engine:
            raise ScenarioError(f"check {name!r} belongs to engine {check.engine!r}, "
                                f"scenario uses {engine!r}")
        try:
            entry = read_fields(entry, CHECK_FIELDS, lambda key: f"check entry field {key!r}")
            tol = entry["tolerance"]
            if tol is _ABSENT:
                tol = fields["tolerances"].get(name, check.default_tol)
            tol = (tol_overrides or {}).get(name, tol)
            if check.model not in model.entry.serves:
                raise ScenarioError(FAMILIES[check.model][1].format(kind=model.kind))
            plan.append((check, TOLERANCE.convert(tol, "tolerance"),
                         check.read_params(entry["params"])))
        except ScenarioError as exc:
            raise ScenarioError(f"check {name!r}: {exc}") from exc
    return (fields["name"], model, seed), plan


def run_scenario(scenario: tuple[tuple, list]) -> list[CheckRow]:
    """Runs the checks of a scenario from ``read_scenario``, in order, in a
    context that drops each field sample and cut-off at its last planned
    read and its other caches when the scenario is done.  numpy raises on
    overflow, invalid operations and division by zero, treats underflow as
    the caller does, and has the caller's error state back at the end."""
    context, plan = scenario
    ctx = ScenarioContext(*context, plan)
    rows: list[CheckRow] = []
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for check, tol, values in plan:
            try:
                rows.extend(check.rows(ctx.name, check.runner(ctx, tol, **values), tol))
            except (ScenarioError, FloatingPointError) as exc:
                raise ScenarioError(f"check {check.name!r}: {exc}") from exc
            except MemoryError as exc:  # a size no machine could hold
                raise ScenarioError(f"check {check.name!r}: out of memory"
                                    + (f": {exc}" if str(exc) else "")) from exc
    return rows
