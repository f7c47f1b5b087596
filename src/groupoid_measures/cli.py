"""Command-line front end: run scenario files, list the check catalog.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 input error.
A violated identity is a failing row.  An input error is a ``ScenarioError``,
raised where a value is first found wrong: malformed JSON, a document of the
wrong shape, unknown checks (in a document or a ``--tol`` key), bad check
parameters, a model kind its engine lacks or a model key its kind does not
declare, a key a document or a check entry does not declare, a check whose
family the model does not serve, missing or unwritable files, or data that
breaks a precondition of a check (an orbit volume below threshold, a
degenerate lattice), a field sample that is not finite, a check whose
arithmetic overflows, is invalid or divides by zero, or a float row whose
error |lhs - rhs| overflows, so no row holds a NaN or an inf.  Anything
else, a ``ModelError`` included (misuse of the library or a constructor
check that no document reaches), is a bug in the program and ends in a
traceback.  Every document, its model descriptor
and every check entry are read before the first check runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from importlib import resources

import numpy as np

from .checks import FAMILIES, MODEL_KINDS, REGISTRY, ScenarioContext, catalog, read_model
from .expressions import REQUIRED, Kind, ScenarioError, integer, number, read_fields
from .reports import CheckRow, Report


SEED = integer(0)  # nonnegative: random.Random(-n) would repeat random.Random(n)
TOLERANCE = number(0)


def load_scenario(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: malformed JSON at line {exc.lineno}, "
                            f"column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ScenarioError(f"{path}: JSON nested too deep to parse") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: a scenario must be a JSON object, got {doc!r}")
    return doc


def _parse_tol_overrides(pairs: list[str]) -> dict[str, float]:
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ScenarioError(f"--tol expects KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        if key not in REGISTRY:
            raise ScenarioError(f"--tol names no check {key!r}; valid names: "
                                f"{', '.join(sorted(REGISTRY))}")
        overrides[key] = TOLERANCE.convert(value, f"--tol value for {key!r}")
    return overrides


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


_ANY, _ABSENT = Kind("JSON value", lambda value, name: value), object()
# the fields of a scenario document, read in this order, and of each check
# entry; a check's tolerance is read once it is chosen from its entry, the
# document's tolerances, the check's default and --tol
SCENARIO_FIELDS = {"name": (Kind("string", _string), REQUIRED),
                   "engine": (Kind("engine", _engine), REQUIRED),
                   "seed": (SEED, 0),
                   "model": (_json(dict), REQUIRED),
                   "tolerances": (_json(dict), {}),
                   "checks": (_json(list), REQUIRED)}
CHECK_FIELDS = {"name": (_ANY, None), "params": (_ANY, {}), "tolerance": (_ANY, _ABSENT)}


def read_scenario(doc: dict, tol_overrides: dict[str, float] | None = None,
                  seed_override: int | None = None) -> tuple[tuple, list]:
    """The arguments of a scenario's context and its checks, each with its
    tolerance and parameter values; every field of the document, its model
    descriptor and every check entry are read, a field none of them declares
    is an input error, each check is matched to the model's families, and no
    check runs and no model is built.  The context's plan counts the reads
    of each memo (``CheckDef.memos``)."""
    tol_overrides = tol_overrides or {}
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
            tol = tol_overrides.get(name, tol)
            if check.model not in model.entry.serves:
                raise ScenarioError(FAMILIES[check.model][1].format(kind=model.kind))
            plan.append((check, TOLERANCE.convert(tol, "tolerance"),
                         check.read_params(entry["params"])))
        except ScenarioError as exc:
            raise ScenarioError(f"check {name!r}: {exc}") from exc
    reads = Counter(key for check, _, values in plan for key in check.memos(values))
    return (fields["name"], engine, model, seed, reads), plan


def run_scenario(scenario: tuple[tuple, list]) -> list[CheckRow]:
    """Runs the checks of a scenario from ``read_scenario``, in order, in a
    context that drops each field sample and cut-off at its last planned
    read and its other caches when the scenario is done; numpy raises on
    overflow, invalid operations and division by zero, not on underflow."""
    context, plan = scenario
    ctx = ScenarioContext(*context)
    rows: list[CheckRow] = []
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for check, tol, values in plan:
            try:
                rows.extend(check.rows(ctx.name, check.runner(ctx, tol, **values), tol))
            except (ScenarioError, FloatingPointError) as exc:
                raise ScenarioError(f"check {check.name!r}: {exc}") from exc
    return rows


def bundled_scenarios() -> list[str]:
    base = resources.files("groupoid_measures").joinpath("scenarios")
    return sorted(str(p) for p in base.iterdir() if p.name.endswith(".json"))


def _resolve_path(path: str) -> str:
    if os.path.exists(path):
        return path
    bundled = resources.files("groupoid_measures").joinpath("scenarios", path)
    if bundled.is_file():
        return str(bundled)
    bundled_json = resources.files("groupoid_measures").joinpath(
        "scenarios", path + ".json")
    if bundled_json.is_file():
        return str(bundled_json)
    return path


def cmd_run(args) -> int:
    overrides = _parse_tol_overrides(args.tol)
    paths = [_resolve_path(p) for p in args.scenarios]
    seed_override = None
    if "GM_SEED" in os.environ:
        seed_override = SEED.convert(os.environ["GM_SEED"], "GM_SEED")

    # every document is read before the first check runs
    scenarios = [read_scenario(load_scenario(p), overrides, seed_override)
                 for p in paths]
    report = Report([row for s in scenarios for row in run_scenario(s)])
    text = report.to_json() if args.format == "json" else report.to_csv()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ScenarioError(f"cannot write report {args.out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)
    summary = report.summary()
    print(f"# {summary['passed']}/{summary['total']} checks passed",
          file=sys.stderr)
    return 0 if report.passed() else 1


def _param_table(check) -> str:
    """``name: kind = default`` for each declared parameter of a check."""
    return ", ".join(
        f"{key}: {kind.label} = "
        + ("required" if default is REQUIRED else "auto" if default is None
           else json.dumps(default))
        for key, (kind, default) in check.params.items()) or "-"


def cmd_list_checks(args) -> int:
    for check in catalog():
        if args.engine and check.engine != args.engine:
            continue
        print(f"{check.name:32s} {check.engine:10s} tol={check.default_tol:<8g} "
              f"params: {_param_table(check)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gm",
        description="Run transverse-measure check suites on groupoid models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run scenario files and write a report")
    p_run.add_argument("scenarios", nargs="+",
                       help="scenario JSON paths or bundled scenario names")
    p_run.add_argument("--out", help="report output path (default: stdout)")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.add_argument("--tol", action="append", metavar="KEY=VAL",
                       help="override the tolerance of a check by name")
    p_run.set_defaults(fn=cmd_run)

    p_list = sub.add_parser("list-checks", help="print the check catalog")
    p_list.add_argument("--engine", help="only checks for this engine")
    p_list.set_defaults(fn=cmd_list_checks)

    p_scen = sub.add_parser("list-scenarios", help="print bundled scenario files")
    p_scen.set_defaults(fn=lambda a: (print("\n".join(bundled_scenarios())), 0)[1])

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
