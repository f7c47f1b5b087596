"""Command-line front end: run scenario files, list the check catalog.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 input error (a
``ScenarioError``, listed in ``scenario``), printed as one ``error:`` line.
A reader that closes stdout early ends the output, not the command: the exit
code is still the one the command earned.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources

from .checks import REGISTRY, catalog
from .expressions import REQUIRED, ScenarioError
from .reports import Report
from .scenario import ENGINE, SEED, TOLERANCE, read_scenario, run_scenario


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


# a text stream encodes each write whole, so a report goes out in slices of
# this many characters, and no encoded copy of all of it is made
WRITE_SLICE = 1 << 16


def _write_text(stream, text: str) -> None:
    for start in range(0, len(text), WRITE_SLICE):
        stream.write(text[start:start + WRITE_SLICE])


def _write(text: str) -> None:
    """Write to stdout.  If its reader has gone, stop writing, and point stdout
    at the null device so that the flush at exit does not fail again."""
    try:
        _write_text(sys.stdout, text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


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
                _write_text(fh, text)
        except OSError as exc:
            raise ScenarioError(f"cannot write report {args.out!r}: {exc}") from exc
    else:
        _write(text)
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
    if args.engine is not None:
        ENGINE.convert(args.engine, "--engine")
    _write("".join(f"{check.name:32s} {check.engine:10s} tol={check.default_tol:<8g} "
                   f"params: {_param_table(check)}\n"
                   for check in catalog() if not args.engine or check.engine == args.engine))
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
    p_scen.set_defaults(fn=lambda a: _write("\n".join(bundled_scenarios()) + "\n") or 0)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
