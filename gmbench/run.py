"""Benchmark of ``gm run``: what a user of the CLI waits for.

    python3 gmbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.
Each timed pass is one ``gm run``-equivalent call in a fresh process on the
workload's scenario files, so no pass reuses state an earlier one left.
Passes run one at a time from this single driving process (a closed loop
with one client); the ``--parallel`` thread pool is not used.  Every
report row is checked against independent truths (see ``workloads.py``).

A run first spawns one untimed warm-up process, then passes until another
pass would overrun ``--seconds``.  Every pass process goes through set-up
first (spawn -> package imported and scenario files read), which gives one
set-up sample; after a long pass, set-up-only processes add one more sample
per SETUP_EVERY_S of its wall time, so that the samples are spread through
the whole run; ``setup_s`` is their lower quartile.  With ``--trace 1``
untraced and traced passes alternate and the per-layer metrics of the
median traced pass are reported; the span trace is written to
``.gmbench_run/trace-<workload>-s<seed>.json`` when the run ends.

The last stdout line is the JSON result: correct, attempted and failed
report rows over all passes, and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = {
    "bundled": "csv",
    "many_small": "json",
}
SETUP_EVERY_S = 2.0
PASS_TIMEOUT_S = 120
# no pass starts after this much measuring time, whatever --seconds says
MEASURE_CAP_S = 150


def prepare(workload: str, seed: int, package_dir: str, run_dir: str):
    """Scenario records and the scenario file paths handed to ``gm run``."""
    if workload == "bundled":
        scenario_dir = os.path.join(package_dir, "scenarios")
        scenarios = workloads.bundled(scenario_dir)
        paths = [os.path.join(scenario_dir, f"{s.name}.json") for s in scenarios]
        return scenarios, paths
    scenarios = workloads.many_small(seed)
    scen_dir = os.path.join(run_dir, "scenarios")
    os.makedirs(scen_dir)
    paths = []
    for s in scenarios:
        path = os.path.join(scen_dir, f"{s.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(s.doc, fh)
        paths.append(path)
    return scenarios, paths


class Runner:
    def __init__(self, root: str, manifest: str, env: dict, fmt: str, run_dir: str):
        self.base = [sys.executable, os.path.join(HERE, "pass_main.py"), root, manifest]
        self.env = env
        self.fmt = fmt
        self.run_dir = run_dir

    def _spawn(self, extra: list[str]) -> dict | None:
        start = time.monotonic()
        try:
            proc = subprocess.run(self.base + extra, env=self.env, capture_output=True,
                                  text=True, timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"pass timed out after {PASS_TIMEOUT_S} s", file=sys.stderr)
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"pass process exited {proc.returncode}:\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return None
        record = json.loads(lines[-1])
        record["setup_s"] = record["ready"] - start
        return record

    def setup(self) -> float | None:
        record = self._spawn(["--setup-only"])
        return None if record is None else record["setup_s"]

    def timed_pass(self, index: int, traced: bool):
        """(timing record or None, report rows or None, span record or None)."""
        report = os.path.join(self.run_dir, f"report-{index}.{self.fmt}")
        spans = os.path.join(self.run_dir, f"spans-{index}.json")
        extra = ["--out", report, "--format", self.fmt]
        if traced:
            extra += ["--spans", spans]
        record = self._spawn(extra)
        rows = span_record = None
        if record is not None and record["exit"] != 0:
            # a report written by a failing gm run does not count as a pass
            print(f"pass {index}: gm run exited {record['exit']}", file=sys.stderr)
        elif record is not None and os.path.exists(report):
            with open(report, encoding="utf-8") as fh:
                text = fh.read()
            try:
                rows = oracle.parse_json(text) if self.fmt == "json" else oracle.parse_csv(text)
            except (ValueError, KeyError, TypeError) as exc:
                print(f"pass {index}: unreadable report: {exc!r}", file=sys.stderr)
            if traced:
                with open(spans, encoding="utf-8") as fh:
                    span_record = json.load(fh)
        for path in (report, spans):
            if os.path.exists(path):
                os.remove(path)
        return record, rows, span_record


def lower_quartile(values: list[float]) -> float:
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def median_traced(passes: list[dict]) -> dict:
    """The traced pass with the (lower) median wall time."""
    ordered = sorted(passes, key=lambda p: p["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    # on SIGTERM unwind normally, so that subprocess.run kills the running pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    package_dir = os.path.join(root, "src", "groupoid_measures")
    if not os.path.isfile(os.path.join(package_dir, "cli.py")):
        print(f"error: no groupoid_measures package under {root}/src; "
              "run from the root of a checkout", file=sys.stderr)
        return 2

    out_dir = os.path.join(root, ".gmbench_run")
    run_dir = os.path.join(out_dir, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(run_dir)
    try:
        scenarios, paths = prepare(args.workload, args.seed, package_dir, run_dir)
        manifest = os.path.join(run_dir, "manifest.json")
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump(paths, fh)
        env = dict(os.environ)
        env.pop("GM_SEED", None)
        if args.workload == "bundled":
            env["GM_SEED"] = str(args.seed)
        runner = Runner(root, manifest, env, WORKLOADS[args.workload], run_dir)
        result, trace_doc = measure(runner, scenarios, args)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if trace_doc is not None:
        path = os.path.join(out_dir, f"trace-{args.workload}-s{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(trace_doc, fh, separators=(",", ":"))
    print(json.dumps(result))
    return 0


def measure(runner: Runner, scenarios, args):
    runner.setup()  # warm-up: byte-code caches and the file cache
    setups: list[float] = []

    walls: dict[bool, list[float]] = {False: [], True: []}
    started = {False: 0, True: 0}
    rss: list[float] = []
    trace_passes: list[dict] = []
    attempted = failed = 0
    begin = time.monotonic()
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        pass_begin = time.monotonic()
        record, rows, span_record = runner.timed_pass(index, traced)
        started[traced] += 1
        a, f, problems = oracle.check_report(rows, scenarios)
        attempted += a
        failed += f
        for problem in problems[:20]:
            print(f"pass {index}: {problem}", file=sys.stderr)
        if record is not None:
            setups.append(record["setup_s"])
            walls[traced].append(record["wall_s"])
            if traced and span_record is not None:
                trace_passes.append(dict(span_record, wall_s=record["wall_s"], pass_id=index))
            elif not traced:
                rss.append(record["peak_rss_mb"])
            for _ in range(int(record["wall_s"] // SETUP_EVERY_S)):
                sample = runner.setup()
                if sample is not None:
                    setups.append(sample)
        index += 1
        now = time.monotonic()
        kinds_done = started[False] > 0 and (not args.trace or started[True] > 0)
        last = now - pass_begin
        if kinds_done and (now - begin + last > args.seconds or now - begin > MEASURE_CAP_S):
            break

    if not walls[False] or not setups or (args.trace and not trace_passes):
        raise SystemExit("error: no pass completed; nothing to report")
    correct = failed == 0
    if args.trace:
        layers = dict(median_traced(trace_passes)["layers"])
        layers["trace.overhead_s"] = statistics.median(walls[True]) \
            - statistics.median(walls[False])
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in tracer.PER_LAYER}
        trace_doc = {"workload": args.workload, "seed": args.seed,
                     "untraced_wall_s": walls[False], "passes": trace_passes}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls[False]), "unit": "s"},
            "setup_s": {"value": lower_quartile(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
        trace_doc = None
    print(f"{args.workload}: {started[False]} untraced and {started[True]} traced "
          f"passes, walls {walls}, setups {setups}", file=sys.stderr)
    return ({"correct": correct, "attempted": attempted, "failed": failed,
             "metrics": metrics}, trace_doc)


if __name__ == "__main__":
    sys.exit(main())
