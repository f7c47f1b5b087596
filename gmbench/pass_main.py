"""One timed pass: a fresh process doing what ``gm run`` does.

    python3 gmbench/pass_main.py ROOT MANIFEST [--out REPORT --format csv|json]
                                 [--spans FILE] [--setup-only]

ROOT is the checkout whose ``src`` holds the package; MANIFEST is a JSON
list of scenario paths.  The process imports the package and reads the
scenario files (the end of set-up), then calls the ``gm`` entry point on
them, timing from the call to the written report.  With ``--spans`` the
layers are traced first and the spans and per-layer metrics are written to
FILE.  The last stdout line is a JSON record of the timings.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("root")
    parser.add_argument("manifest")
    parser.add_argument("--out")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    from groupoid_measures import cli

    with open(args.manifest, encoding="utf-8") as fh:
        paths = json.load(fh)
    for path in paths:
        cli.load_scenario(path)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    recorder = None
    if args.spans:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer
        recorder = tracer.Tracer()
        tracer.install(recorder)

    argv = ["run", *paths, "--format", args.format, "--out", args.out]
    start = time.perf_counter_ns()
    code = cli.main(argv)
    pass_ns = time.perf_counter_ns() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if recorder is not None:
        record = recorder.span_records()
        record["layers"] = recorder.aggregate(pass_ns)
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(record, fh, separators=(",", ":"))
    print(json.dumps({"ready": ready, "wall_s": pass_ns / 1e9, "exit": code,
                      "peak_rss_mb": peak_rss_mb}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
