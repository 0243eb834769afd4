#!/usr/bin/env python3
"""Aggregate TIMING_*.json sidecars into one BENCH_timing.json.

The per-figure TIMING sidecars carry host wall-clock and throughput for
one sweep each; CI's perf-trajectory step collects them into a single
artifact so wall-clock history can be charted across commits. Everything
here is host-dependent by design: the output is an artifact, never a
golden file, and never gates a job.

Usage: collect_timing.py TIMING_DIR [-o OUT.json]
Exits non-zero if the directory holds no TIMING_*.json files (a sweep
that silently stopped producing sidecars would otherwise show up as an
empty chart, not a failure).
"""

import argparse
import json
import os
import platform
import sys


def collect(timing_dir):
    names = sorted(n for n in os.listdir(timing_dir)
                   if n.startswith("TIMING_") and n.endswith(".json"))
    if not names:
        raise ValueError(f"no TIMING_*.json files in {timing_dir}")
    figures = {}
    total = 0.0
    for name in names:
        with open(os.path.join(timing_dir, name), encoding="utf-8") as f:
            doc = json.load(f)
        fig = doc.get("figure") or name[len("TIMING_"):-len(".json")]
        figures[fig] = {
            "wall_seconds": doc.get("wall_seconds"),
            "jobs": doc.get("jobs"),
            "threads": doc.get("threads"),
            "events_executed": doc.get("events_executed"),
            "events_per_second": doc.get("events_per_second"),
            "job_host_seconds": doc.get("job_host_seconds", []),
        }
        total += doc.get("wall_seconds") or 0.0
    return {
        "schema": "uhtm-bench-timing-v1",
        "total_wall_seconds": round(total, 6),
        "host": {
            "machine": platform.machine(),
            "system": platform.system(),
            "release": platform.release(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "figures": figures,
    }


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("timing_dir",
                    help="directory holding TIMING_*.json sidecars")
    ap.add_argument("-o", "--out", default="BENCH_timing.json",
                    help="output path (default BENCH_timing.json)")
    args = ap.parse_args(argv)
    try:
        doc = collect(args.timing_dir)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}: {len(doc['figures'])} figures, "
          f"{doc['total_wall_seconds']:.2f}s total wall")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
