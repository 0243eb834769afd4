#!/usr/bin/env python3
"""Aggregate TIMING_*.json sidecars into one BENCH_timing.json.

The per-figure TIMING sidecars carry host wall-clock and throughput for
one sweep each; CI's perf-trajectory step collects them into a single
artifact so wall-clock history can be charted across commits. Everything
here is host-dependent by design: the output is an artifact, never a
golden file, and never gates a job.

Usage: collect_timing.py TIMING_DIR [-o OUT.json]
       collect_timing.py TIMING_DIR --append TRAJECTORY.json

--append adds this document, with a "commit" field, to a JSON list of
them committed in the repository (created if missing), so the sweep's
wall clock is charted from the history itself. The commit is HEAD of
the git tree that holds TRAJECTORY.json, and that tree must have no
uncommitted changes to tracked files: commit the code, run the sweep,
append, then commit the trajectory. -o refuses to overwrite such a
list.

Exits non-zero if the directory holds no TIMING_*.json files (a sweep
that silently stopped producing sidecars would otherwise show up as an
empty chart, not a failure).
"""

import argparse
import json
import os
import platform
import subprocess
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


def git(cwd, *args):
    return subprocess.run(["git"] + list(args), cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def clean_head(path):
    """Short hash of HEAD in the tree holding @p path; raises
    ValueError if that tree has uncommitted changes to tracked files,
    which the entry would not describe."""
    cwd = os.path.dirname(os.path.abspath(path))
    try:
        if git(cwd, "status", "--porcelain", "--untracked-files=no"):
            raise ValueError(f"{cwd}: uncommitted changes; commit "
                             "before appending a sweep")
        return git(cwd, "rev-parse", "--short=7", "HEAD")
    except (OSError, subprocess.CalledProcessError) as e:
        raise ValueError(f"{cwd}: no git commit to label the entry "
                         f"with ({e})")


def load_trajectory(path):
    """The list of entries at @p path, or None if it holds none."""
    try:
        with open(path, encoding="utf-8") as f:
            traj = json.load(f)
    except (OSError, ValueError):
        return None
    return traj if isinstance(traj, list) else None


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("timing_dir",
                    help="directory holding TIMING_*.json sidecars")
    ap.add_argument("-o", "--out", default="BENCH_timing.json",
                    help="output path (default BENCH_timing.json)")
    ap.add_argument("--append", metavar="FILE",
                    help="append to this trajectory file "
                         "instead of writing --out")
    args = ap.parse_args(argv)
    try:
        doc = collect(args.timing_dir)
        if args.append:
            traj = []
            if os.path.exists(args.append):
                traj = load_trajectory(args.append)
                if traj is None:
                    raise ValueError(f"{args.append}: not a trajectory "
                                     "(a JSON list)")
            doc["commit"] = clean_head(args.append)
            traj.append(doc)
            write_json(args.append, traj)
            print(f"appended {doc['commit']} to {args.append}: "
                  f"{len(traj)} entries, "
                  f"{doc['total_wall_seconds']:.2f}s total wall")
            return 0
        if load_trajectory(args.out) is not None:
            raise ValueError(f"{args.out} is a trajectory; use --append")
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    write_json(args.out, doc)
    print(f"wrote {args.out}: {len(doc['figures'])} figures, "
          f"{doc['total_wall_seconds']:.2f}s total wall")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
