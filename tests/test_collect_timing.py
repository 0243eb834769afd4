#!/usr/bin/env python3
"""collect_timing.py --append: two TIMING directories appended to a
trajectory file in a git tree, each after its own commit, give two
entries, each collect_timing's own document plus the commit it was
appended at. Uncommitted changes to tracked files, a directory without
sidecars, and `-o` onto the trajectory are errors that leave the file
untouched.

Usage: test_collect_timing.py PATH/TO/collect_timing.py
"""

import json
import os
import subprocess
import sys
import tempfile


def write_timing(d, walls):
    os.makedirs(d)
    for fig, wall in walls.items():
        with open(os.path.join(d, "TIMING_%s.json" % fig), "w") as f:
            json.dump({"figure": fig, "wall_seconds": wall, "jobs": 2,
                       "threads": 2, "events_executed": 10,
                       "events_per_second": 10 / wall,
                       "job_host_seconds": []}, f)


def run(script, *args):
    return subprocess.run([sys.executable, script] + list(args),
                          capture_output=True, text=True)


def git(repo, *args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
         "-c", "commit.gpgsign=false"] + list(args),
        cwd=repo, check=True, capture_output=True, text=True).stdout.strip()


def commit(repo, name, text):
    with open(os.path.join(repo, name), "w") as f:
        f.write(text)
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", text)
    return git(repo, "rev-parse", "--short=7", "HEAD")


def read(path):
    with open(path) as f:
        return f.read()


def main(script):
    with tempfile.TemporaryDirectory() as tmp:
        a = os.path.join(tmp, "a")
        b = os.path.join(tmp, "b")
        write_timing(a, {"fig2": 1.5, "fig7": 2.25})
        write_timing(b, {"fig2": 1.0, "fig7": 2.0, "fig8": 0.5})
        repo = os.path.join(tmp, "repo")
        os.makedirs(os.path.join(repo, "perf"))
        git(repo, "init", "-q")
        traj = os.path.join(repo, "perf", "BENCH_timing.json")

        first = commit(repo, "code", "one")
        r = run(script, a, "--append", traj)
        assert r.returncode == 0, r.stderr
        second = commit(repo, "code", "two")  # also commits the entry
        r = run(script, b, "--append", traj)
        assert r.returncode == 0, r.stderr
        good = read(traj)

        # The appended trajectory is an uncommitted change now.
        r = run(script, a, "--append", traj)
        assert r.returncode == 2 and "uncommitted" in r.stderr, r
        r = run(script, os.path.join(tmp, "missing"), "--append", traj)
        assert r.returncode == 2, (r.returncode, r.stderr)
        r = run(script, a, "-o", traj)
        assert r.returncode == 2 and "trajectory" in r.stderr, r
        assert read(traj) == good

        entries = json.loads(good)
        assert len(entries) == 2, entries
        e1, e2 = entries
        assert (e1["commit"], e2["commit"]) == (first, second), entries
        assert first != second
        assert e1["schema"] == e2["schema"] == "uhtm-bench-timing-v1"
        assert {f: v["wall_seconds"] for f, v in e1["figures"].items()} \
            == {"fig2": 1.5, "fig7": 2.25}, e1
        assert sorted(e2["figures"]) == ["fig2", "fig7", "fig8"], e2
        assert e1["total_wall_seconds"] == 3.75, e1
        assert e2["total_wall_seconds"] == 3.5, e2
        for e in entries:
            assert e["host"]["cpu_count"] >= 1, e["host"]

        # -o still writes the one-run artifact anywhere else.
        out = os.path.join(tmp, "BENCH_timing.json")
        r = run(script, b, "-o", out)
        assert r.returncode == 0, r.stderr
        doc = json.loads(read(out))
        assert doc == {k: v for k, v in e2.items() if k != "commit"}, doc
    print("ok: 2 entries appended")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
