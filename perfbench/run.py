#!/usr/bin/env python3
"""Host-cost benchmark of the UHTM simulator.

    python3 perfbench/run.py --workload overflow|scans|service \
        [--seed 42] [--seconds 30] [--trace 0|1]

Run from the root of a source checkout. Builds perfbench/ (which links
the simulator library built from src/) into .bench_build/perfbench,
runs batches of the workload's simulation jobs through the driver on
min(4, nproc) threads for about --seconds, checks every job's modeled
result, and prints every metric by name with its unit and sample
count. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 reports the
per-layer metrics, from an untraced half (spans) and a sampled half
(per-module self time) of the time budget. perfbench/README.md says
what each workload and metric is for.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

WORKLOADS = {"overflow": "fig7", "scans": "fig8", "service": "service"}
# Committed quick-scale references, searched in this order. The golden
# tree comes first because it is the one the quick-sweep references are
# planned to be merged into.
REFERENCE_TREES = ["bench/golden/quick", "bench/baseline"]
DEFAULT_SEED = 42
# Host seconds one batch takes on a 4-vCPU Xeon container. A run of
# --seconds covers seconds // NOMINAL_BATCH_S batches, batch k under
# its own sweep seed, so its inputs depend on (seed, seconds) only and
# never on how fast the code under test is. Averaging over many inputs
# is what keeps the seed-to-seed spread small: the number of long scans
# in a scans job, for one, is random.
NOMINAL_BATCH_S = {"overflow": 2.5, "scans": 2.3, "service": 1.0}
MODULES = ["sim", "obs", "exec", "mem", "htm", "check", "workloads",
           "traffic", "harness"]
FILE_BUCKETS = {
    "sim": ["event_queue", "line_map", "arena"],
    "mem": ["cache", "dram_cache", "backing_store"],
    "htm": ["htm_access", "htm_commit", "signature", "tss",
            "conflict_policy"],
}
BUILD_TIMEOUT_S = 850
DRIVER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def nproc():
    """CPUs this process may run on (what `nproc` prints)."""
    return len(os.sched_getaffinity(0))


def threads():
    return max(1, min(4, nproc()))


def build_dir(root):
    return os.path.join(root, ".bench_build", "perfbench")


def build(root):
    """Configure once, then (re)build the driver; returns its path."""
    bdir = build_dir(root)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"),
                        "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
                       + gen, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", bdir, "-j", str(threads())],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(bdir, "uhtm_perfbench")


def run_driver(exe, out, *flags):
    """Run the driver once and return its JSON document."""
    os.makedirs(os.path.dirname(out), exist_ok=True)
    subprocess.run([exe, "--out=" + out] + list(flags), check=True,
                   stdout=sys.stderr, timeout=DRIVER_TIMEOUT_S)
    with open(out) as f:
        return json.load(f)


def load_references(root, figure):
    """key -> committed job entry, from the first tree that has it."""
    refs = {}
    for tree in reversed(REFERENCE_TREES):
        path = os.path.join(root, tree, "BENCH_%s.json" % figure)
        if os.path.exists(path):
            with open(path) as f:
                doc = json.load(f)
            for job in doc["jobs"]:
                refs[job["key"]] = job
    return refs


def invariant_errors(result, expected_ops, expected_requests):
    """Checks that hold for every seed."""
    m = result["metrics"]
    h = m["htm"]
    errors = []
    if h["commits"] + h["total_aborts"] != h["tx_begins"]:
        errors.append("commits + aborts != tx_begins")
    if sum(h["aborts"].values()) != h["total_aborts"]:
        errors.append("abort causes do not sum to the total")
    if m["committed_ops"] != expected_ops:
        errors.append("committed_ops %d != quota %d"
                      % (m["committed_ops"], expected_ops))
    if expected_requests and \
            m.get("extra", {}).get("requests") != expected_requests:
        errors.append("not every service request completed")
    return errors


def result_of(run):
    return json.loads(run["result"])["jobs"][0]


def job_errors(result, job, refs, check_reference):
    """Why one job execution's modeled result is wrong ([] if right)."""
    if not result["ok"]:
        return ["threw: " + result.get("error", "")]
    errors = invariant_errors(result, job["expected_ops"],
                              job["expected_requests"])
    if check_reference:
        ref = refs.get(job["key"])
        if ref is None:
            errors.append("no committed reference")
        elif ref["metrics"] != result["metrics"]:
            errors.append("modeled result differs from the reference")
    return errors


def check_jobs(doc, refs, baseline=None):
    """Failure messages, keyed by (batch, job) index, over every job
    execution in @p doc. Every execution must not throw and must keep
    the invariants; the batch run under the default sweep seed must
    also reproduce the committed references exactly; and when
    @p baseline (an untraced run of the same batches) is given, every
    result must equal its result there."""
    failures = {}
    for b, batch in enumerate(doc["batches"]):
        for j, (job, run) in enumerate(zip(doc["jobs"], batch["jobs"])):
            errors = job_errors(result_of(run), job, refs,
                                batch["seed"] == DEFAULT_SEED)
            twin = baseline and baseline["batches"][b]["jobs"][j]
            if twin and run["result"] != twin["result"]:
                errors.append("sampling changed the modeled result")
            if errors:
                failures[(b, j)] = "%s (sweep seed %d): %s" % (
                    job["key"], batch["seed"], "; ".join(errors))
    return failures


def attempted(doc):
    return sum(len(b["jobs"]) for b in doc["batches"])


# ---------------------------------------------------------------- spans

def span_s(run, name):
    s = run["spans"].get(name)
    return s[1] - s[0] if s else 0.0


def batch_sum(batch, fn):
    return sum(fn(run) for run in batch["jobs"])


def setup_s(batch):
    return batch_sum(batch, lambda r: span_s(r, "harness.machine_build")
                     + span_s(r, "workloads.build"))


def job_end(run):
    return max(s[1] for s in run["spans"].values())


def utilization(batch, nthreads):
    busy = batch_sum(batch, lambda r: job_end(r) - r["spans"]["exec.queue"][1])
    return busy / (nthreads * batch["wall_s"])


def tail_s(batch):
    """From the first pool thread running out of work to batch end."""
    last = {}
    for run in batch["jobs"]:
        last[run["tid"]] = max(last.get(run["tid"], 0.0), job_end(run))
    return batch["wall_s"] - min(last.values())


def mean_of(batches, fn):
    """Per-batch mean. Batches run different inputs, so the mean over
    them is the cost of the run's fixed input set."""
    return statistics.fmean(fn(b) for b in batches)


# --------------------------------------------------------------- models

def modeled(batch):
    """Modeled per-layer counts summed over one batch's jobs."""
    results = [r for r in map(result_of, batch["jobs"]) if r["ok"]]
    c = batch["counters"]

    def ctr(name):
        return c.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    def htm(name):
        return sum(r["metrics"]["htm"][name] for r in results)

    def cause(name):
        return sum(r["metrics"]["htm"]["aborts"][name] for r in results)

    l1_hits = sum(v for k, v in c.items()
                  if re.fullmatch(r"l1\.\d+\.hits", k))
    l1_misses = sum(v for k, v in c.items()
                    if re.fullmatch(r"l1\.\d+\.misses", k))
    refs = l1_hits + l1_misses
    return {
        "workloads.ops_committed": sum(r["metrics"]["committed_ops"]
                                       for r in results),
        "traffic.requests": ctr("service.requests"),
        "mem.refs": refs,
        "mem.l1_hit_ratio": ratio(l1_hits, refs),
        "mem.llc_miss_ratio": ratio(ctr("llc.misses"),
                                    ctr("llc.hits") + ctr("llc.misses")),
        "mem.dram_cache_hit_ratio": ratio(
            ctr("dram_cache.hits"),
            ctr("dram_cache.hits") + ctr("dram_cache.misses")),
        "mem.dram_cache_write_backs": ctr("dram_cache.write_backs"),
        "mem.nvm_writes": ctr("nvm.writes"),
        "mem.nvm_queue_delay_ticks": ctr("nvm.queue_delay_ticks"),
        "mem.log_redo_appends": ctr("log.redo.appends"),
        "mem.log_undo_appends": ctr("log.undo.appends"),
        "htm.tx_begins": htm("tx_begins"),
        "htm.commit_ratio": ratio(htm("commits"), htm("tx_begins")),
        "htm.aborts_total": htm("total_aborts"),
        "htm.aborts.false_positive": cause("false-positive"),
        "htm.aborts.cross_domain": cause("cross-domain-false"),
        "htm.aborts.capacity": cause("capacity"),
        "htm.overflowed_txs": htm("overflowed_txs"),
        "htm.sig_checks": htm("sig_checks"),
        "htm.sig_false_hit_ratio": ratio(htm("sig_false_hits"),
                                         htm("sig_checks")),
        "htm.summary_skip_ratio": ratio(ctr("htm.summary_skips"),
                                        ctr("htm.summary_probes")),
    }


def batch_cpu(batch):
    return batch_sum(batch, lambda r: r["cpu_s"])


def batch_events(batch):
    return batch_sum(batch, lambda r: r["events"])


# -------------------------------------------------------------- sampler

def symbolize(exe, offsets):
    """offset (hex string) -> inline chain of source files, innermost
    first, from the executable's debug info."""
    if not offsets:
        return {}
    out = subprocess.run(["addr2line", "-e", exe, "-i", "-a"],
                         input="\n".join(offsets) + "\n",
                         capture_output=True, text=True, check=True,
                         timeout=DRIVER_TIMEOUT_S).stdout
    chains, current = {}, None
    for line in out.splitlines():
        if line.startswith("0x"):
            current = chains.setdefault(hex(int(line, 16)), [])
        elif current is not None:
            current.append(line.split(" (discriminator")[0].rsplit(":", 1)[0])
    return {off: chains.get(hex(int(off, 16)), []) for off in offsets}


def bucket(chain, root):
    """(module, file stem) of the innermost frame that lies in the
    checkout's src/<module>/ or perfbench/ sources; None when no frame
    does (library code, unresolved PCs). Frames of system headers
    inlined into simulator code are skipped, so their time goes to the
    simulator file that used them."""
    for path in chain:
        if path.startswith("??"):
            continue
        rel = os.path.relpath(os.path.realpath(path), root).split(os.sep)
        stem = os.path.splitext(rel[-1])[0]
        if len(rel) == 3 and rel[0] == "src":
            return rel[1], stem
        if len(rel) == 2 and rel[0] == "perfbench":
            return "perfbench", stem
    return None


def attribute(exe, samples, root):
    """Sample counts per 'module' and 'module.file' bucket, plus
    'other' (outside src/) and the total."""
    counts = {"other": samples["outside"]}
    chains = symbolize(exe, list(samples["exe"]))
    for off, n in samples["exe"].items():
        b = bucket(chains[off], root)
        if b is None or b[0] not in MODULES:
            keys = ["other"]
        else:
            keys = [b[0], "%s.%s" % b]
        for k in keys:
            counts[k] = counts.get(k, 0) + n
    counts["total"] = samples["outside"] + sum(samples["exe"].values())
    return counts


# -------------------------------------------------------------- metrics

def job_cpu(doc):
    """Each job's CPU seconds averaged over the run's batches."""
    return [statistics.fmean(b["jobs"][i]["cpu_s"] for b in doc["batches"])
            for i in range(len(doc["jobs"]))]


def end_to_end(doc):
    """Medians over the run's batches, so that a host hiccup that slows
    a few batches does not move the result."""
    batches = doc["batches"]
    n = len(batches)

    def median_of(fn):
        return statistics.median(map(fn, batches))

    return {
        "wall_s": (median_of(lambda b: b["wall_s"]), "s", n),
        "cpu_s": (median_of(batch_cpu), "s", n),
        "setup_s": (median_of(setup_s), "s", n),
        "mrefs_per_cpu_s": (median_of(
            lambda b: modeled(b)["mem.refs"] / 1e6 / batch_cpu(b)),
            "Mrefs/s", n),
        "peak_rss_mib": (doc["peak_rss_kib"] / 1024.0, "MiB", 1),
    }


def per_layer(plain, traced, exe, root):
    """Span and modeled numbers from the untraced batches, self times
    from the sampled ones (the same inputs, run again)."""
    batches = plain["batches"]
    n = len(batches)
    nthreads = plain["threads"]
    cpu = mean_of(batches, batch_cpu)
    events = mean_of(batches, batch_events)

    def spans(name):
        return (mean_of(batches, lambda b: batch_sum(
            b, lambda r: span_s(r, name))), "s", n)

    m = {
        "exec.wait_s": spans("exec.queue"),
        "exec.utilization": (mean_of(
            batches, lambda b: utilization(b, nthreads)), "ratio", n),
        "exec.tail_s": (mean_of(batches, tail_s), "s", n),
        "job_p50_s": (statistics.median(job_cpu(plain)), "s",
                      attempted(plain)),
        "job_max_s": (max(job_cpu(plain)), "s", attempted(plain)),
        "harness.machine_build_s": spans("harness.machine_build"),
        "harness.teardown_s": spans("harness.teardown"),
        "harness.run_s": spans("harness.run"),
        "harness.minor_faults": (mean_of(batches, lambda b: batch_sum(
            b, lambda r: r["minor_faults"])), "count", n),
        "workloads.build_s": spans("workloads.build"),
        "sim.events": (events, "count", n),
        "sim.ns_per_event": (1e9 * spans("harness.run")[0] / events,
                             "ns", n),
        "sim.events_per_cpu_s": (events / cpu, "1/s", n),
    }
    models = [modeled(b) for b in batches]
    for name in models[0]:
        unit = "ratio" if name.endswith("_ratio") else "count"
        if name.endswith("_ticks"):
            unit = "ticks"
        m[name] = (statistics.fmean(x[name] for x in models), unit, n)

    counts = attribute(exe, traced["samples"], root)
    tb = traced["batches"]
    total = counts["total"]
    traced_cpu = mean_of(tb, batch_cpu)

    def self_s(key):
        share = counts.get(key, 0) / total if total else 0.0
        return (share * traced_cpu, "s", counts.get(key, 0))

    for mod in MODULES:
        m["host.%s.self_s" % mod] = self_s(mod)
        for stem in FILE_BUCKETS.get(mod, []):
            m["host.%s.%s.self_s" % (mod, stem)] = self_s(
                "%s.%s" % (mod, stem))
    m["host.other.self_s"] = self_s("other")
    m["host.other_share"] = (counts["other"] / total if total else 0.0,
                             "ratio", total)
    m["host.samples"] = (total, "count", len(tb))
    m["trace_overhead"] = (traced_cpu / cpu - 1.0, "ratio", len(tb))
    return m


# ---------------------------------------------------------- predictions

def build_id(exe):
    """Content hash of the driver, naming the code a result came from."""
    h = hashlib.sha256()
    with open(exe, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def layers_path(outdir, workload):
    return os.path.join(outdir, "layers-%s.json" % workload)


def predictions(outdir, run_id):
    """Cross-workload predictions, once every workload's traced run has
    left its per-layer numbers in @p outdir under the same @p run_id
    (seed, seconds and driver build); [] until then, so numbers from
    older code or other inputs are never compared."""
    layers = {}
    for w in WORKLOADS:
        path = layers_path(outdir, w)
        if not os.path.exists(path):
            return []
        with open(path) as f:
            doc = json.load(f)
        if doc.get("run") != run_id:
            return []
        layers[w] = doc["metrics"]
    svc = layers["service"]
    phases = sorted(["harness.machine_build_s", "harness.teardown_s",
                     "harness.run_s", "workloads.build_s"],
                    key=lambda k: -svc[k])
    sig = {w: layers[w]["htm.sig_checks"] for w in WORKLOADS}
    times = {w: sig["overflow"] / max(sig[w], 1) for w in ("scans", "service")}
    eps = {w: layers[w]["sim.events_per_cpu_s"] for w in WORKLOADS}
    return [
        ("service is led by harness.machine_build_s and "
         "harness.teardown_s",
         set(phases[:2]) == {"harness.machine_build_s",
                             "harness.teardown_s"},
         "order: " + " > ".join(phases)),
        ("htm.sig_checks on overflow exceeds scans and service by "
         "orders of magnitude",
         min(times.values()) >= 100,
         "overflow has %s times as many" % " and ".join(
             "%.3g (%s)" % (t, w) for w, t in times.items())),
        ("scans has the highest sim.events per CPU second",
         max(eps, key=eps.get) == "scans",
         "events/cpu_s: %s" % {w: round(v) for w, v in eps.items()}),
    ]


# ----------------------------------------------------------------- main

def fingerprint(doc):
    return dict(doc["host"], nproc=nproc(), threads=doc["threads"])


def report(metrics, host, attempted, failures):
    print("host: " + json.dumps(host, sort_keys=True))
    if host["asserts"]:
        print("WARNING: built with asserts on (no NDEBUG): host costs are "
              "not comparable with an optimized build")
    failed = len(failures)
    for msg in failures:
        print("FAILED " + msg)
    print("failed_share: %.6g (%d of %d job runs)"
          % (failed / attempted, failed, attempted))
    for name, (value, unit, samples) in metrics.items():
        print("%-34s %16.6g %-8s n=%d" % (name, value, unit, samples))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**64 or args.seconds <= 0:
        p.error("--seed must be in [0, 2^64) and --seconds > 0")
    return args


def main(argv):
    args = parse_args(argv)
    root = os.getcwd()
    figure = WORKLOADS[args.workload]
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        raise BenchError("no simulator sources (src/) under " + root +
                         "; run from the root of a source checkout")
    refs = load_references(root, figure)
    if not refs:
        raise BenchError("no committed reference BENCH_%s.json in %s"
                         % (figure, " or ".join(REFERENCE_TREES)))

    exe = build(root)
    outdir = os.path.join(build_dir(root), "out")
    common = ["--workload=" + args.workload, "--seed=%d" % args.seed,
              "--threads=%d" % threads()]

    def run(kind, batches, *flags):
        return run_driver(exe, os.path.join(outdir, "%s-%s.json" % (
            args.workload, kind)), *common, "--batches=%d" % batches,
            *flags)

    def batches_in(seconds):
        return max(1, int(seconds // NOMINAL_BATCH_S[args.workload]))

    if args.trace == 0:
        doc = run("run", batches_in(args.seconds))
        failures = list(check_jobs(doc, refs).values())
        tried = attempted(doc)
        metrics = end_to_end(doc)
    else:
        plain = run("plain", batches_in(args.seconds / 2))
        traced = run("traced", len(plain["batches"]), "--sample")
        failures = list(check_jobs(plain, refs).values()) + \
            list(check_jobs(traced, refs, plain).values())
        tried = attempted(plain) + attempted(traced)
        metrics = per_layer(plain, traced, exe, root)
        run_id = {"seed": args.seed, "seconds": args.seconds,
                  "build": build_id(exe)}
        with open(layers_path(outdir, args.workload), "w") as f:
            json.dump({"run": run_id,
                       "metrics": {k: v[0] for k, v in metrics.items()}},
                      f, indent=1)
        for claim, holds, detail in predictions(outdir, run_id):
            print("prediction %s: %s (%s)"
                  % ("confirmed" if holds else "FALSE", claim, detail))
        doc = plain

    report(metrics, fingerprint(doc), tried, failures)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        log("perfbench: " + str(e))
        sys.exit(2)
    except (subprocess.SubprocessError, OSError, ValueError,
            KeyError) as e:
        log("perfbench: %s: %s" % (type(e).__name__, e))
        sys.exit(1)
