#include "harness/bench_cli.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "exec/json.hh"
#include "exec/result_sink.hh"
#include "exec/scheduler.hh"
#include "obs/self_profile.hh"
#include "obs/tracer.hh"
#include "traffic/arrivals.hh"

namespace uhtm
{

namespace
{

bool
parseU64(const std::string &arg, const char *prefix, std::uint64_t &out)
{
    const std::size_t n = std::strlen(prefix);
    if (arg.rfind(prefix, 0) != 0)
        return false;
    out = std::strtoull(arg.c_str() + n, nullptr, 10);
    return true;
}

bool
parseF64(const std::string &arg, const char *prefix, double &out)
{
    const std::size_t n = std::strlen(prefix);
    if (arg.rfind(prefix, 0) != 0)
        return false;
    out = std::strtod(arg.c_str() + n, nullptr);
    return true;
}

/** Sweep-level settings echoed into the JSON file. */
std::map<std::string, std::string>
sweepConfig(const BenchCliOpts &opts)
{
    std::map<std::string, std::string> cfg;
    cfg["quick"] = opts.fig.quick ? "true" : "false";
    cfg["tiny"] = opts.fig.tiny ? "true" : "false";
    if (opts.fig.txOverride)
        cfg["tx_override"] = std::to_string(opts.fig.txOverride);
    if (opts.fig.scanMbOverride)
        cfg["scan_mb_override"] =
            std::to_string(opts.fig.scanMbOverride);
    if (!opts.filter.empty())
        cfg["filter"] = opts.filter;
    if (!opts.fig.policySpec.empty())
        cfg["policy"] = opts.fig.policy.spec();
    if (!opts.fig.arrivalSpec.empty())
        cfg["arrival"] = opts.fig.arrivalSpec;
    if (opts.fig.zipfTheta >= 0.0)
        cfg["zipf_theta"] = opts.zipfThetaSpec;
    if (opts.fig.tenantsOverride)
        cfg["tenants"] = std::to_string(opts.fig.tenantsOverride);
    if (opts.fig.rwMix >= 0.0)
        cfg["rw_mix"] = opts.rwMixSpec;
    return cfg;
}

/**
 * The TIMING_<figure>.json host-timing sidecar: the sweep's wall clock
 * and throughput, and each job's host seconds by key. Everything in it
 * is host-dependent, so it is deliberately named outside the BENCH_*
 * and METRICS_* golden globs and must never be byte-compared.
 */
std::string
timingSidecar(const std::string &figure, double wall_seconds,
              const std::vector<exec::JobResult> &results,
              unsigned threads, std::uint64_t events)
{
    exec::JsonWriter w;
    w.beginObject();
    w.field("figure", figure);
    w.field("wall_seconds", wall_seconds);
    w.field("jobs", static_cast<std::uint64_t>(results.size()));
    w.field("threads", static_cast<std::uint64_t>(threads));
    w.field("events_executed", events);
    w.field("events_per_second",
            wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds
                               : 0.0);
    w.key("job_host_seconds");
    w.beginArray();
    for (const exec::JobResult &r : results) {
        w.beginObject();
        w.field("key", r.key);
        w.field("host_seconds", r.hostSeconds);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str() + "\n";
}

/**
 * The PROFILE_<figure>.json sampled-profiler sidecar. The samples are
 * host-dependent, like TIMING_*, and never golden-compared; the schema
 * is deterministic: every layer is always emitted, at zero if never
 * sampled, in enum order, so the key set is byte-identical across
 * --jobs=1 and --jobs=8.
 */
std::string
profileSidecar(const std::string &figure, double wall_seconds,
               unsigned threads)
{
    std::uint64_t total = 0;
    for (unsigned i = 0; i < obs::kLayerCount; ++i)
        total += obs::layerSamples(static_cast<obs::Layer>(i));
    const double cpu = obs::sampledCpuSeconds();
    exec::JsonWriter w;
    w.beginObject();
    w.field("schema", "uhtm-profile-v3");
    w.field("figure", figure);
    w.field("wall_seconds", wall_seconds);
    w.field("threads", static_cast<std::uint64_t>(threads));
    w.field("sample_period_s", obs::kSamplePeriodS);
    w.field("cpu_seconds", cpu);
    w.field("samples", total);
    w.key("layers");
    w.beginObject();
    for (unsigned i = 0; i < obs::kLayerCount; ++i) {
        const auto l = static_cast<obs::Layer>(i);
        const std::uint64_t n = obs::layerSamples(l);
        const double share =
            total ? static_cast<double>(n) / static_cast<double>(total)
                  : 0.0;
        w.key(obs::layerName(l));
        w.beginObject();
        w.field("samples", n);
        w.field("share", share);
        w.field("self_s", share * cpu);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return w.str() + "\n";
}

} // namespace

const char *
benchFlagsHelp()
{
    return "  --jobs=N      worker threads (default: hardware "
           "concurrency)\n"
           "  --seed=S      sweep seed (default 42)\n"
           "  --out=DIR     write BENCH_<figure>.json into DIR\n"
           "  --filter=SUB  only run jobs whose key contains SUB\n"
           "  --quick       reduced sweep points\n"
           "  --tiny        miniature smoke/sanitizer configs\n"
           "  --tx=N        transactions per worker (--ops= alias)\n"
           "  --scanmb=N    fig8 long-scan size in MiB\n"
           "  --policy=SPEC conflict policy: fixed | bounded-retry | "
           "karma | hytm,\n"
           "                with optional :retries=N,base=NS,max=NS "
           "knobs\n"
           "  --arrival=SPEC service arrival process: fixed | poisson "
           "| mmpp,\n"
           "                with :rate=R[,burst=B,occ=F,dwell=NS] "
           "knobs\n"
           "  --zipf-theta=T service key-popularity skew (0 = uniform, "
           "default 0.99)\n"
           "  --tenants=N   service tenant count (default: built-in "
           "sweep)\n"
           "  --rw-mix=F    service base read fraction in [0,1] "
           "(default 0.5)\n"
           "  --metrics     also write METRICS_<figure>.json (needs "
           "--out)\n"
           "  --trace=DIR   record binary event traces into DIR "
           "(uhtm_trace reads them)\n"
           "  --wall        write TIMING_<figure>.json host-timing "
           "sidecar (needs --out)\n"
           "  --self-profile write PROFILE_<figure>.json sampled host "
           "CPU time by simulator layer (needs --out)\n";
}

bool
parseBenchArgs(int argc, char **argv, int firstArg, BenchCliOpts &opts,
               std::string &err)
{
    for (int i = firstArg; i < argc; ++i) {
        const std::string arg = argv[i];
        std::uint64_t v = 0;
        double f = 0.0;
        if (arg == "--quick") {
            opts.fig.quick = true;
        } else if (arg == "--tiny") {
            opts.fig.tiny = true;
        } else if (parseU64(arg, "--jobs=", v)) {
            opts.jobs = static_cast<unsigned>(v);
        } else if (parseU64(arg, "--seed=", v)) {
            opts.fig.seed = v;
        } else if (parseU64(arg, "--tx=", v) ||
                   parseU64(arg, "--ops=", v)) {
            opts.fig.txOverride = v;
        } else if (parseU64(arg, "--scanmb=", v)) {
            opts.fig.scanMbOverride = v;
        } else if (arg.rfind("--out=", 0) == 0) {
            opts.outDir = arg.substr(6);
        } else if (arg.rfind("--filter=", 0) == 0) {
            opts.filter = arg.substr(9);
        } else if (arg.rfind("--policy=", 0) == 0) {
            const std::string spec = arg.substr(9);
            std::string perr;
            if (!PolicyDescriptor::parse(spec, &opts.fig.policy,
                                         &perr)) {
                err = "--policy: " + perr;
                return false;
            }
            opts.fig.policySpec = spec;
        } else if (arg.rfind("--arrival=", 0) == 0) {
            const std::string spec = arg.substr(10);
            traffic::ArrivalSpec as;
            std::string aerr;
            if (!traffic::ArrivalSpec::parse(spec, &as, &aerr)) {
                err = "--arrival: " + aerr;
                return false;
            }
            // Store the canonical round-trip form so the sweep-config
            // echo is byte-stable regardless of how the user spelled
            // the numbers.
            opts.fig.arrivalSpec = as.spec();
        } else if (parseF64(arg, "--zipf-theta=", f)) {
            if (f < 0.0) {
                err = "--zipf-theta: must be >= 0";
                return false;
            }
            opts.fig.zipfTheta = f;
            opts.zipfThetaSpec = arg.substr(std::strlen("--zipf-theta="));
        } else if (parseU64(arg, "--tenants=", v)) {
            if (v == 0 || v > 64) {
                err = "--tenants: must be in [1, 64]";
                return false;
            }
            opts.fig.tenantsOverride = v;
        } else if (parseF64(arg, "--rw-mix=", f)) {
            if (f < 0.0 || f > 1.0) {
                err = "--rw-mix: must be in [0, 1]";
                return false;
            }
            opts.fig.rwMix = f;
            opts.rwMixSpec = arg.substr(std::strlen("--rw-mix="));
        } else if (arg == "--metrics") {
            opts.metrics = true;
        } else if (arg == "--wall") {
            opts.wall = true;
        } else if (arg == "--self-profile") {
            opts.selfProfile = true;
        } else if (arg.rfind("--trace=", 0) == 0) {
            opts.traceDir = arg.substr(8);
        } else {
            err = "unknown argument: " + arg;
            return false;
        }
    }
    // These flags only name files written into --out's directory.
    for (const auto &[on, flag] : {std::pair{opts.metrics, "--metrics"},
                                   std::pair{opts.wall, "--wall"},
                                   std::pair{opts.selfProfile,
                                             "--self-profile"}}) {
        if (on && opts.outDir.empty()) {
            err = std::string(flag) + " needs --out=DIR";
            return false;
        }
    }
    return true;
}

int
runFigure(const figures::Figure &figure, const BenchCliOpts &opts)
{
    std::vector<exec::Job> jobs = figure.makeJobs(opts.fig);
    // A filter that matches the figure's own name selects the whole
    // figure (e.g. `uhtm_bench --filter=service`); otherwise it is a
    // substring filter on the job keys, as before.
    const bool nameMatch =
        !opts.filter.empty() &&
        figure.name.find(opts.filter) != std::string::npos;
    if (!opts.filter.empty() && !nameMatch) {
        std::vector<exec::Job> kept;
        for (auto &j : jobs)
            if (j.key.find(opts.filter) != std::string::npos)
                kept.push_back(std::move(j));
        jobs = std::move(kept);
    }
    if (jobs.empty()) {
        if (opts.skipEmptyFilter) {
            std::printf("%s: no jobs match filter \"%s\", skipping\n",
                        figure.name.c_str(), opts.filter.c_str());
            return 0;
        }
        std::fprintf(stderr, "%s: no jobs match filter \"%s\"\n",
                     figure.name.c_str(), opts.filter.c_str());
        return 1;
    }

    if (!opts.traceDir.empty())
        obs::setTraceDir(opts.traceDir);

    if (opts.selfProfile) {
        obs::installLayerSampler();
        obs::resetLayerSamples();
        for (exec::Job &j : jobs) {
            j.run = [run = std::move(j.run)](std::uint64_t seed) {
                obs::LayerSampler sampler;
                return run(seed);
            };
        }
    }

    exec::SweepScheduler scheduler({opts.jobs, opts.fig.seed});
    const unsigned threads = scheduler.workersFor(jobs.size());
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<exec::JobResult> results = scheduler.run(jobs);
    const double wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    figure.render(opts.fig, results, stdout);

    unsigned failed = 0;
    for (const exec::JobResult &r : results) {
        if (!r.ok) {
            ++failed;
            std::fprintf(stderr, "job %s FAILED: %s\n", r.key.c_str(),
                         r.error.c_str());
        }
    }

    // Simulated events executed across the sweep (host-side metric;
    // ResultSink never serializes it into the deterministic JSON).
    std::uint64_t events = 0;
    for (const exec::JobResult &r : results)
        events += r.metrics.hostEventsExecuted;

    if (!opts.outDir.empty()) {
        // (file name, body) of every file this sweep writes.
        const exec::ResultSink sink(figure.name, opts.fig.seed,
                                    sweepConfig(opts));
        std::vector<std::pair<std::string, std::string>> files;
        files.emplace_back(sink.fileName(), sink.json(results));
        if (opts.metrics)
            files.emplace_back(sink.metricsFileName(),
                               sink.metricsJson(results));
        if (opts.wall)
            files.emplace_back("TIMING_" + figure.name + ".json",
                               timingSidecar(figure.name, wallSeconds,
                                             results, threads,
                                             events));
        if (opts.selfProfile)
            files.emplace_back("PROFILE_" + figure.name + ".json",
                               profileSidecar(figure.name, wallSeconds,
                                              threads));
        for (const auto &[name, body] : files) {
            std::string err;
            const std::string path =
                exec::writeFileTo(opts.outDir, name, body, &err);
            if (path.empty()) {
                std::fprintf(stderr, "cannot write %s: %s\n",
                             name.c_str(), err.c_str());
                return 1;
            }
            std::printf("wrote %s\n", path.c_str());
        }
    }

    // Host-side summary (never part of the deterministic JSON).
    std::printf("\n[%s] %zu jobs on %u threads in %.2fs wall",
                figure.name.c_str(), results.size(),
                threads, wallSeconds);
    if (opts.wall && wallSeconds > 0.0) {
        std::printf(" (%.1fM events/s)",
                    static_cast<double>(events) / wallSeconds / 1e6);
    }
    if (failed)
        std::printf(", %u FAILED", failed);
    std::printf("\n");
    return failed ? 1 : 0;
}

} // namespace uhtm
