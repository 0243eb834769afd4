/**
 * @file
 * Host-cost benchmark driver.
 *
 * Runs one named workload (a subset of a quick-scale figure sweep)
 * through exec::SweepScheduler and times each job's calls into the
 * simulator's layers from outside: it builds every job from the
 * harness's public pieces (Runner, PmdkBenchmark, HogApp, EchoKv,
 * traffic::ServiceWorkload) in the same order the figure registry does,
 * so the modeled results equal the committed references, and wraps each
 * call in a span. Spans, per-job CPU time and page faults, each job's
 * serialized result and the optional CPU-time samples are kept in
 * memory and written as one JSON document at the end; perfbench/run.py
 * turns that document into metrics.
 *
 *   uhtm_perfbench --workload=overflow|scans|service --seed=N --out=FILE
 *                  [--batches=N] [--threads=N] [--sample]
 *                  [--throw-key=KEY]
 *   uhtm_perfbench --mode=spin --seconds=S --out=FILE
 *
 * run:   --batches batches of the workload's jobs. Batch k runs the
 *        sweep under its own seed (batchSeed), so a run covers several
 *        inputs and batch 0 is the sweep at --seed itself.
 * spin:  the sampler self-test; spins in spin.cc under the sampler.
 *
 * --throw-key makes the named job throw while its workload is built;
 * the benchmark's tests use it to show a failed job is counted, not
 * fatal.
 */

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>
#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/json.hh"
#include "exec/result_sink.hh"
#include "exec/scheduler.hh"
#include "harness/runner.hh"
#include "traffic/service.hh"
#include "workloads/echo.hh"
#include "workloads/hog.hh"
#include "workloads/pmdk.hh"

#include "sampler.hh"

namespace
{

using namespace uhtm;
using Clock = std::chrono::steady_clock;

/** One job of a workload: the figure job it reproduces and how to
 *  build it. */
struct JobSpec
{
    std::string key;
    std::map<std::string, std::string> config;
    MachineConfig machine;
    HtmPolicy policy;
    /** Committed operations the workload quota implies. */
    std::uint64_t expectedOps = 0;
    /** Service requests that must all complete (0: not a service job). */
    std::uint64_t expectedRequests = 0;
    /** Add domains, workloads and workers to a freshly built machine. */
    std::function<void(Runner &, std::uint64_t seed)> build;
    /** Result post-processing the figure applies after the run. */
    std::function<void(RunMetrics &)> finish;
};

struct Workload
{
    std::string figure; ///< figure whose committed references apply
    std::vector<JobSpec> jobs;
};

/** LLC-hog background applications, as experiments::runPmdkConsolidated
 *  attaches them; the first one starts owning the LLC. */
void
addHogs(Runner &runner, unsigned hogs, std::uint64_t bytes, unsigned burst)
{
    RunControl &rc = runner.control();
    for (unsigned h = 0; h < hogs; ++h) {
        const DomainId dom = runner.addDomain("hog" + std::to_string(h));
        auto hog = std::make_shared<HogApp>(runner.system(),
                                            runner.regions(), bytes, burst);
        runner.addBackground(dom, [hog, &rc](TxContext &ctx) {
            return hog->worker(ctx, rc);
        });
        if (h == 0)
            runner.system().prewarmLlc(hog->base(), hog->lines());
    }
}

constexpr unsigned kWorkers = 4; ///< per PMDK index
constexpr unsigned kHogs = 2;
constexpr IndexKind kKinds[] = {IndexKind::HashMap, IndexKind::BTree,
                                IndexKind::RBTree, IndexKind::SkipList};
constexpr unsigned kEchoClients = 3;

/** fig7 --quick job: 4 PMDK indexes x 4 workers + 2 LLC hogs, on NVM. */
JobSpec
consolidatedJob(std::uint64_t footprint, const std::string &label,
                HtmPolicy policy)
{
    PmdkParams base;
    base.footprintBytes = footprint;
    base.txPerWorker = 6;

    JobSpec j;
    const std::string kb = std::to_string(footprint / 1024);
    j.key = "fp" + kb + "KB/" + label;
    j.config = {{"workload", "pmdk-consolidated"},
                {"system", label},
                {"footprint_kb", kb}};
    j.machine.cores = std::size(kKinds) * kWorkers + kHogs;
    j.policy = policy;
    j.expectedOps =
        std::size(kKinds) * kWorkers * base.txPerWorker * base.opsPerTx();
    j.build = [base](Runner &runner, std::uint64_t seed) {
        RunControl &rc = runner.control();
        unsigned idx = 0;
        for (IndexKind kind : kKinds) {
            PmdkParams p = base;
            p.kind = kind;
            p.seed = seed;
            const DomainId dom = runner.addDomain(
                std::string(indexKindName(kind)) + "." +
                std::to_string(idx++));
            auto bench = std::make_shared<PmdkBenchmark>(
                runner.system(), runner.regions(), p, kWorkers);
            for (unsigned w = 0; w < kWorkers; ++w) {
                runner.addWorker(dom, [bench, w, &rc](TxContext &ctx) {
                    return bench->worker(ctx, w, rc);
                });
            }
        }
        addHogs(runner, kHogs, MiB(48), 96);
    };
    return j;
}

Workload
overflowWorkload()
{
    Workload w{"fig7", {}};
    for (unsigned bits : {512u, 4096u}) {
        const std::string b = std::to_string(bits);
        w.jobs.push_back(
            consolidatedJob(KiB(100), b + "_sig", HtmPolicy::uhtmSig(bits)));
        w.jobs.push_back(
            consolidatedJob(KiB(100), b + "_opt", HtmPolicy::uhtmOpt(bits)));
    }
    return w;
}

/** fig8 --quick: Echo, 1 master + 3 clients, 12 MB read-only scans. */
Workload
scansWorkload()
{
    const std::pair<const char *, double> fractions[] = {
        {"0%", 0.0}, {"0.5%", 0.005}, {"1%", 0.01}, {"2%", 0.02}};
    const SystemVariant systems[] = {
        {"LLC-Bounded", HtmPolicy::llcBounded()},
        {"UHTM(2k_opt)", HtmPolicy::uhtmOpt(2048)},
        {"Ideal", HtmPolicy::ideal()}};
    Workload w{"fig8", {}};
    for (const auto &[label, fraction] : fractions) {
        for (const SystemVariant &sysv : systems) {
            EchoParams p;
            p.valueBytes = KiB(1);
            p.opsPerTx = 1;
            p.txPerMaster = 200;
            p.longTxFraction = fraction;
            p.scanBytes = MiB(12);
            p.prefillKeys = 16384;
            p.prefillValueBytes = KiB(2);

            JobSpec j;
            j.key = std::string("long") + label + "/" + sysv.label;
            j.config = {{"workload", "echo-longtx"},
                        {"system", sysv.label},
                        {"long_tx_fraction", label},
                        {"scan_bytes", std::to_string(p.scanBytes)}};
            j.machine.cores = 1 + kEchoClients;
            j.policy = sysv.policy;
            j.expectedOps = p.txPerMaster * p.opsPerTx;
            j.build = [p](Runner &runner, std::uint64_t seed) {
                RunControl &rc = runner.control();
                const DomainId dom = runner.addDomain("echo");
                EchoParams params = p;
                params.seed = seed;
                auto echo = std::make_shared<EchoKv>(
                    runner.system(), runner.regions(), params, kEchoClients);
                runner.addWorker(dom, [echo, &rc](TxContext &ctx) {
                    return echo->master(ctx, rc);
                });
                for (unsigned c = 0; c < kEchoClients; ++c) {
                    runner.addBackground(dom, [echo, c, &rc](TxContext &ctx) {
                        return echo->client(ctx, c, rc);
                    });
                }
            };
            w.jobs.push_back(std::move(j));
        }
    }
    return w;
}

/** The service figure's per-job latency scalars (BENCH "extra"). */
void
serviceExtras(RunMetrics &m)
{
    const auto &dists = m.registry.distributions;
    if (auto it = dists.find("service.sojourn_ns"); it != dists.end()) {
        m.extra.set("service_p50_ns", it->second.quantileUpperBound(0.50));
        m.extra.set("service_p99_ns", it->second.quantileUpperBound(0.99));
        m.extra.set("service_p999_ns",
                    it->second.quantileUpperBound(0.999));
    }
    if (auto it = dists.find("service.queue_wait_ns"); it != dists.end())
        m.extra.set("queue_p99_ns", it->second.quantileUpperBound(0.99));
    if (auto it = m.registry.counters.find("service.requests");
        it != m.registry.counters.end())
        m.extra.set("requests", static_cast<double>(it->second));
}

/** service --quick: 2 tenants x {Poisson, MMPP} at 1M req/s x 5 systems
 *  x 4 conflict policies. */
Workload
serviceWorkload()
{
    traffic::ArrivalSpec poisson;
    poisson.kind = traffic::ArrivalKind::Poisson;
    poisson.ratePerSec = 1e6;
    traffic::ArrivalSpec mmpp = poisson;
    mmpp.kind = traffic::ArrivalKind::Mmpp;
    const std::pair<const char *, traffic::ArrivalSpec> arrivals[] = {
        {"1M", poisson}, {"mmpp-1M", mmpp}};
    const SystemVariant systems[] = {
        {"LLC-Bounded", HtmPolicy::llcBounded()},
        {"Sig-Only", HtmPolicy::signatureOnly(2048)},
        {"2k_sig", HtmPolicy::uhtmSig(2048)},
        {"2k_opt", HtmPolicy::uhtmOpt(2048)},
        {"Ideal", HtmPolicy::ideal()}};
    const char *const policies[] = {"fixed", "bounded-retry", "karma",
                                    "hytm"};
    constexpr unsigned kTenants = 2;

    Workload w{"service", {}};
    for (const auto &[label, arrival] : arrivals) {
        for (const SystemVariant &sysv : systems) {
            for (const char *pname : policies) {
                HtmPolicy policy = sysv.policy;
                std::string err;
                if (!PolicyDescriptor::parse(pname, &policy.conflict, &err))
                    throw std::logic_error("bad policy " +
                                           std::string(pname) + ": " + err);
                traffic::ServiceParams p;
                p.tenants = kTenants;
                p.workersPerTenant = 2;
                p.requests = 240;
                p.arrival = arrival;

                JobSpec j;
                j.key = "t" + std::to_string(kTenants) + "/" + label + "/" +
                        sysv.label + "/" + pname;
                j.config = {{"workload", "service"},
                            {"system", sysv.label},
                            {"policy", pname},
                            {"tenants", std::to_string(kTenants)},
                            {"arrival", p.arrival.spec()}};
                j.machine.cores = p.tenants * p.workersPerTenant;
                j.policy = policy;
                j.expectedOps = p.requests;
                j.expectedRequests = p.requests;
                j.build = [p](Runner &runner, std::uint64_t seed) {
                    RunControl &rc = runner.control();
                    traffic::ServiceParams params = p;
                    params.seed = seed;
                    auto svc = std::make_shared<traffic::ServiceWorkload>(
                        runner.system(), runner.regions(), params, seed);
                    for (unsigned t = 0; t < params.tenants; ++t) {
                        const DomainId dom =
                            runner.addDomain("tenant" + std::to_string(t));
                        for (unsigned wk = 0; wk < params.workersPerTenant;
                             ++wk) {
                            runner.addWorker(
                                dom, [svc, t, wk, &rc](TxContext &ctx) {
                                    return svc->worker(ctx, t, wk, rc);
                                });
                        }
                    }
                    runner.addMetricsExporter(
                        [svc](obs::MetricsRegistry &reg) {
                            svc->tracker().exportTo(reg);
                        });
                };
                j.finish = serviceExtras;
                w.jobs.push_back(std::move(j));
            }
        }
    }
    return w;
}

Workload
workloadNamed(const std::string &name)
{
    if (name == "overflow")
        return overflowWorkload();
    if (name == "scans")
        return scansWorkload();
    if (name == "service")
        return serviceWorkload();
    throw std::invalid_argument("unknown workload '" + name + "'");
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

long
threadMinorFaults()
{
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    return ru.ru_minflt;
}

double
secondsSince(Clock::time_point origin)
{
    return std::chrono::duration<double>(Clock::now() - origin).count();
}

struct Span
{
    const char *name;
    double start; ///< seconds since the batch was submitted
    double end;
};

/** Host-side record of one job execution. */
struct JobRecord
{
    long tid = 0;
    double cpuS = 0.0;
    long minorFaults = 0;
    std::vector<Span> spans;
};

/** Records a span from construction to destruction (also on throw). */
class SpanScope
{
  public:
    SpanScope(JobRecord &rec, const char *name, Clock::time_point origin)
        : _rec(rec), _name(name), _origin(origin),
          _start(secondsSince(origin))
    {
    }
    ~SpanScope()
    {
        _rec.spans.push_back({_name, _start, secondsSince(_origin)});
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    JobRecord &_rec;
    const char *_name;
    Clock::time_point _origin;
    double _start;
};

/** Charges the calling thread's CPU time and minor faults between
 *  construction and destruction to a job record. */
class JobMeter
{
  public:
    explicit JobMeter(JobRecord &rec)
        : _rec(rec), _cpu0(threadCpuSeconds()), _flt0(threadMinorFaults())
    {
        _rec.tid = gettid();
    }
    ~JobMeter()
    {
        _rec.cpuS = threadCpuSeconds() - _cpu0;
        _rec.minorFaults = threadMinorFaults() - _flt0;
    }

    JobMeter(const JobMeter &) = delete;
    JobMeter &operator=(const JobMeter &) = delete;

  private:
    JobRecord &_rec;
    double _cpu0;
    long _flt0;
};

struct Options
{
    std::string workload;
    std::string mode = "run";
    std::uint64_t seed = 42;
    double seconds = 1.0; ///< spin mode only
    unsigned batches = 1;
    unsigned threads = 4;
    bool sample = false;
    std::string throwKey;
    std::string out;
};

/** Sweep seed of batch @p k: --seed itself for batch 0, then a Weyl
 *  sequence (wrapping) so no two batches share inputs. */
std::uint64_t
batchSeed(std::uint64_t seed, unsigned k)
{
    return seed + k * 0x9e3779b97f4a7c15ull;
}

struct Batch
{
    std::uint64_t seed = 0;
    double wallS = 0.0;
    std::vector<JobRecord> records;
    std::vector<exec::JobResult> results;
};

/** Build, run and tear down one job, recording a span around each
 *  call into the simulator. Runs on a pool thread. */
RunMetrics
runJob(const JobSpec &spec, std::uint64_t seed, const Options &o,
       Clock::time_point origin, JobRecord &rec)
{
    rec.spans.push_back({"exec.queue", 0.0, secondsSince(origin)});
    JobMeter meter(rec);
    perfbench::ThreadSampler sampler(o.sample);
    std::unique_ptr<Runner> runner;
    {
        SpanScope s(rec, "harness.machine_build", origin);
        runner = std::make_unique<Runner>(spec.machine, spec.policy, seed);
    }
    {
        SpanScope s(rec, "workloads.build", origin);
        if (spec.key == o.throwKey)
            throw std::runtime_error("injected failure");
        spec.build(*runner, seed);
    }
    RunMetrics m;
    {
        SpanScope s(rec, "harness.run", origin);
        m = runner->run();
    }
    {
        SpanScope s(rec, "harness.teardown", origin);
        runner.reset();
    }
    if (spec.finish)
        spec.finish(m);
    return m;
}

Batch
runBatch(const Workload &wl, const Options &o, unsigned k)
{
    Batch b;
    b.seed = batchSeed(o.seed, k);
    b.records.resize(wl.jobs.size());
    for (JobRecord &rec : b.records)
        rec.spans.reserve(5); // SpanScope's destructor must not allocate
    std::vector<exec::Job> jobs;
    const Clock::time_point origin = Clock::now();
    for (std::size_t i = 0; i < wl.jobs.size(); ++i) {
        const JobSpec &spec = wl.jobs[i];
        JobRecord &rec = b.records[i];
        jobs.push_back({spec.key, spec.config,
                        [&spec, &o, &rec, origin](std::uint64_t seed) {
                            return runJob(spec, seed, o, origin, rec);
                        }});
    }
    exec::SweepScheduler sched({o.threads, b.seed});
    b.results = sched.run(jobs);
    b.wallS = secondsSince(origin);
    return b;
}

std::string
hostCompiler()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

/** CPU brand string from cpuid; "unknown" where there is none. */
std::string
cpuModel()
{
#if defined(__x86_64__)
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        unsigned regs[12] = {};
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[sizeof(regs) + 1] = {};
        std::memcpy(brand, regs, sizeof(regs));
        std::string s(brand);
        const auto first = s.find_first_not_of(' ');
        return first == std::string::npos ? "unknown" : s.substr(first);
    }
#endif
    return "unknown";
}

void
writeHost(exec::JsonWriter &w)
{
    w.key("host");
    w.beginObject();
    w.field("cpu_model", cpuModel());
    w.field("compiler", hostCompiler());
    w.field("build_type", std::string(PERFBENCH_BUILD_TYPE));
#ifdef NDEBUG
    w.field("asserts", false);
#else
    w.field("asserts", true);
#endif
    w.endObject();
}

void
writeSamples(exec::JsonWriter &w)
{
    const perfbench::SampleSet s = perfbench::collectSamples();
    w.key("samples");
    w.beginObject();
    w.field("outside", s.outside);
    w.key("exe");
    w.beginObject();
    char hex[32];
    for (const auto &[off, n] : s.exeOffsets) {
        std::snprintf(hex, sizeof(hex), "0x%llx",
                      static_cast<unsigned long long>(off));
        w.field(hex, n);
    }
    w.endObject();
    w.endObject();
}

void
writeBatches(exec::JsonWriter &w, const Workload &wl,
             const std::vector<Batch> &batches)
{
    w.key("jobs");
    w.beginArray();
    for (const JobSpec &spec : wl.jobs) {
        w.beginObject();
        w.field("key", spec.key);
        w.field("expected_ops", spec.expectedOps);
        w.field("expected_requests", spec.expectedRequests);
        w.endObject();
    }
    w.endArray();

    w.key("batches");
    w.beginArray();
    for (const Batch &b : batches) {
        // Each job's modeled result serialized as the figure's BENCH
        // file holds it, and the batch's summed registry counters.
        const exec::ResultSink sink(wl.figure, b.seed,
                                    {{"quick", "true"}, {"tiny", "false"}});
        obs::MetricsSnapshot counters;
        w.beginObject();
        w.field("seed", b.seed);
        w.field("wall_s", b.wallS);
        w.key("jobs");
        w.beginArray();
        for (std::size_t i = 0; i < b.results.size(); ++i) {
            const exec::JobResult &r = b.results[i];
            const JobRecord &rec = b.records[i];
            if (r.ok)
                counters.merge(r.metrics.registry);
            w.beginObject();
            w.field("result", sink.json({r}));
            w.field("tid", static_cast<std::uint64_t>(rec.tid));
            w.field("cpu_s", rec.cpuS);
            w.field("minor_faults",
                    static_cast<std::uint64_t>(rec.minorFaults));
            w.field("events", r.metrics.hostEventsExecuted);
            w.key("spans");
            w.beginObject();
            for (const Span &s : rec.spans) {
                w.key(s.name);
                w.beginArray();
                w.value(s.start);
                w.value(s.end);
                w.endArray();
            }
            w.endObject();
            w.endObject();
        }
        w.endArray();
        w.key("counters");
        w.beginObject();
        for (const auto &[name, v] : counters.counters)
            w.field(name, v);
        w.endObject();
        w.endObject();
    }
    w.endArray();
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto eq = a.find('=');
        const bool bare = eq == std::string::npos;
        if (a.rfind("--", 0) != 0 || (bare && a != "--sample"))
            throw std::invalid_argument("bad argument '" + a + "'");
        const std::string k = a.substr(2, bare ? eq : eq - 2);
        const std::string v = bare ? "" : a.substr(eq + 1);
        if (k == "workload")
            o.workload = v;
        else if (k == "mode")
            o.mode = v;
        else if (k == "seed")
            o.seed = std::stoull(v);
        else if (k == "seconds")
            o.seconds = std::stod(v);
        else if (k == "batches")
            o.batches = static_cast<unsigned>(std::stoul(v));
        else if (k == "threads")
            o.threads = static_cast<unsigned>(std::stoul(v));
        else if (k == "sample")
            o.sample = true;
        else if (k == "throw-key")
            o.throwKey = v;
        else if (k == "out")
            o.out = v;
        else
            throw std::invalid_argument("unknown flag '" + a + "'");
    }
    if (o.out.empty())
        throw std::invalid_argument("--out=FILE is required");
    if (o.mode != "run" && o.mode != "spin")
        throw std::invalid_argument("--mode must be run or spin");
    if (o.threads == 0 || o.batches == 0 || !(o.seconds > 0))
        throw std::invalid_argument("--threads, --batches and --seconds "
                                    "must be positive");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    try {
        o = parseArgs(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "uhtm_perfbench: %s\n", e.what());
        return 2;
    }

    exec::JsonWriter w;
    w.beginObject();
    writeHost(w);
    if (o.mode == "spin") {
        perfbench::installSampler();
        {
            perfbench::ThreadSampler sampler(true);
            w.field("spin_result", perfbench::spinFor(o.seconds));
        }
        writeSamples(w);
    } else {
        Workload wl;
        try {
            wl = workloadNamed(o.workload);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "uhtm_perfbench: %s\n", e.what());
            return 2;
        }
        if (o.sample)
            perfbench::installSampler();
        std::vector<Batch> batches;
        for (unsigned k = 0; k < o.batches; ++k)
            batches.push_back(runBatch(wl, o, k));
        w.field("threads", static_cast<std::uint64_t>(o.threads));
        writeBatches(w, wl, batches);
        if (o.sample)
            writeSamples(w);
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    w.field("peak_rss_kib", static_cast<std::uint64_t>(ru.ru_maxrss));
    w.endObject();

    std::ofstream out(o.out);
    out << w.str() << "\n";
    out.close();
    if (!out) {
        std::fprintf(stderr, "uhtm_perfbench: cannot write %s\n",
                     o.out.c_str());
        return 1;
    }
    return 0;
}
