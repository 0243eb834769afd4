/**
 * @file
 * The one description of a simulated run.
 *
 * A JobSpec is a machine, an HTM policy and a populate step that puts
 * domains and workloads on a fresh Runner, plus an optional finish step
 * run after the simulation. Figure jobs (exec::Job, derived by job())
 * and crash sweeps (CrashSweepRunner) both build their Runner from it,
 * so any figure job can be crash-swept as it is benchmarked.
 *
 * The populate steps below are the building blocks: each installs one
 * workload on a Runner it is given, and none builds a Runner or runs
 * it. A job's populate step composes them and decides how the job seed
 * reaches each workload's parameters.
 */

#ifndef UHTM_HARNESS_JOB_SPEC_HH
#define UHTM_HARNESS_JOB_SPEC_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "exec/job.hh"
#include "harness/runner.hh"
#include "traffic/service.hh"
#include "workloads/echo.hh"
#include "workloads/kv_dual.hh"
#include "workloads/kv_hybrid.hh"
#include "workloads/pmdk.hh"

namespace uhtm
{

/** Machine + policy + populate step (+ finish step) of one run. */
struct JobSpec
{
    /** Result key within the sweep (see exec::Job::key). */
    std::string key;
    /** Configuration echoed into the JSON output. */
    std::map<std::string, std::string> config;
    MachineConfig machine;
    HtmPolicy policy;
    /** Install domains, workers and exporters on a fresh Runner seeded
     *  with @p seed; all randomness must come from @p seed. */
    std::function<void(Runner &, std::uint64_t seed)> populate;
    /** Optional: derive figure scalars after the run; the Runner is
     *  still alive (the latency probes measure its idle machine). */
    std::function<void(Runner &, RunMetrics &)> finish = {};

    /** Build the Runner, populate, run and finish with @p seed. */
    RunMetrics run(std::uint64_t seed) const;

    /** The schedulable job: {key, config, run}. */
    exec::Job job() const;
};

/**
 * Consolidated PMDK micro-benchmarks, one conflict domain each with
 * @p workers_per_bench workers (paper Section V). Each benchmark keeps
 * its own params.seed.
 */
void populatePmdk(Runner &runner, const std::vector<PmdkParams> &benches,
                  unsigned workers_per_bench);

/**
 * @p hogs streaming LLC-hog background applications of @p bytes each,
 * @p burst lines per burst; the first starts with the LLC prewarmed.
 */
void populateHogs(Runner &runner, unsigned hogs, std::uint64_t bytes,
                  unsigned burst = 64);

/** Echo KV store: one master worker + @p clients background clients. */
void populateEcho(Runner &runner, const EchoParams &params,
                  unsigned clients);

/** Hybrid-Index KV store: @p workers workers in one domain. */
void populateHybridIndex(Runner &runner, const HybridKvParams &params,
                         unsigned workers);

/** Dual KV store: @p pairs foreground/background pairs, one domain. */
void populateDual(Runner &runner, const DualKvParams &params,
                  unsigned pairs);

/**
 * Adversarial high-contention mix for the conflict-policy figure and
 * stress tests: every worker read-modify-writes a tiny pool of shared
 * NVM lines (hotLines = 1 is the lemming scenario where all threads
 * hammer one line) plus a few private NVM lines so commits engage the
 * redo-log drain path.
 */
struct ContentionParams
{
    unsigned workers = 4;
    unsigned txPerWorker = 25;
    /** Shared NVM lines all transactions fight over. */
    unsigned hotLines = 1;
    /** Hot-pool reads per transaction (widens the read set). */
    unsigned readsPerTx = 2;
    /** Private NVM line writes per transaction (redo-log traffic). */
    unsigned privateWritesPerTx = 4;
    std::uint64_t seed = 1;
};

/** The contention mix, in one domain. */
void populateContention(Runner &runner, const ContentionParams &params);

/**
 * Open-loop multi-tenant service (see traffic/service.hh): one conflict
 * domain per tenant, workersPerTenant server threads each, and the
 * request-lifecycle distributions exported into the metrics registry
 * ("service.*" and "tenant<i>.service.*").
 */
void populateService(Runner &runner,
                     const traffic::ServiceParams &params);

} // namespace uhtm

#endif // UHTM_HARNESS_JOB_SPEC_HH
