/**
 * @file
 * Sampled host profiler tests: a SIGPROF sample lands in the layer its
 * thread is tagged with; no sample is taken unless --self-profile arms
 * the sampler; and the PROFILE_<figure>.json schema is deterministic —
 * same layer key set, in the same (enum) order — across --jobs=1 and
 * --jobs=8, even though the sample counts are host-dependent. The
 * schema guarantee lets perf trajectories diff PROFILE files across
 * commits. A job's populate step runs in the setup layer, and every
 * host-timing output reports the workers a sweep really ran.
 */

#include <gtest/gtest.h>

#include <ctime>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/bench_cli.hh"
#include "harness/job_spec.hh"
#include "obs/self_profile.hh"

namespace uhtm
{
namespace
{

std::string
slurp(const std::filesystem::path &p)
{
    std::ifstream in(p);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Keys of the objects nested in "layers", in file order. */
std::vector<std::string>
layerKeys(const std::string &json)
{
    std::vector<std::string> keys;
    std::size_t pos = json.find("\"layers\": {");
    if (pos == std::string::npos)
        return keys;
    pos += 11;
    while ((pos = json.find("\": {", pos)) != std::string::npos) {
        const std::size_t open = json.rfind('"', pos - 1);
        keys.push_back(json.substr(open + 1, pos - open - 1));
        pos += 4;
    }
    return keys;
}

std::string
runProfiled(const std::string &dir, unsigned jobs)
{
    const figures::Figure *fig = figures::find("latency");
    EXPECT_NE(fig, nullptr);
    BenchCliOpts opts;
    opts.fig.tiny = true;
    opts.fig.quick = true;
    opts.jobs = jobs;
    opts.outDir = dir;
    opts.selfProfile = true;
    EXPECT_EQ(runFigure(*fig, opts), 0);
    return slurp(std::filesystem::path(dir) / "PROFILE_latency.json");
}

std::uint64_t
totalSamples()
{
    std::uint64_t n = 0;
    for (unsigned i = 0; i < obs::kLayerCount; ++i)
        n += obs::layerSamples(static_cast<obs::Layer>(i));
    return n;
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
}

TEST(SelfProfile, SchemaIsDeterministicAcrossJobCounts)
{
    const std::string base = ::testing::TempDir();
    const std::string j1 = runProfiled(base + "/uhtm_prof_j1", 1);
    const std::string j8 = runProfiled(base + "/uhtm_prof_j8", 8);
    ASSERT_FALSE(j1.empty());
    ASSERT_FALSE(j8.empty());

    // Fixed top-level schema markers.
    for (const std::string *s : {&j1, &j8}) {
        EXPECT_NE(s->find("\"schema\": \"uhtm-profile-v3\""),
                  std::string::npos);
        EXPECT_NE(s->find("\"figure\": \"latency\""), std::string::npos);
        EXPECT_NE(s->find("\"cpu_seconds\""), std::string::npos);
        EXPECT_NE(s->find("\"samples\""), std::string::npos);
    }

    // The layer key sequence is the Layer enum, every layer always
    // present (sampled or not), identical across job counts.
    const std::vector<std::string> k1 = layerKeys(j1);
    const std::vector<std::string> k8 = layerKeys(j8);
    ASSERT_EQ(k1.size(), obs::kLayerCount);
    EXPECT_EQ(k1, k8);
    for (unsigned i = 0; i < obs::kLayerCount; ++i)
        EXPECT_EQ(k1[i], obs::layerName(static_cast<obs::Layer>(i)));
}

TEST(SelfProfile, PopulateStepRunsInTheSetupLayer)
{
    JobSpec spec;
    spec.machine.cores = 1;
    obs::Layer seen = obs::Layer::Count;
    spec.populate = [&seen](Runner &, std::uint64_t) { seen = obs::t_layer; };
    spec.run(1);
    EXPECT_EQ(seen, obs::Layer::Setup);
    const obs::Layer after = obs::t_layer;
    EXPECT_EQ(after, obs::Layer::Other);
}

TEST(SelfProfile, SidecarsReportTheWorkersThatRan)
{
    // latency is one job: --jobs=8 runs it on one worker, and the
    // summary line, TIMING and PROFILE must all say so.
    const figures::Figure *fig = figures::find("latency");
    ASSERT_NE(fig, nullptr);
    const std::string dir = ::testing::TempDir() + "/uhtm_prof_workers";
    BenchCliOpts opts;
    opts.fig.tiny = true;
    opts.fig.quick = true;
    opts.jobs = 8;
    opts.outDir = dir;
    opts.wall = true;
    opts.selfProfile = true;
    ::testing::internal::CaptureStdout();
    const int rc = runFigure(*fig, opts);
    const std::string out = ::testing::internal::GetCapturedStdout();
    ASSERT_EQ(rc, 0);
    EXPECT_NE(out.find("[latency] 1 jobs on 1 threads"), std::string::npos)
        << out;
    for (const char *name : {"TIMING_latency.json", "PROFILE_latency.json"}) {
        const std::string doc = slurp(std::filesystem::path(dir) / name);
        EXPECT_NE(doc.find("\"threads\": 1,"), std::string::npos)
            << name << ":\n" << doc;
    }
}

TEST(SelfProfile, SpinningThreadSamplesItsLayer)
{
    obs::installLayerSampler();
    obs::resetLayerSamples();
    std::thread spinner([] {
        obs::LayerSampler sampler;
        obs::LayerScope tag(obs::Layer::DramCache);
        const double until = threadCpuSeconds() + 0.05;
        while (threadCpuSeconds() < until) {
        }
    });
    spinner.join();

    const std::uint64_t total = totalSamples();
    ASSERT_GT(total, 0u);
    EXPECT_GE(obs::layerSamples(obs::Layer::DramCache), 0.9 * total)
        << total << " samples";
    EXPECT_GE(obs::sampledCpuSeconds(), 0.05);
}

TEST(SelfProfile, DisabledProfilerAccumulatesNothing)
{
    obs::resetLayerSamples();
    const figures::Figure *fig = figures::find("fig2");
    ASSERT_NE(fig, nullptr);
    BenchCliOpts opts;
    opts.fig.tiny = true;
    opts.jobs = 2;
    ASSERT_EQ(runFigure(*fig, opts), 0);
    EXPECT_EQ(totalSamples(), 0u);
    EXPECT_EQ(obs::sampledCpuSeconds(), 0.0);
}

} // namespace
} // namespace uhtm
