/**
 * @file
 * Benchmark smoke tests: every figure in the registry builds its jobs
 * at --tiny scale, runs them on a 2-thread scheduler, renders its text
 * table and serializes to JSON — in-process, fast enough for tier 1.
 * This is what keeps `uhtm_bench` from rotting while the simulator
 * underneath it evolves.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "exec/result_sink.hh"
#include "exec/scheduler.hh"
#include "harness/bench_cli.hh"
#include "harness/figures.hh"

namespace uhtm
{
namespace
{

figures::FigureOpts
tinyOpts()
{
    figures::FigureOpts o;
    o.tiny = true;
    o.seed = 42;
    return o;
}

class EveryFigure : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EveryFigure, TinySweepRunsRendersAndSerializes)
{
    const figures::Figure *fig = figures::find(GetParam());
    ASSERT_NE(fig, nullptr);

    const auto opts = tinyOpts();
    const std::vector<exec::Job> jobs = fig->makeJobs(opts);
    ASSERT_FALSE(jobs.empty());

    exec::SweepScheduler sched({2, opts.seed});
    const auto results = sched.run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (const auto &r : results)
        EXPECT_TRUE(r.ok) << r.key << ": " << r.error;

    // Render the text table into a scratch file, not the test log.
    std::FILE *sinkFile = std::tmpfile();
    ASSERT_NE(sinkFile, nullptr);
    fig->render(opts, results, sinkFile);
    EXPECT_GT(std::ftell(sinkFile), 0) << "render produced no output";
    std::fclose(sinkFile);

    const exec::ResultSink sink(fig->name, opts.seed, {{"tiny", "true"}});
    const std::string json = sink.json(results);
    EXPECT_EQ(json.find("{\n  \"schema\": \"uhtm-bench-v1\""), 0u);
    EXPECT_NE(json.find("\"bench\": \"" + fig->name + "\""),
              std::string::npos);
}

std::vector<std::string>
figureNames()
{
    std::vector<std::string> names;
    for (const auto &f : figures::all())
        names.push_back(f.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(Bench, EveryFigure,
                         ::testing::ValuesIn(figureNames()),
                         [](const auto &info) { return info.param; });

/** Render must tolerate filtered sweeps with most keys missing. */
TEST(BenchSmoke, RenderToleratesFilteredResults)
{
    const auto opts = tinyOpts();
    for (const auto &fig : figures::all()) {
        auto jobs = fig.makeJobs(opts);
        jobs.resize(1); // as if --filter matched a single job
        exec::SweepScheduler sched({1, opts.seed});
        const auto results = sched.run(jobs);
        std::FILE *sinkFile = std::tmpfile();
        ASSERT_NE(sinkFile, nullptr);
        fig.render(opts, results, sinkFile); // must not crash
        std::fclose(sinkFile);
    }
}

/** --wall records every job's host seconds, by key, in job order. */
TEST(BenchSmoke, TimingSidecarListsEachJobsHostSeconds)
{
    const figures::Figure *fig = figures::find("fig9");
    ASSERT_NE(fig, nullptr);
    BenchCliOpts opts;
    opts.fig = tinyOpts();
    opts.jobs = 2;
    opts.outDir = ::testing::TempDir() + "/uhtm_timing_fig9";
    opts.wall = true;
    ASSERT_EQ(runFigure(*fig, opts), 0);

    std::ifstream in(opts.outDir + "/TIMING_fig9.json");
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    std::size_t pos = json.find("\"job_host_seconds\": [");
    ASSERT_NE(pos, std::string::npos) << json;
    for (const exec::Job &job : fig->makeJobs(opts.fig)) {
        pos = json.find("\"key\": \"" + job.key + "\"", pos);
        ASSERT_NE(pos, std::string::npos) << job.key << "\n" << json;
        pos = json.find("\"host_seconds\": ", pos);
        ASSERT_NE(pos, std::string::npos) << json;
        EXPECT_GT(std::stod(json.substr(pos + 16)), 0.0) << job.key;
    }
    EXPECT_EQ(json.find("\"key\"", pos), std::string::npos)
        << "one entry per job:\n" << json;
}

/**
 * --metrics, --wall and --self-profile only name files in --out's
 * directory: without --out the built uhtm_bench must refuse to run
 * (exit 2, one clear line on stderr) rather than silently write
 * nothing.
 */
class OutputFlagWithoutOut : public ::testing::TestWithParam<std::string>
{
};

TEST_P(OutputFlagWithoutOut, ExitsTwo)
{
    const std::string cmd = std::string(UHTM_TOOLS_DIR) +
                            "/uhtm_bench fig2 --tiny --jobs=1 " +
                            GetParam() + " 2>&1 >/dev/null";
    FILE *p = popen(cmd.c_str(), "r");
    ASSERT_NE(p, nullptr);
    std::string err;
    char buf[256];
    while (std::fgets(buf, sizeof(buf), p))
        err += buf;
    const int rc = pclose(p);
    ASSERT_TRUE(WIFEXITED(rc)) << cmd;
    EXPECT_EQ(WEXITSTATUS(rc), 2) << cmd;
    EXPECT_EQ(err.rfind(GetParam() + " needs --out=DIR\n", 0), 0u) << err;
}

INSTANTIATE_TEST_SUITE_P(BenchCli, OutputFlagWithoutOut,
                         ::testing::Values("--metrics", "--wall",
                                           "--self-profile"),
                         [](const auto &info) {
                             std::string name;
                             for (char c : info.param)
                                 if (c != '-')
                                     name += c;
                             return name;
                         });

} // namespace
} // namespace uhtm
