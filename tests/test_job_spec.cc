/**
 * @file
 * Job-description tests: consolidated PMDK runs built from JobSpec
 * populate steps complete at miniature scale under every system
 * preset, simulations are bit-for-bit deterministic, and a figure's
 * exec::Jobs run exactly its JobSpecs.
 */

#include <gtest/gtest.h>

#include "harness/figures.hh"
#include "harness/job_spec.hh"

namespace uhtm
{
namespace
{

PmdkParams
miniParams(IndexKind kind)
{
    PmdkParams p;
    p.kind = kind;
    p.placement = MemKind::Nvm;
    p.footprintBytes = KiB(8);
    p.valueBytes = KiB(1);
    p.txPerWorker = 2;
    p.keyspace = 1 << 14;
    p.prefillKeys = 1 << 10;
    p.seed = 9;
    return p;
}

/** @p benches consolidated with @p hogs hogs of @p hog_bytes, 4 workers
 *  per benchmark, as the figures' consolidated jobs build them. */
JobSpec
consolidated(MachineConfig machine, HtmPolicy policy,
             std::vector<PmdkParams> benches, unsigned hogs,
             std::uint64_t hog_bytes)
{
    return {"consolidated", {}, machine, policy,
            [=](Runner &r, std::uint64_t) {
                populatePmdk(r, benches, 4);
                populateHogs(r, hogs, hog_bytes, 96);
            }};
}

class AllSystems : public ::testing::TestWithParam<int>
{
  protected:
    HtmPolicy
    policy() const
    {
        switch (GetParam()) {
          case 0: return HtmPolicy::llcBounded();
          case 1: return HtmPolicy::signatureOnly(512);
          case 2: return HtmPolicy::uhtmSig(1024);
          case 3: return HtmPolicy::uhtmOpt(1024);
          default: return HtmPolicy::ideal();
        }
    }
};

TEST_P(AllSystems, ConsolidatedPmdkRunCompletes)
{
    MachineConfig machine;
    machine.cores = 10; // 2 benchmarks x 4 workers + 2 hogs
    std::vector<PmdkParams> benches = {miniParams(IndexKind::HashMap),
                                       miniParams(IndexKind::BTree)};
    const RunMetrics m =
        consolidated(machine, policy(), benches, 2, MiB(4)).run(1);
    // All assigned work commits under every system.
    EXPECT_EQ(m.committedOps, 2u * 4u * 2u * 8u);
    EXPECT_GT(m.simSeconds, 0.0);
    EXPECT_GE(m.htm.commits, 2u * 4u * 2u);
    EXPECT_EQ(m.domainOps.size(), 2u);
}

std::string
presetName(const ::testing::TestParamInfo<int> &info)
{
    static const char *names[] = {"Bounded", "SigOnly", "UhtmSig",
                                  "UhtmOpt", "Ideal"};
    return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(Presets, AllSystems, ::testing::Range(0, 5),
                         presetName);

TEST(Determinism, IdenticalSeedsGiveIdenticalRuns)
{
    auto once = [] {
        MachineConfig machine;
        machine.cores = 6;
        std::vector<PmdkParams> benches = {miniParams(IndexKind::RBTree)};
        return consolidated(machine, HtmPolicy::uhtmOpt(1024), benches,
                            2, MiB(2))
            .run(31);
    };
    const RunMetrics a = once();
    const RunMetrics b = once();
    EXPECT_EQ(a.endTick, b.endTick)
        << "simulation must be bit-for-bit reproducible";
    EXPECT_EQ(a.committedTxs, b.committedTxs);
    EXPECT_EQ(a.htm.totalAborts(), b.htm.totalAborts());
    EXPECT_EQ(a.htm.sigChecks, b.htm.sigChecks);
}

TEST(Determinism, DifferentSeedsDiverge)
{
    auto once = [](std::uint64_t seed) {
        MachineConfig machine;
        machine.cores = 4;
        auto p = miniParams(IndexKind::SkipList);
        p.seed = seed;
        return consolidated(machine, HtmPolicy::uhtmOpt(1024), {p}, 0,
                            MiB(48))
            .run(seed);
    };
    EXPECT_NE(once(1).endTick, once(2).endTick);
}

TEST(JobSpec, FigureJobsRunTheirSpecs)
{
    // The exec::Job derived from a figure's JobSpec carries its key and
    // config and runs the same simulation as the spec itself.
    const figures::Figure *fig = figures::find("fig7");
    ASSERT_NE(fig, nullptr);
    figures::FigureOpts opts;
    opts.tiny = true;
    const std::vector<JobSpec> specs = fig->specs(opts);
    const std::vector<exec::Job> jobs = fig->makeJobs(opts);
    ASSERT_EQ(specs.size(), jobs.size());
    ASSERT_FALSE(specs.empty());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(jobs[i].key, specs[i].key);
        EXPECT_EQ(jobs[i].config, specs[i].config);
    }
    const RunMetrics a = specs.front().run(5);
    const RunMetrics b = jobs.front().run(5);
    EXPECT_GT(a.committedTxs, 0u);
    EXPECT_EQ(a.endTick, b.endTick);
    EXPECT_EQ(a.committedTxs, b.committedTxs);
    EXPECT_EQ(a.htm.totalAborts(), b.htm.totalAborts());
}

} // namespace
} // namespace uhtm
