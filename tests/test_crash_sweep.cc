/**
 * @file
 * Crash-point sweep tests: exhaustive enumeration of the machine's
 * persistence-ordering points on the hybrid KV and B+tree workloads
 * and on every tiny fig7/fig9/policies figure job, with the
 * CrashOracle's durability / atomicity / rollback invariants checked
 * at every point; a deliberately broken commit-mark ordering must be
 * caught and shrink to a replayable crash point; replays are
 * deterministic. The oracle's rollback check is also driven directly.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "check/crash_oracle.hh"
#include "exec/scheduler.hh"
#include "harness/crash_sweep.hh"
#include "harness/figures.hh"

namespace uhtm
{
namespace
{

std::string
describe(const CrashSweepResult &res, std::size_t limit = 5)
{
    std::string s;
    std::size_t n = 0;
    for (const auto &v : res.violations) {
        if (n++ >= limit) {
            s += "  ...\n";
            break;
        }
        s += "  point=" + std::to_string(v.pointIndex) + " " + v.kind +
             ": " + v.detail + "\n";
    }
    return s;
}

TEST(CrashSweep, KvHybridEveryPointSatisfiesOracles)
{
    CrashSweepConfig cfg;
    CrashSweepRunner runner(cfg, CrashSweepRunner::kvHybridJob());
    const CrashSweepResult res = runner.sweep();

    // Acceptance: the schedule is dense (>= 200 distinct points) and
    // covers the interesting kinds.
    EXPECT_GE(res.points, 200u);
    EXPECT_GT(res.linesTracked, 0u);
    using P = PersistPoint;
    EXPECT_GT(res.pointsByKind[static_cast<std::size_t>(P::RedoLogAppend)],
              0u);
    EXPECT_GT(res.pointsByKind[static_cast<std::size_t>(P::CommitMark)],
              0u);
    EXPECT_GT(
        res.pointsByKind[static_cast<std::size_t>(P::InPlaceNvmWrite)],
        0u);

    EXPECT_TRUE(res.passed()) << res.violations.size()
                              << " violations:\n" << describe(res);
}

TEST(CrashSweep, KvHybridUnderCachePressure)
{
    // Shrink the LLC and DRAM cache so transactional lines overflow:
    // exercises undo logging, early eviction and uncommitted drops.
    JobSpec spec = CrashSweepRunner::kvHybridJob();
    spec.machine.llcBytes = KiB(16);
    spec.machine.dramCacheBytes = KiB(16);
    CrashSweepConfig cfg;
    cfg.seed = 3;
    CrashSweepRunner runner(cfg, spec);
    const CrashSweepResult res = runner.sweep();

    EXPECT_GE(res.points, 200u);
    EXPECT_TRUE(res.passed()) << describe(res);
}

TEST(CrashSweep, BTreeEveryPointSatisfiesOracles)
{
    CrashSweepConfig cfg;
    cfg.seed = 2;
    CrashSweepRunner runner(cfg, CrashSweepRunner::btreeJob());
    const CrashSweepResult res = runner.sweep();

    EXPECT_GE(res.points, 200u);
    EXPECT_GT(res.linesTracked, 0u);
    EXPECT_TRUE(res.passed()) << describe(res);
}

TEST(CrashSweep, ReplayIsDeterministic)
{
    CrashSweepConfig cfg;
    CrashSweepRunner runner(cfg, CrashSweepRunner::kvHybridJob());
    const CrashSweepResult swept = runner.sweep();
    ASSERT_GT(swept.points, 200u);

    // Replaying the same crash point twice freezes the machine at the
    // same tick with the same schedule prefix and the same verdict.
    const std::uint64_t k = swept.points / 2;
    const CrashSweepResult a = runner.replay(k);
    const CrashSweepResult b = runner.replay(k);
    EXPECT_GT(a.crashTick, 0u);
    EXPECT_EQ(a.crashTick, b.crashTick);
    EXPECT_EQ(a.points, b.points);
    EXPECT_EQ(a.violations.size(), b.violations.size());
    EXPECT_TRUE(a.passed()) << describe(a);

    // The replayed prefix matches the sweep's schedule tick-for-tick.
    EXPECT_LE(a.points, swept.points);
}

TEST(CrashSweep, ReplayEveryEarlyPointPasses)
{
    // Real-crash spot checks (full machine freeze + full-image oracle)
    // across the schedule, not just the sweep's in-run checks.
    CrashSweepConfig cfg;
    CrashSweepRunner runner(cfg, CrashSweepRunner::kvHybridJob());
    const CrashSweepResult swept = runner.sweep();
    ASSERT_TRUE(swept.passed()) << describe(swept);

    for (std::uint64_t k = 1; k < swept.points; k = k * 2 + 7) {
        const CrashSweepResult rep = runner.replay(k);
        EXPECT_TRUE(rep.passed())
            << "crash at point " << k << ":\n" << describe(rep);
    }
}

TEST(CrashSweep, BrokenCommitMarkOrderingIsCaught)
{
    // The guarded test-only toggle issues the commit mark without
    // waiting for the redo log to drain; a crash inside the resulting
    // window finds a durable commit record with torn member records.
    CrashSweepConfig cfg;
    cfg.breakCommitMarkOrdering = true;
    CrashSweepRunner runner(cfg, CrashSweepRunner::kvHybridJob());
    const CrashSweepResult res = runner.sweep();

    ASSERT_FALSE(res.passed())
        << "the oracle must detect broken commit-mark ordering";
    bool durability = false;
    for (const auto &v : res.violations)
        durability |= std::string(v.kind) == "durability";
    EXPECT_TRUE(durability)
        << "torn-log windows are durability violations:\n"
        << describe(res);

    // Shrink to a minimal reproducing schedule and confirm by replay.
    const std::uint64_t k = runner.shrink(res);
    ASSERT_NE(k, CrashOracle::kNoPoint);
    EXPECT_EQ(k, res.minFailingPoint())
        << "the smallest flagged point must reproduce under replay";
    const CrashSweepResult rep = runner.replay(k);
    EXPECT_FALSE(rep.passed());

    // The same schedule with the toggle off is clean.
    cfg.breakCommitMarkOrdering = false;
    CrashSweepRunner fixed(cfg, CrashSweepRunner::kvHybridJob());
    EXPECT_TRUE(fixed.sweep().passed());
}

TEST(CrashSweep, SweepTracksTornEntriesOnlyWhenBroken)
{
    // Indirect probe of the replay semantics: a correct run never
    // produces torn records (commit marks wait for the log to drain).
    CrashSweepConfig cfg;
    CrashSweepRunner good(cfg, CrashSweepRunner::kvHybridJob());
    const CrashSweepResult res = good.sweep();
    EXPECT_TRUE(res.passed()) << describe(res);

    cfg.breakCommitMarkOrdering = true;
    CrashSweepRunner bad(cfg, CrashSweepRunner::kvHybridJob());
    EXPECT_FALSE(bad.sweep().passed());
}

/** Sweep every tiny job of figure @p name with its sweep-derived seed. */
void
sweepTinyFigure(const char *name)
{
    const figures::Figure *fig = figures::find(name);
    ASSERT_NE(fig, nullptr);
    figures::FigureOpts opts;
    opts.tiny = true;
    const std::vector<JobSpec> specs = fig->specs(opts);
    ASSERT_FALSE(specs.empty());
    for (const JobSpec &spec : specs) {
        CrashSweepConfig cfg;
        cfg.seed = exec::SweepScheduler::jobSeed(opts.seed, spec.key);
        const CrashSweepResult res = CrashSweepRunner(cfg, spec).sweep();
        EXPECT_GE(res.points, 200u) << name << " " << spec.key;
        EXPECT_GT(res.linesTracked, 0u) << name << " " << spec.key;
        EXPECT_TRUE(res.passed())
            << name << " " << spec.key << ": " << res.violations.size()
            << " violations:\n" << describe(res);
    }
}

TEST(CrashSweep, EveryTinyFig7JobSatisfiesOracles)
{
    sweepTinyFigure("fig7");
}

TEST(CrashSweep, EveryTinyFig9JobSatisfiesOracles)
{
    sweepTinyFigure("fig9");
}

// The contention mix writes v + 1 to a shared line, so an aborted
// victim's speculative line can equal its killer's committed line.
TEST(CrashSweep, EveryTinyPoliciesJobSatisfiesOracles)
{
    sweepTinyFigure("policies");
}

/**
 * Oracle rollback violations after tx 7 aborts having speculatively
 * written @p spec over @p pre, while the architectural store holds
 * @p spec. With @p killer_bytes, tx 6 first committed those bytes.
 */
std::vector<CrashOracle::Violation>
rollbackAfterAbort(std::uint64_t pre, std::uint64_t spec,
                   std::optional<std::uint64_t> killer_bytes)
{
    EventQueue eq;
    HtmSystem sys(eq, MachineConfig::tiny(), HtmPolicy::uhtmOpt(2048));
    CrashOracle oracle(sys);
    const Addr line = MemLayout::kNvmBase;
    const auto image = [](std::uint64_t v) {
        std::array<std::uint8_t, kLineBytes> b;
        for (unsigned i = 0; i < kLineBytes; i += 8)
            std::memcpy(b.data() + i, &v, 8);
        return b;
    };
    if (killer_bytes) {
        FaultInjector::CommittedTx killer;
        killer.tx = 6;
        killer.nvmLines.push_back({line, image(*killer_bytes)});
        oracle.onTxCommitted(killer);
    }
    sys.setupWriteLine(line, spec);
    FaultInjector::AbortedTx victim;
    victim.tx = 7;
    victim.lines.push_back({line, image(pre), image(spec)});
    oracle.onTxAborted(victim);
    return oracle.violations();
}

TEST(CrashOracle, AbortedBytesInTheStoreAreALeak)
{
    for (const auto killer : {std::optional<std::uint64_t>{},
                              std::optional<std::uint64_t>{3}}) {
        const auto v = rollbackAfterAbort(1, 2, killer);
        ASSERT_EQ(v.size(), 1u);
        EXPECT_STREQ(v[0].kind, "rollback");
        EXPECT_EQ(v[0].detail,
                  "aborted tx bytes visible in the architectural store");
    }
}

TEST(CrashOracle, AbortedBytesAnotherTxCommittedAreNoLeak)
{
    // Victim and killer both read 1 and wrote 2; the killer committed.
    EXPECT_TRUE(rollbackAfterAbort(1, 2, 2).empty());
}

/**
 * Run the built crash_sweep CLI with @p args (shell syntax, so the
 * caller picks where stderr goes); stdout lands in @p out.
 * @return the exit status, -1 if it did not exit normally.
 */
int
runTool(const std::string &args, std::string *out)
{
    const std::string cmd =
        std::string(UHTM_TOOLS_DIR) + "/crash_sweep " + args;
    FILE *p = popen(cmd.c_str(), "r");
    if (!p)
        return -1;
    out->clear();
    char buf[256];
    while (std::fgets(buf, sizeof(buf), p))
        *out += buf;
    const int rc = pclose(p);
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(CrashSweepTool, ExitsTwoOnMalformedNumber)
{
    // Stdout is captured so an accepted value can be checked to replay
    // exactly the point it names.
    const auto run = [](const std::string &args, std::string *out) {
        return runTool(args + " 2>/dev/null", out);
    };
    std::string out;
    for (const char *bad :
         {"--crash-at=", "--crash-at=abc", "--crash-at=12junk",
          "--crash-at=-1", "--crash-at=0x10", "--seed=", "--stride=+3",
          "--crash-at=18446744073709551616"}) {
        EXPECT_EQ(run(bad, &out), 2) << bad;
        EXPECT_EQ(out, "") << bad << ": nothing may run";
    }
    EXPECT_EQ(run("--workload=btree --crash-at=12", &out), 0);
    EXPECT_NE(out.find("replay btree crash-at=12: "), std::string::npos)
        << out;
}

TEST(CrashSweepTool, ReplayPastTheScheduleExitsTwo)
{
    const CrashSweepResult swept =
        CrashSweepRunner({}, CrashSweepRunner::btreeJob()).sweep();
    ASSERT_GT(swept.points, 0u);
    ASSERT_LT(swept.points, 1000u);
    const std::string points = std::to_string(swept.points);
    std::string out;

    // No crash point K: nothing crashed, so no verdict may be printed.
    // The largest 64-bit K must not be mistaken for "no --crash-at".
    for (const std::string &k : {std::string("1000"), points,
                                 std::string("18446744073709551615")}) {
        EXPECT_EQ(runTool("--workload=btree --crash-at=" + k + " 2>&1",
                          &out),
                  2)
            << k;
        EXPECT_EQ(out, "no crash point " + k + ": schedule has " +
                           points + " points\n");
    }

    // The last point is still in the schedule and really crashes.
    const std::string last = std::to_string(swept.points - 1);
    EXPECT_EQ(runTool("--workload=btree --crash-at=" + last, &out), 0);
    const std::size_t at = out.find("crash tick ");
    ASSERT_NE(at, std::string::npos) << out;
    EXPECT_GT(std::stoull(out.substr(at + 11)), 0u) << out;
}

} // namespace
} // namespace uhtm
