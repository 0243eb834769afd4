/**
 * @file
 * Batched lazy-NVM maintenance tests: the event-free durable-write
 * batch (see HtmSystem::enqueueDurableWrite / flushDurableWrites) is
 * the simulator's only durable-write path, with or without a fault
 * injector attached. It must apply writes in (due, append) order (last
 * write to a line wins), follow the crash rule that a write is durable
 * at crash tick T exactly when its completion tick is <= T, and not
 * let the final image, the stats or simulated time depend on how often
 * the image is observed or on whether crash points are being recorded.
 */

#include <gtest/gtest.h>

#include <vector>

#include "check/fault_injector.hh"
#include "htm/tx_context.hh"

namespace uhtm
{
namespace
{

struct Fixture
{
    EventQueue eq;
    HtmSystem sys{eq, MachineConfig::tiny(), HtmPolicy::uhtmOpt(2048)};
    DomainId dom = sys.createDomain("p0");

    /** Non-transactional NVM store: writes in place, queues the
     *  durable-image update for the access's completion tick, and —
     *  like any real run, where the issuing worker's continuation is
     *  an event at the completion tick — advances simulated time past
     *  it, so successive writes see a monotone clock. */
    void
    write(Addr a, std::uint64_t v)
    {
        const auto r = sys.issueAccess(0, dom, a, true, false, v);
        eq.scheduleAt(r.completeAt, [] {});
        eq.run();
    }
};

constexpr Addr kNvm = MemLayout::kNvmBase + 0x40000;

TEST(DurableBatch, LastWriteToALineWins)
{
    Fixture f;
    f.write(kNvm, 1);
    f.write(kNvm, 2);
    f.write(kNvm + 8, 7); // same line, different word
    f.write(kNvm, 3);
    // All queued updates are due once the run drained; application in
    // (due, append) order means the final values are the last ones.
    EXPECT_EQ(f.sys.durableNvm().read64(kNvm), 3u);
    EXPECT_EQ(f.sys.durableNvm().read64(kNvm + 8), 7u);
}

TEST(DurableBatch, MidRunObservationSeesOnlyDueWrites)
{
    Fixture f;
    // Keep the event queue non-empty so durableHorizon() stays at the
    // current tick (crash semantics) instead of "everything".
    bool fired = false;
    f.eq.scheduleAt(1'000'000'000, [&] { fired = true; });

    f.sys.issueAccess(0, f.dom, kNvm, true, false, 42);
    // The in-place write completed architecturally, but its durable
    // image update is due strictly after now — a power failure at this
    // instant must not see it.
    EXPECT_EQ(f.sys.setupRead64(kNvm), 42u);
    EXPECT_EQ(f.sys.durableNvm().read64(kNvm), 0u)
        << "durable image ran ahead of the NVM write's completion";

    f.eq.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(f.sys.durableNvm().read64(kNvm), 42u)
        << "drained run must apply every queued durable write";
}

TEST(DurableBatch, ObservationFrequencyDoesNotChangeTheOutcome)
{
    // Two identical runs; one polls the durable image after every
    // store, the other only at the end. Observation flushes the batch,
    // so this exercises flush boundaries landing at arbitrary points.
    Fixture often, once;
    std::vector<Addr> lines;
    for (int i = 0; i < 24; ++i)
        lines.push_back(kNvm + static_cast<Addr>(i % 6) * kLineBytes);

    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::uint64_t v = 100 + i;
        often.write(lines[i], v);
        once.write(lines[i], v);
        (void)often.sys.durableNvm();
    }

    for (Addr a : lines) {
        EXPECT_EQ(often.sys.durableNvm().read64(a),
                  once.sys.durableNvm().read64(a));
        EXPECT_EQ(once.sys.durableNvm().read64(a),
                  once.sys.setupRead64(a))
            << "drained durable image must match architectural state";
    }
    EXPECT_EQ(often.eq.now(), once.eq.now())
        << "observing the image must not perturb simulated time";
    EXPECT_EQ(often.sys.stats().commits, once.sys.stats().commits);
}

TEST(DurableBatch, LargeBatchesStayBoundedAndComplete)
{
    // Enough distinct lines to trip the opportunistic flush threshold
    // several times; every line's final value must still land.
    Fixture f;
    const int kLines = 5000;
    for (int i = 0; i < kLines; ++i)
        f.write(kNvm + static_cast<Addr>(i) * kLineBytes,
                static_cast<std::uint64_t>(i) + 1);
    for (int i = 0; i < kLines; i += 97)
        EXPECT_EQ(f.sys.durableNvm().read64(kNvm + static_cast<Addr>(i) *
                                                       kLineBytes),
                  static_cast<std::uint64_t>(i) + 1);
}

TEST(DurableBatch, FaultInjectorRunsTheSamePath)
{
    // Crash sweeps attach a FaultInjector, benchmarks do not; both must
    // drive one durable-write path. The same store sequence must give
    // the same durable image at every observation, and the same
    // simulated time, with and without the injector.
    Fixture plain, probed;
    FaultInjector fi(probed.eq);
    probed.sys.setFaultInjector(&fi);
    const auto sameImage = [&](const std::vector<Addr> &lines) {
        for (Addr a : lines) {
            ASSERT_EQ(plain.sys.durableNvm().read64(a),
                      probed.sys.durableNvm().read64(a))
                << "line " << a;
        }
        ASSERT_EQ(plain.eq.now(), probed.eq.now());
    };

    // Twice the LLC's lines: dirty LLC evictions write back to NVM and
    // complete after the store that caused them.
    const int kLines =
        static_cast<int>(2 * MachineConfig::tiny().llcBytes / kLineBytes);
    std::vector<Addr> lines;
    for (int i = 0; i < kLines; ++i) {
        lines.push_back(kNvm + static_cast<Addr>(i) * kLineBytes);
        plain.write(lines.back(), 1000 + i);
        probed.write(lines.back(), 1000 + i);
        if (i % 128 == 0)
            sameImage(lines);
    }

    // A committed transaction whose lines then leave the DRAM cache:
    // those write-backs are issued with no event left to run.
    constexpr int kTxLines = 8;
    for (Fixture *f : {&plain, &probed}) {
        TxContext ctx(f->sys, 0, f->dom, 1);
        auto driver = [&]() -> Task {
            co_await ctx.run([&](TxContext &c) -> CoTask<void> {
                for (int i = 0; i < kTxLines; ++i)
                    co_await c.write64(lines[i * 3], 0xbeef00u + i);
            });
        };
        Task t = driver();
        t.start();
        f->eq.run();
    }
    sameImage(lines);
    for (Fixture *f : {&plain, &probed}) {
        f->sys.dramCache().flushAll();
        f->eq.run();
    }
    sameImage(lines);
    for (int i = 0; i < kTxLines; ++i)
        EXPECT_EQ(probed.sys.durableNvm().read64(lines[i * 3]),
                  0xbeef00u + i);
    EXPECT_EQ(plain.sys.stats().commits, probed.sys.stats().commits);
    EXPECT_GT(fi.countOf(PersistPoint::InPlaceNvmWrite),
              static_cast<std::uint64_t>(kLines))
        << "the injector must see every in-place write";
    probed.sys.setFaultInjector(nullptr);
}

TEST(DurableBatch, WriteCompletingAtTheCrashTickIsDurable)
{
    // Like a redo record with durableAt == T, an in-place NVM write
    // whose completion tick equals the crash tick T is durable; a
    // later one is lost. Event-queue order at T must not matter.
    Tick due = 0;
    {
        // Replay a crash at the first point, the write itself.
        Fixture f;
        FaultInjector fi(f.eq);
        f.sys.setFaultInjector(&fi);
        fi.armCrashAt(0);
        f.sys.issueAccess(0, f.dom, kNvm, true, false, 42);
        f.sys.issueAccess(0, f.dom, kNvm + kLineBytes, true, false, 43);
        f.eq.run();
        ASSERT_TRUE(fi.crashed());
        ASSERT_EQ(fi.events().at(0).point, PersistPoint::InPlaceNvmWrite);
        due = fi.events()[0].completeAt;
        ASSERT_GT(fi.events().at(1).completeAt, due);
        EXPECT_EQ(fi.crashTick(), due);
        EXPECT_EQ(f.sys.durableNvm().read64(kNvm), 42u);
        EXPECT_EQ(f.sys.durableNvm().read64(kNvm + kLineBytes), 0u)
            << "a write completing after the crash must be lost";
        EXPECT_EQ(f.sys.recoverAfterCrash().read64(kNvm), 42u);
        f.sys.setFaultInjector(nullptr);
    }
    {
        // Same write, but the power failure at T is queued before it is
        // issued, so the crash runs first among the events at T.
        Fixture f;
        FaultInjector fi(f.eq);
        f.sys.setFaultInjector(&fi);
        f.eq.scheduleAt(due, [&] { f.eq.requestStop(); });
        f.sys.issueAccess(0, f.dom, kNvm, true, false, 42);
        ASSERT_EQ(fi.events().at(0).completeAt, due);
        f.eq.run();
        ASSERT_EQ(f.eq.now(), due);
        EXPECT_EQ(f.sys.durableNvm().read64(kNvm), 42u)
            << "durability must not depend on same-tick event order";
        EXPECT_EQ(f.sys.recoverAfterCrash().read64(kNvm), 42u);
        f.sys.setFaultInjector(nullptr);
    }
}

} // namespace
} // namespace uhtm
