/**
 * @file
 * Transactional allocator and SPSC ring tests, including the key
 * allocator property: allocations made inside an aborted transaction
 * roll back with it.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "workloads/ring.hh"
#include "workloads/tx_alloc.hh"

namespace uhtm
{
namespace
{

struct Fixture
{
    EventQueue eq;
    HtmSystem sys{eq, MachineConfig::tiny(), HtmPolicy::uhtmOpt(2048)};
    RegionAllocator regions;
    DomainId dom = sys.createDomain("p0");
};

TEST(RegionAllocator, DisjointPageAlignedRanges)
{
    RegionAllocator regions;
    const Addr a = regions.reserve(MemKind::Dram, 100);
    const Addr b = regions.reserve(MemKind::Dram, 100);
    EXPECT_EQ(a % 4096, 0u);
    EXPECT_GE(b, a + 100);
    const Addr n = regions.reserve(MemKind::Nvm, 100);
    EXPECT_EQ(MemLayout::kindOf(n), MemKind::Nvm);
    EXPECT_EQ(MemLayout::kindOf(a), MemKind::Dram);
}

TEST(RegionAllocator, ExhaustedRegionsThrow)
{
    // Both regions start 1 MiB in; the log areas above them are never
    // handed out, in release builds too.
    for (MemKind kind : {MemKind::Dram, MemKind::Nvm}) {
        SCOPED_TRACE(memKindName(kind));
        const std::uint64_t size = kind == MemKind::Dram
                                       ? MemLayout::kDramSize
                                       : MemLayout::kNvmSize;
        RegionAllocator regions;
        EXPECT_THROW(regions.reserve(kind, size), std::length_error);
        EXPECT_THROW(regions.reserve(kind, ~std::uint64_t(0)),
                     std::length_error);
        // A refused request reserves nothing.
        const Addr base = regions.reserve(kind, size - MiB(1) - 4096);
        EXPECT_EQ(regions.reservedBytes(kind), size - MiB(1) - 4096);
        const Addr last = regions.reserve(kind, 4096);
        EXPECT_EQ(last, base + size - MiB(1) - 4096);
        EXPECT_FALSE(MemLayout::isLogArea(last + 4095));
        EXPECT_THROW(regions.reserve(kind, 1), std::length_error);
        try {
            regions.reserve(kind, 1);
        } catch (const std::length_error &e) {
            EXPECT_NE(std::string(e.what()).find(memKindName(kind)),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(TxAllocator, LineAlignedBumpAllocation)
{
    Fixture f;
    TxAllocator alloc(f.sys, f.regions, MemKind::Dram, MiB(1));
    const Addr a = alloc.allocSetup(f.sys, 10);
    const Addr b = alloc.allocSetup(f.sys, 70);
    const Addr c = alloc.allocSetup(f.sys, 64);
    EXPECT_EQ(a % kLineBytes, 0u);
    EXPECT_EQ(b, a + kLineBytes) << "10B rounds to one line";
    EXPECT_EQ(c, b + 2 * kLineBytes) << "70B rounds to two lines";
    EXPECT_EQ(alloc.bytesUsed(f.sys), 4 * kLineBytes);
}

TEST(TxAllocator, AbortedTransactionRollsBackAllocations)
{
    Fixture f;
    TxAllocator alloc(f.sys, f.regions, MemKind::Dram, MiB(1));

    bool done = false;
    Addr first_attempt = 0, second_attempt = 0;
    TxContext ctx(f.sys, 0, f.dom, 3);
    auto root = [](TxContext &c, TxAllocator &al, HtmSystem &sys,
                   Addr &first, Addr &second, bool &flag) -> Task {
        int attempt = 0;
        co_await c.run([&](TxContext &t) -> CoTask<void> {
            const Addr a = co_await al.alloc(t, 128);
            if (attempt++ == 0) {
                first = a;
                // Doom ourselves: the retry must get the same address
                // back because the bump-pointer write rolled back.
                sys.currentTx(t.core())->abortRequested = true;
                sys.currentTx(t.core())->abortCause =
                    AbortCause::Explicit;
                co_await t.read64(a); // awaiter notices and throws
            } else {
                second = a;
            }
        });
        flag = true;
    }(ctx, alloc, f.sys, first_attempt, second_attempt, done);
    root.start();
    f.eq.run();

    ASSERT_TRUE(done);
    EXPECT_NE(first_attempt, 0u);
    EXPECT_EQ(first_attempt, second_attempt)
        << "aborted allocation must be reclaimed by rollback";
    EXPECT_EQ(f.sys.stats().abortsOf(AbortCause::Explicit), 1u);
}

TEST(SimRing, PushPopWrapAround)
{
    Fixture f;
    SimRing ring(f.sys, f.regions, 4);
    TxContext ctx(f.sys, 0, f.dom);

    bool done = false;
    auto root = [](TxContext &c, SimRing &r, HtmSystem &sys,
                   bool &flag) -> Task {
        for (std::uint64_t round = 0; round < 3; ++round) {
            // Fill to capacity.
            for (std::uint64_t i = 0; i < 4; ++i) {
                EXPECT_TRUE(co_await r.canPush(c));
                co_await r.push(c, round * 10 + i, i);
            }
            EXPECT_FALSE(co_await r.canPush(c));
            EXPECT_EQ(r.sizeFunctional(sys), 4u);
            // Drain in order.
            for (std::uint64_t i = 0; i < 4; ++i) {
                EXPECT_TRUE(co_await r.canPop(c));
                const auto [k, v] = co_await r.pop(c);
                EXPECT_EQ(k, round * 10 + i);
                EXPECT_EQ(v, i);
            }
            EXPECT_FALSE(co_await r.canPop(c));
        }
        flag = true;
    }(ctx, ring, f.sys, done);
    root.start();
    f.eq.run();
    ASSERT_TRUE(done);
}

} // namespace
} // namespace uhtm
