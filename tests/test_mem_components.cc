/**
 * @file
 * Unit tests for the passive memory components: backing store, memory
 * controller, cache tag array and DRAM cache, including the sparse set
 * store under both caches (checked against dense reference models),
 * the backing store's page memo and the survivor-only LLC pre-warm
 * (each checked against the simple version it replaces).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <random>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "check/fault_injector.hh"
#include "htm/htm_system.hh"
#include "htm/tx_context.hh"
#include "mem/backing_store.hh"
#include "mem/cache.hh"
#include "mem/dram_cache.hh"
#include "mem/mem_ctrl.hh"

namespace uhtm
{
namespace
{

TEST(BackingStore, ZeroFilledByDefault)
{
    BackingStore store;
    EXPECT_EQ(store.read64(0x1234560), 0u);
    EXPECT_EQ(store.pageCount(), 0u) << "reads must not materialise pages";
}

TEST(BackingStore, ReadBackWhatWasWritten)
{
    BackingStore store;
    store.write64(0x1000, 0xdeadbeefcafef00d);
    EXPECT_EQ(store.read64(0x1000), 0xdeadbeefcafef00d);
    EXPECT_EQ(store.pageCount(), 1u);
}

TEST(BackingStore, CrossPageAccess)
{
    BackingStore store;
    const Addr a = 4096 - 4; // straddles a page boundary
    const std::uint64_t v = 0x1122334455667788;
    store.write(a, &v, 8);
    std::uint64_t out = 0;
    store.read(a, &out, 8);
    EXPECT_EQ(out, v);
    EXPECT_EQ(store.pageCount(), 2u);
}

TEST(BackingStore, LineReadWrite)
{
    BackingStore store;
    std::uint8_t in[kLineBytes], out[kLineBytes];
    for (unsigned i = 0; i < kLineBytes; ++i)
        in[i] = static_cast<std::uint8_t>(i * 3);
    store.writeLine(0x4000, in);
    store.readLine(0x4000, out);
    EXPECT_EQ(std::memcmp(in, out, kLineBytes), 0);
}

TEST(BackingStore, CopyFromSnapshotsDeeply)
{
    BackingStore a;
    a.write64(0x100, 7);
    BackingStore b;
    b.copyFrom(a);
    a.write64(0x100, 9);
    EXPECT_EQ(b.read64(0x100), 7u) << "snapshot must not alias";
}

/** Byte-level reference image: unwritten bytes read 0. */
struct RefImage
{
    std::map<Addr, std::uint8_t> bytes;

    void
    write(Addr a, const void *in, std::size_t len)
    {
        const auto *p = static_cast<const std::uint8_t *>(in);
        for (std::size_t i = 0; i < len; ++i)
            bytes[a + i] = p[i];
    }

    std::uint64_t
    read64(Addr a) const
    {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < 8; ++i) {
            auto it = bytes.find(a + i);
            v |= std::uint64_t(it == bytes.end() ? 0 : it->second) << (8 * i);
        }
        return v;
    }
};

/** Every reference byte, plus an unwritten neighbour, reads back. */
void
expectImage(const BackingStore &store, const RefImage &ref)
{
    for (const auto &[a, b] : ref.bytes) {
        std::uint8_t got = 0xff;
        store.read(a, &got, 1);
        ASSERT_EQ(got, b) << std::hex << a;
        if ((a & 7) == 0) {
            ASSERT_EQ(store.read64(a), ref.read64(a)) << std::hex << a;
        }
    }
}

TEST(BackingStore, PageMemoMatchesReferenceImage)
{
    // 64 page numbers per memo slot residue class, 4096 pages in all:
    // far more pages than memo slots, and many that share a slot.
    constexpr std::uint64_t kPages = 4096;
    std::mt19937_64 rng(0xbacc);
    auto randomAddr = [&] {
        const std::uint64_t page = rng() % 2 ? (rng() % 64) * 512 + rng() % 8
                                             : rng() % kPages;
        return MemLayout::kNvmBase + page * BackingStore::kPageBytes +
               rng() % BackingStore::kPageBytes;
    };

    BackingStore store;
    RefImage ref;
    for (int step = 0; step < 20000; ++step) {
        SCOPED_TRACE(step);
        const Addr a = randomAddr();
        const std::uint64_t v = rng();
        switch (rng() % 5) {
        case 0: // aligned or page-straddling word write
            store.write64(a, v);
            ref.write(a, &v, 8);
            break;
        case 1: { // line write
            const Addr line = lineAlign(a);
            std::uint8_t buf[kLineBytes];
            for (unsigned i = 0; i < kLineBytes; ++i)
                buf[i] = static_cast<std::uint8_t>(v >> (i % 8));
            store.writeLine(line, buf);
            ref.write(line, buf, kLineBytes);
            break;
        }
        case 2:
            ASSERT_EQ(store.read64(a & ~Addr(7)), ref.read64(a & ~Addr(7)));
            break;
        case 3:
            ASSERT_EQ(store.read64(a), ref.read64(a));
            break;
        default: {
            const Addr line = lineAlign(a);
            std::uint8_t buf[kLineBytes];
            store.readLine(line, buf);
            for (unsigned i = 0; i < kLineBytes; i += 8) {
                std::uint64_t w;
                std::memcpy(&w, buf + i, 8);
                ASSERT_EQ(w, ref.read64(line + i));
            }
            break;
        }
        }
    }
    EXPECT_GT(store.pageCount(), 512u);
    expectImage(store, ref);

    // A moved-to store serves the same image; writes through it land
    // in its own pages, not in a stale memo entry of the source.
    BackingStore moved(std::move(store));
    expectImage(moved, ref);
    for (int i = 0; i < 2000; ++i) {
        const Addr a = randomAddr() & ~Addr(7);
        const std::uint64_t v = rng();
        moved.write64(a, v);
        ref.write(a, &v, 8);
    }
    expectImage(moved, ref);
    BackingStore assigned;
    assigned.write64(randomAddr() & ~Addr(7), 1); // warm its memo
    assigned = std::move(moved);
    expectImage(assigned, ref);

    // copyFrom replaces the whole image, memo included; the copy and
    // the source diverge independently afterwards.
    BackingStore copy;
    for (int i = 0; i < 600; ++i)
        copy.write64(randomAddr() & ~Addr(7), ~std::uint64_t(0));
    copy.copyFrom(assigned);
    expectImage(copy, ref);
    RefImage copy_ref = ref;
    for (int i = 0; i < 2000; ++i) {
        const Addr a = randomAddr() & ~Addr(7);
        const std::uint64_t v = rng();
        copy.write64(a, v);
        copy_ref.write(a, &v, 8);
    }
    expectImage(copy, copy_ref);
    expectImage(assigned, ref);

    copy.clear();
    EXPECT_EQ(copy.pageCount(), 0u);
    for (const auto &[a, b] : copy_ref.bytes) {
        std::uint8_t got = 0xff;
        copy.read(a, &got, 1);
        ASSERT_EQ(got, 0u) << std::hex << a;
    }
}

TEST(MemCtrl, LatencyAndOccupancy)
{
    MemCtrl ctrl("t", ticksFromNs(82), ticksFromNs(82), ticksFromNs(4));
    const Tick t1 = ctrl.access(0, false);
    EXPECT_EQ(t1, ticksFromNs(82));
    // Second request issued at the same instant waits for the slot.
    const Tick t2 = ctrl.access(0, false);
    EXPECT_EQ(t2, ticksFromNs(4) + ticksFromNs(82));
    EXPECT_EQ(ctrl.stats().reads, 2u);
    EXPECT_GT(ctrl.stats().queueDelay, 0u);
}

TEST(MemCtrl, ReadWriteLatenciesDiffer)
{
    // NVM: read 175ns, write 94ns (ADR queue accept).
    MemCtrl ctrl("nvm", ticksFromNs(175), ticksFromNs(94),
                 ticksFromNs(8));
    EXPECT_EQ(ctrl.access(0, false), ticksFromNs(175));
    ctrl.reset();
    EXPECT_EQ(ctrl.access(0, true), ticksFromNs(94));
    EXPECT_EQ(ctrl.stats().writes, 1u);
}

TEST(MemCtrl, LogTrafficCountedSeparately)
{
    MemCtrl ctrl("t", 10, 10, 1);
    ctrl.access(0, true, true);
    ctrl.access(0, true, false);
    EXPECT_EQ(ctrl.stats().writes, 2u);
    EXPECT_EQ(ctrl.stats().logWrites, 1u);
}

TEST(Cache, HitAfterFill)
{
    Cache cache("t", KiB(4), 4);
    CacheLine evicted;
    bool had = false;
    cache.allocate(0x1000, evicted, had);
    EXPECT_FALSE(had);
    EXPECT_NE(cache.lookup(0x1000), nullptr);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.lookup(0x2000), nullptr);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, LruVictimSelection)
{
    // Direct-mapped-ish: 2 ways, small cache; same-set addresses.
    Cache cache("t", 2 * kLineBytes, 2);
    ASSERT_EQ(cache.numSets(), 1u);
    CacheLine ev;
    bool had;
    cache.allocate(0x0, ev, had);
    cache.allocate(0x40, ev, had);
    // Touch 0x0 so 0x40 becomes LRU.
    cache.lookup(0x0);
    cache.allocate(0x80, ev, had);
    ASSERT_TRUE(had);
    EXPECT_EQ(ev.tag, 0x40u);
    EXPECT_NE(cache.peek(0x0), nullptr);
    EXPECT_EQ(cache.peek(0x40), nullptr);
}

TEST(Cache, TxAwareReplacementPrefersNonTxVictims)
{
    Cache cache("t", 2 * kLineBytes, 2, true);
    CacheLine ev;
    bool had;
    CacheLine *a = cache.allocate(0x0, ev, had);
    a->txWriter = 42; // transactional
    cache.allocate(0x40, ev, had);
    cache.lookup(0x0); // 0x40 is LRU, but it is non-tx anyway
    // Touch order makes 0x40 MRU now; the tx line is LRU but protected.
    cache.lookup(0x40);
    cache.allocate(0x80, ev, had);
    ASSERT_TRUE(had);
    EXPECT_EQ(ev.tag, 0x40u) << "non-transactional victim preferred";
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache cache("t", KiB(4), 4);
    CacheLine ev;
    bool had;
    cache.allocate(0x1000, ev, had);
    cache.invalidate(0x1000);
    EXPECT_EQ(cache.peek(0x1000), nullptr);
}

TEST(Cache, TxReaderListOperations)
{
    CacheLine line;
    line.addTxReader(1);
    line.addTxReader(2);
    line.addTxReader(1); // idempotent
    EXPECT_EQ(line.txReaders.size(), 2u);
    EXPECT_TRUE(line.hasTxReader(1));
    line.removeTxReader(1);
    EXPECT_FALSE(line.hasTxReader(1));
    EXPECT_TRUE(line.txBit());
    line.clearTxMeta();
    EXPECT_FALSE(line.txBit());
}

TEST(DramCache, InsertLookupCommitFlow)
{
    DramCache dc(KiB(64), 4);
    Addr written_line = 0;
    std::array<std::uint8_t, kLineBytes> written{};
    // Named local: setWriteBack takes a non-owning FunctionRef.
    auto record_wb = [&](Addr line,
                         const std::array<std::uint8_t, kLineBytes> &d) {
        written_line = line;
        written = d;
    };
    dc.setWriteBack(record_wb);

    const Addr line = 0x400000000000ull;
    DramCacheEntry *e = dc.insert(line, /*tx=*/5);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->tx, 5u);

    std::array<std::uint8_t, kLineBytes> data{};
    data[0] = 0xaa;
    EXPECT_TRUE(dc.commitEntry(line, 5, data));
    EXPECT_NE(dc.lookup(line), nullptr);

    dc.flushAll();
    EXPECT_EQ(written_line, line);
    EXPECT_EQ(written[0], 0xaa);
}

TEST(DramCache, AbortInvalidatesUncommitted)
{
    DramCache dc(KiB(64), 4);
    const Addr line = 0x400000000000ull;
    dc.insert(line, 7);
    dc.abortTx(7);
    EXPECT_EQ(dc.lookup(line), nullptr)
        << "invalidated entries must not hit";
    EXPECT_EQ(dc.stats().invalidations, 1u);
    // Committing after the abort must fail.
    std::array<std::uint8_t, kLineBytes> data{};
    EXPECT_FALSE(dc.commitEntry(line, 7, data));
}

TEST(DramCache, EvictionWritesBackOnlyCommittedDirty)
{
    DramCache dc(4 * kLineBytes, 2); // 2 sets x 2 ways
    int writebacks = 0;
    auto count_wb = [&](Addr, const std::array<std::uint8_t, kLineBytes> &) {
        ++writebacks;
    };
    dc.setWriteBack(count_wb);
    // Fill one set (stride = numSets * 64).
    const Addr base = 0x400000000000ull;
    const Addr stride = 2 * kLineBytes;
    std::array<std::uint8_t, kLineBytes> data{};
    dc.insert(base, 1);
    dc.commitEntry(base, 1, data);
    dc.insert(base + stride, 2); // uncommitted
    // Overflowing the set evicts the LRU committed-dirty entry with a
    // write-back; the uncommitted entry is protected while any other
    // victim exists.
    dc.insert(base + 2 * stride, kNoTx);
    EXPECT_EQ(writebacks, 1) << "committed dirty entry written back";
    EXPECT_EQ(dc.stats().uncommittedDrops, 0u);
    EXPECT_NE(dc.peek(base + stride), nullptr);

    // Force the drop: make every way uncommitted, then overflow.
    dc.insert(base + 3 * stride, 3); // evicts the clean kNoTx entry
    dc.insert(base + 4 * stride, 4); // both ways uncommitted -> drop
    EXPECT_EQ(dc.stats().uncommittedDrops, 1u)
        << "a set full of uncommitted entries must still make room";
    EXPECT_EQ(writebacks, 1) << "dropped entries write nothing in place";
}

/** Probe recording every persistence-ordering notification. */
struct RecordingProbe : PersistProbe
{
    struct Rec
    {
        PersistPoint point;
        Addr line;
        bool hadBytes;
        std::uint8_t firstByte;
    };
    std::vector<Rec> recs;

    void
    notifyPersist(PersistPoint point, Addr line, Tick,
                  const std::uint8_t *bytes) override
    {
        recs.push_back({point, line, bytes != nullptr,
                        bytes ? bytes[0] : std::uint8_t{0}});
    }

    std::size_t
    countOf(PersistPoint p) const
    {
        std::size_t n = 0;
        for (const auto &r : recs)
            n += r.point == p;
        return n;
    }
};

TEST(DramCache, EvictingDirtyTxLineMidTransactionDropsWithNotify)
{
    // A set full of *uncommitted* transactional entries forced to make
    // room must drop an entry (its bytes stay recoverable from the redo
    // log) and announce the drop to the probe -- with no bytes and no
    // in-place write-back, which would leak speculative data to NVM.
    DramCache dc(4 * kLineBytes, 2); // 2 sets x 2 ways
    RecordingProbe probe;
    dc.setProbe(&probe);
    int writebacks = 0;
    auto count_wb = [&](Addr, const std::array<std::uint8_t, kLineBytes> &) {
        ++writebacks;
    };
    dc.setWriteBack(count_wb);

    const Addr base = 0x400000000000ull;
    const Addr stride = 2 * kLineBytes; // same set
    dc.insert(base, 1);
    dc.insert(base + stride, 2);
    dc.insert(base + 2 * stride, 3); // overflow: must drop the LRU
    EXPECT_EQ(dc.stats().uncommittedDrops, 1u);
    ASSERT_EQ(probe.countOf(PersistPoint::DramCacheDrop), 1u);
    EXPECT_EQ(probe.recs[0].line, base) << "LRU uncommitted entry";
    EXPECT_FALSE(probe.recs[0].hadBytes)
        << "drops carry no data towards NVM";
    EXPECT_EQ(writebacks, 0)
        << "speculative bytes must never be written back in place";

    // Aborted (invalidated) entries are reclaimed silently: no probe
    // notification, no write-back, no drop accounting.
    dc.abortTx(2);
    probe.recs.clear();
    dc.insert(base + 3 * stride, 4);
    EXPECT_TRUE(probe.recs.empty())
        << "invalidated victims vanish without a persistence event";
    EXPECT_EQ(dc.stats().uncommittedDrops, 1u);
    EXPECT_EQ(writebacks, 0);
}

TEST(DramCache, SupersedingCommittedEntryWritesBackOldDataFirst)
{
    // A new speculative write landing on a committed-dirty entry for
    // the same line must push the committed bytes to in-place NVM
    // before the entry is reused, or an abort of the new transaction
    // would lose them.
    DramCache dc(KiB(64), 4);
    RecordingProbe probe;
    dc.setProbe(&probe);
    Addr wb_line = 0;
    std::array<std::uint8_t, kLineBytes> wb_data{};
    auto record_wb = [&](Addr line,
                         const std::array<std::uint8_t, kLineBytes> &d) {
        wb_line = line;
        wb_data = d;
    };
    dc.setWriteBack(record_wb);

    const Addr line = 0x400000000000ull;
    dc.insert(line, 5);
    std::array<std::uint8_t, kLineBytes> committed{};
    committed[0] = 0xaa;
    ASSERT_TRUE(dc.commitEntry(line, 5, committed));

    DramCacheEntry *e = dc.insert(line, /*tx=*/9); // supersede
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->tx, 9u);
    EXPECT_FALSE(e->dirty);
    ASSERT_EQ(probe.countOf(PersistPoint::DramCacheWriteback), 1u);
    EXPECT_EQ(probe.recs[0].firstByte, 0xaa)
        << "the notification must carry the *old* committed image";
    EXPECT_EQ(wb_line, line);
    EXPECT_EQ(wb_data[0], 0xaa);
}

TEST(DramCache, LazyInPlaceNvmUpdateOrdersAfterCommitMark)
{
    // End-to-end ordering property of the lazy update scheme (paper
    // Section IV-C): a committed transaction's NVM lines stay in the
    // DRAM cache past commit, and when they are finally written in
    // place every such write completes strictly after the transaction's
    // redo-log commit record became durable.
    EventQueue eq;
    HtmSystem sys(eq, MachineConfig::tiny(), HtmPolicy::uhtmOpt(512));
    FaultInjector fi(eq);
    sys.setFaultInjector(&fi);
    const DomainId dom = sys.createDomain("p0");

    const Addr base = MemLayout::kNvmBase + MiB(4);
    constexpr int kLines = 4;
    TxContext ctx(sys, 0, dom, 1);
    auto driver = [&]() -> Task {
        co_await ctx.run([&](TxContext &c) -> CoTask<void> {
            for (int i = 0; i < kLines; ++i)
                co_await c.write64(base + i * kLineBytes,
                                   0xc0ffee00u + i);
        });
    };
    Task t = driver();
    t.start();
    eq.run();

    Tick commit_at = 0;
    for (const auto &ev : fi.events())
        if (ev.point == PersistPoint::CommitMark)
            commit_at = std::max(commit_at, ev.completeAt);
    ASSERT_GT(commit_at, 0u) << "transaction must have committed";

    // Every redo-log record was durable no later than the commit mark.
    EXPECT_GE(fi.countOf(PersistPoint::RedoLogAppend),
              static_cast<std::uint64_t>(kLines));
    for (const auto &ev : fi.events()) {
        if (ev.point == PersistPoint::RedoLogAppend) {
            EXPECT_LE(ev.completeAt, commit_at);
        }
    }

    // Laziness: commit alone performs no in-place NVM update; the
    // committed image lives in the DRAM cache, the durable image is
    // still stale, and the architectural store already has the data.
    EXPECT_EQ(fi.countOf(PersistPoint::InPlaceNvmWrite), 0u);
    EXPECT_EQ(sys.durableNvm().read64(base), 0u);
    EXPECT_EQ(sys.store().read64(base), 0xc0ffee00u);
    EXPECT_NE(sys.dramCache().peek(base), nullptr);

    // Drain the cache: the write-backs become in-place NVM writes and
    // each one completes strictly after the commit record.
    sys.dramCache().flushAll();
    eq.run();
    EXPECT_GE(fi.countOf(PersistPoint::DramCacheWriteback),
              static_cast<std::uint64_t>(kLines));
    ASSERT_GE(fi.countOf(PersistPoint::InPlaceNvmWrite),
              static_cast<std::uint64_t>(kLines));
    for (const auto &ev : fi.events()) {
        if (ev.point == PersistPoint::InPlaceNvmWrite) {
            EXPECT_GT(ev.completeAt, commit_at)
                << "in-place update may never pass the commit mark";
        }
    }
    for (int i = 0; i < kLines; ++i)
        EXPECT_EQ(sys.durableNvm().read64(base + i * kLineBytes),
                  0xc0ffee00u + i);

    sys.setFaultInjector(nullptr);
}

TEST(SparseSets, FullSizeCachesStartWithNoSets)
{
    const MachineConfig m; // paper Table III
    Cache llc("LLC", m.llcBytes, m.llcWays);
    DramCache dc(m.dramCacheBytes, m.dramCacheWays);
    EXPECT_EQ(llc.capacityLines(), m.llcBytes / kLineBytes);
    EXPECT_EQ(dc.capacityLines(), m.dramCacheBytes / kLineBytes);
    EXPECT_EQ(llc.allocatedSets(), 0u);
    EXPECT_EQ(dc.allocatedSets(), 0u);
}

TEST(SparseSets, MissOnUntouchedSetAllocatesNothing)
{
    const MachineConfig m;
    Cache llc("LLC", m.llcBytes, m.llcWays);
    DramCache dc(m.dramCacheBytes, m.dramCacheWays);
    const Addr line = MemLayout::kNvmBase + MiB(3);
    EXPECT_EQ(llc.lookup(line), nullptr);
    EXPECT_EQ(llc.peek(line), nullptr);
    llc.invalidate(line);
    EXPECT_EQ(dc.lookup(line), nullptr);
    EXPECT_EQ(dc.peek(line), nullptr);
    std::array<std::uint8_t, kLineBytes> data{};
    EXPECT_FALSE(dc.commitEntry(line, 1, data));
    dc.invalidateEntry(line, 1);
    dc.abortTx(1);
    dc.flushAll();
    EXPECT_EQ(llc.allocatedSets(), 0u);
    EXPECT_EQ(dc.allocatedSets(), 0u);
    EXPECT_EQ(llc.stats().misses, 1u);
    EXPECT_EQ(dc.stats().misses, 1u);

    // The first allocation materializes one chunk of sets, no more.
    CacheLine ev;
    bool had = true;
    llc.allocate(line, ev, had);
    EXPECT_FALSE(had);
    dc.insert(line, kNoTx);
    EXPECT_EQ(llc.allocatedSets(), SetStore<CacheLine>::kChunkSets);
    EXPECT_EQ(dc.allocatedSets(), SetStore<DramCacheEntry>::kChunkSets);
}

TEST(SparseSets, ImpossibleGeometryThrows)
{
    EXPECT_THROW(Cache("t", KiB(4), 0), std::invalid_argument);
    EXPECT_THROW(Cache("t", kLineBytes, 2), std::invalid_argument);
    EXPECT_THROW(DramCache(KiB(4), 0), std::invalid_argument);
    EXPECT_THROW(DramCache(3 * kLineBytes, 4), std::invalid_argument);
    EXPECT_NO_THROW(Cache("t", 2 * kLineBytes, 2));
}

/** Dense reference tag array: the pre-sparse Cache, kept minimal. */
class DenseCache
{
  public:
    DenseCache(std::uint64_t sets, unsigned ways, bool tx_aware)
        : _sets(sets), _ways(ways), _txAware(tx_aware), _lines(sets * ways)
    {
    }

    CacheLine *
    peek(Addr line_base)
    {
        CacheLine *set = setOf(line_base);
        for (unsigned w = 0; w < _ways; ++w)
            if (set[w].valid && set[w].tag == line_base)
                return &set[w];
        return nullptr;
    }

    CacheLine *
    lookup(Addr line_base)
    {
        CacheLine *l = peek(line_base);
        if (l) {
            ++stats.hits;
            l->lru = ++_clock;
        } else {
            ++stats.misses;
        }
        return l;
    }

    CacheLine *
    allocate(Addr line_base, CacheLine &evicted, bool &had)
    {
        CacheLine *set = setOf(line_base);
        CacheLine *victim = nullptr;
        for (unsigned w = 0; w < _ways && !victim; ++w)
            if (!set[w].valid)
                victim = &set[w];
        if (!victim && _txAware) {
            for (unsigned w = 0; w < _ways; ++w)
                if (!set[w].txBit() &&
                    (!victim || set[w].lru < victim->lru))
                    victim = &set[w];
        }
        if (!victim) {
            for (unsigned w = 0; w < _ways; ++w)
                if (!victim || set[w].lru < victim->lru)
                    victim = &set[w];
        }
        had = victim->valid;
        if (had) {
            evicted = *victim;
            ++stats.evictions;
            if (victim->txBit())
                ++stats.txEvictions;
            if (MemLayout::kindOf(victim->tag) == MemKind::Nvm)
                ++stats.evictionsNvm;
        }
        *victim = CacheLine{};
        victim->valid = true;
        victim->tag = line_base;
        victim->lru = ++_clock;
        return victim;
    }

    void
    invalidate(Addr line_base)
    {
        if (CacheLine *l = peek(line_base))
            *l = CacheLine{};
    }

    std::vector<Addr>
    order() const
    {
        std::vector<Addr> tags;
        for (const CacheLine &l : _lines)
            if (l.valid)
                tags.push_back(l.tag);
        return tags;
    }

    Cache::Stats stats;

  private:
    CacheLine *
    setOf(Addr line_base)
    {
        return &_lines[(lineNumber(line_base) & (_sets - 1)) * _ways];
    }

    std::uint64_t _sets;
    unsigned _ways;
    bool _txAware;
    std::vector<CacheLine> _lines;
    std::uint64_t _clock = 0;
};

/** A random line from the lower half of a @p sets-set cache. */
Addr
randomLine(std::mt19937_64 &rng, std::uint64_t sets)
{
    const Addr base = rng() % 2 ? MemLayout::kNvmBase : 0;
    const std::uint64_t set = rng() % (sets / 2);
    const std::uint64_t tag = rng() % 8;
    return base + (tag * sets + set) * kLineBytes;
}

void
expectSameStats(const Cache::Stats &a, const Cache::Stats &b)
{
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.txEvictions, b.txEvictions);
    EXPECT_EQ(a.evictionsNvm, b.evictionsNvm);
}

TEST(SparseSets, CacheMatchesDenseReference)
{
    constexpr std::uint64_t kSets = 256;
    constexpr unsigned kWays = 4;
    for (bool tx_aware : {false, true}) {
        Cache cache("t", kSets * kWays * kLineBytes, kWays, tx_aware);
        ASSERT_EQ(cache.numSets(), kSets);
        DenseCache ref(kSets, kWays, tx_aware);
        std::mt19937_64 rng(0x5eed + tx_aware);
        for (int step = 0; step < 20000; ++step) {
            SCOPED_TRACE(step);
            const Addr line = randomLine(rng, kSets);
            switch (rng() % 4) {
            case 0: {
                CacheLine *got = cache.lookup(line);
                CacheLine *want = ref.lookup(line);
                ASSERT_EQ(got != nullptr, want != nullptr);
                if (got && rng() % 4 == 0) // make some lines tx
                    got->txWriter = want->txWriter = 1 + rng() % 3;
                break;
            }
            case 1:
                cache.invalidate(line);
                ref.invalidate(line);
                break;
            default: {
                if (ref.peek(line)) {
                    ASSERT_NE(cache.peek(line), nullptr);
                    break;
                }
                CacheLine ev_got, ev_want;
                bool had_got = false, had_want = false;
                CacheLine *got = cache.allocate(line, ev_got, had_got);
                ref.allocate(line, ev_want, had_want);
                ASSERT_EQ(got->tag, line);
                ASSERT_EQ(had_got, had_want);
                if (had_got) {
                    ASSERT_EQ(ev_got.tag, ev_want.tag);
                }
                break;
            }
            }
            if (step % 1000 == 0) {
                std::vector<Addr> order;
                cache.forEachLine(
                    [&](CacheLine &l) { order.push_back(l.tag); });
                ASSERT_EQ(order, ref.order());
            }
        }
        expectSameStats(cache.stats(), ref.stats);
        std::vector<Addr> order;
        cache.forEachLine([&](CacheLine &l) { order.push_back(l.tag); });
        EXPECT_EQ(order, ref.order());
        EXPECT_GT(cache.stats().evictions, 0u);
        EXPECT_LE(cache.allocatedSets(), kSets / 2)
            << "the untouched upper half must stay unallocated";
    }
}

/** One write-back or persistence notification, for comparison. */
struct WriteBackRec
{
    Addr line;
    std::uint8_t firstByte;
    bool operator==(const WriteBackRec &) const = default;
};

/** Dense reference DRAM cache: the pre-sparse DramCache, kept minimal. */
class DenseDramCache
{
  public:
    DenseDramCache(std::uint64_t sets, unsigned ways)
        : _sets(sets), _ways(ways), _entries(sets * ways)
    {
    }

    DramCacheEntry *
    peek(Addr line_base)
    {
        DramCacheEntry *set = setOf(line_base);
        for (unsigned w = 0; w < _ways; ++w)
            if (set[w].valid && set[w].tag == line_base)
                return &set[w];
        return nullptr;
    }

    DramCacheEntry *
    lookup(Addr line_base)
    {
        DramCacheEntry *e = peek(line_base);
        if (e && !e->invalidated) {
            ++stats.hits;
            e->lru = ++_clock;
            return e;
        }
        ++stats.misses;
        return nullptr;
    }

    DramCacheEntry *
    insert(Addr line_base, TxId tx)
    {
        if (DramCacheEntry *e = peek(line_base)) {
            if (e->tx != tx && !e->invalidated && e->tx == kNoTx &&
                e->dirty) {
                writeBack(*e);
                e->dirty = false;
            }
            e->tx = tx;
            e->invalidated = false;
            e->lru = ++_clock;
            return e;
        }
        DramCacheEntry *set = setOf(line_base);
        DramCacheEntry *victim = nullptr;
        for (unsigned w = 0; w < _ways && !victim; ++w)
            if (!set[w].valid)
                victim = &set[w];
        for (unsigned w = 0; w < _ways && !victim; ++w)
            if (set[w].invalidated)
                victim = &set[w];
        if (!victim) {
            for (unsigned w = 0; w < _ways; ++w)
                if (set[w].tx == kNoTx &&
                    (!victim || set[w].lru < victim->lru))
                    victim = &set[w];
        }
        if (!victim) {
            for (unsigned w = 0; w < _ways; ++w)
                if (!victim || set[w].lru < victim->lru)
                    victim = &set[w];
        }
        if (victim->valid) {
            ++stats.evictions;
            if (victim->invalidated) {
            } else if (victim->tx != kNoTx) {
                ++stats.uncommittedDrops;
            } else if (victim->dirty) {
                writeBack(*victim);
            }
        }
        *victim = DramCacheEntry{};
        victim->valid = true;
        victim->tag = line_base;
        victim->tx = tx;
        victim->lru = ++_clock;
        return victim;
    }

    bool
    commitEntry(Addr line_base, TxId tx,
                const std::array<std::uint8_t, kLineBytes> &data)
    {
        DramCacheEntry *e = peek(line_base);
        if (!e || e->tx != tx || e->invalidated)
            return false;
        e->data = data;
        e->tx = kNoTx;
        e->dirty = true;
        return true;
    }

    void
    invalidateEntry(Addr line_base, TxId tx)
    {
        if (DramCacheEntry *e = peek(line_base); e && e->tx == tx) {
            e->invalidated = true;
            ++stats.invalidations;
        }
    }

    void
    abortTx(TxId tx)
    {
        for (DramCacheEntry &e : _entries) {
            if (e.valid && e.tx == tx) {
                e.invalidated = true;
                ++stats.invalidations;
            }
        }
    }

    void
    flushAll()
    {
        for (DramCacheEntry &e : _entries) {
            if (e.valid && !e.invalidated && e.tx == kNoTx && e.dirty) {
                writeBack(e);
                e.dirty = false;
            }
        }
    }

    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (DramCacheEntry &e : _entries)
            if (e.valid)
                fn(e);
    }

    DramCache::Stats stats;
    std::vector<WriteBackRec> writeBacks;

  private:
    DramCacheEntry *
    setOf(Addr line_base)
    {
        return &_entries[(lineNumber(line_base) & (_sets - 1)) * _ways];
    }

    void
    writeBack(const DramCacheEntry &e)
    {
        ++stats.writeBacks;
        writeBacks.push_back({e.tag, e.data[0]});
    }

    std::uint64_t _sets;
    unsigned _ways;
    std::vector<DramCacheEntry> _entries;
    std::uint64_t _clock = 0;
};

/** Visit order and per-entry state, for comparing two DRAM caches. */
template <typename DC>
std::vector<std::tuple<Addr, TxId, bool, bool, std::uint8_t>>
dramCacheState(DC &dc)
{
    std::vector<std::tuple<Addr, TxId, bool, bool, std::uint8_t>> out;
    dc.forEach([&](DramCacheEntry &e) {
        out.emplace_back(e.tag, e.tx, e.dirty, e.invalidated, e.data[0]);
    });
    return out;
}

TEST(SparseSets, DramCacheMatchesDenseReference)
{
    constexpr std::uint64_t kSets = 256;
    constexpr unsigned kWays = 4;
    DramCache dc(kSets * kWays * kLineBytes, kWays);
    DenseDramCache ref(kSets, kWays);
    std::vector<WriteBackRec> wbs;
    auto record_wb = [&](Addr line,
                         const std::array<std::uint8_t, kLineBytes> &d) {
        wbs.push_back({line, d[0]});
    };
    dc.setWriteBack(record_wb);

    std::mt19937_64 rng(0xd4a3);
    for (int step = 0; step < 20000; ++step) {
        SCOPED_TRACE(step);
        const Addr line = randomLine(rng, kSets);
        const TxId tx = rng() % 4 == 0 ? kNoTx : 1 + rng() % 4;
        switch (rng() % 16) {
        case 0:
        case 1:
        case 2: {
            DramCacheEntry *got = dc.lookup(line);
            ASSERT_EQ(got != nullptr, ref.lookup(line) != nullptr);
            break;
        }
        case 3:
        case 4:
        case 5: {
            std::array<std::uint8_t, kLineBytes> data{};
            data[0] = static_cast<std::uint8_t>(rng());
            ASSERT_EQ(dc.commitEntry(line, tx, data),
                      ref.commitEntry(line, tx, data));
            break;
        }
        case 6:
        case 7:
            dc.invalidateEntry(line, tx);
            ref.invalidateEntry(line, tx);
            break;
        case 8:
            dc.abortTx(tx);
            ref.abortTx(tx);
            break;
        case 9:
            if (step % 8 == 0) {
                dc.flushAll();
                ref.flushAll();
            }
            break;
        default: {
            DramCacheEntry *got = dc.insert(line, tx);
            DramCacheEntry *want = ref.insert(line, tx);
            ASSERT_EQ(got->tag, want->tag);
            ASSERT_EQ(got->tx, want->tx);
            break;
        }
        }
        ASSERT_EQ(wbs.size(), ref.writeBacks.size());
        if (step % 1000 == 0) {
            ASSERT_EQ(dramCacheState(dc), dramCacheState(ref));
        }
    }
    const DramCache::Stats &a = dc.stats();
    EXPECT_EQ(a.hits, ref.stats.hits);
    EXPECT_EQ(a.misses, ref.stats.misses);
    EXPECT_EQ(a.evictions, ref.stats.evictions);
    EXPECT_EQ(a.uncommittedDrops, ref.stats.uncommittedDrops);
    EXPECT_EQ(a.writeBacks, ref.stats.writeBacks);
    EXPECT_EQ(a.invalidations, ref.stats.invalidations);
    EXPECT_EQ(wbs, ref.writeBacks) << "same victims, same order";
    EXPECT_EQ(dramCacheState(dc), dramCacheState(ref));
    EXPECT_GT(a.evictions, 0u);
    EXPECT_GT(a.uncommittedDrops, 0u);
    EXPECT_GT(a.writeBacks, 0u);
    EXPECT_LE(dc.allocatedSets(), kSets / 2)
        << "the untouched upper half must stay unallocated";
}

/** The per-line pre-warm loop that Cache::prewarm replaces. */
void
prewarmPerLine(Cache &c, Addr base, std::uint64_t lines)
{
    for (std::uint64_t i = 0; i < lines; ++i) {
        CacheLine evicted;
        bool had = false;
        c.allocate(base + i * kLineBytes, evicted, had);
    }
}

/** (tag, lru) of every valid line, in forEachLine order. */
std::vector<std::pair<Addr, std::uint64_t>>
lineOrder(Cache &c)
{
    std::vector<std::pair<Addr, std::uint64_t>> out;
    c.forEachLine([&](CacheLine &l) { out.emplace_back(l.tag, l.lru); });
    return out;
}

TEST(Prewarm, SurvivorOnlyMatchesPerLineLoop)
{
    constexpr std::uint64_t kSets = 64;
    constexpr unsigned kWays = 4;
    constexpr std::uint64_t kCap = kSets * kWays;
    struct Case
    {
        Addr base;
        std::uint64_t lines;
    };
    const Addr dram = MiB(1);
    const Addr nvm = MemLayout::kNvmBase;
    const Case cases[] = {
        {dram, 0},
        {dram, kCap / 2 + 3}, // N < C
        {dram, kCap},         // N = C
        // N > C, base mid-set-range, 14 or 15 arrivals per set: not a
        // multiple of the ways.
        {dram + 17 * kLineBytes, 3 * kCap + 2 * kSets + 5},
        {nvm + 5 * kLineBytes, 2 * kCap + 9},
        // The evicted lines straddle the NVM base.
        {nvm - 100 * kLineBytes, kCap + 300},
    };
    for (bool tx_aware : {false, true}) {
        for (const Case &c : cases) {
            SCOPED_TRACE(testing::Message() << "base " << std::hex << c.base
                                            << std::dec << " lines "
                                            << c.lines << " tx_aware "
                                            << tx_aware);
            Cache loop("loop", kCap * kLineBytes, kWays, tx_aware);
            Cache fast("fast", kCap * kLineBytes, kWays, tx_aware);
            ASSERT_EQ(fast.numSets(), kSets);
            prewarmPerLine(loop, c.base, c.lines);
            fast.prewarm(c.base, c.lines);

            EXPECT_EQ(lineOrder(fast), lineOrder(loop));
            expectSameStats(fast.stats(), loop.stats());
            EXPECT_EQ(fast.allocatedSets(), loop.allocatedSets());

            // The next 1000 victims, and their stamps, are the same.
            std::mt19937_64 rng(c.lines);
            for (int i = 0; i < 1000; ++i) {
                const Addr line = randomLine(rng, 2 * kSets);
                if (loop.peek(line)) {
                    ASSERT_NE(fast.lookup(line), nullptr);
                    loop.lookup(line);
                    continue;
                }
                CacheLine ev_loop, ev_fast;
                bool had_loop = false, had_fast = false;
                loop.allocate(line, ev_loop, had_loop);
                fast.allocate(line, ev_fast, had_fast);
                ASSERT_EQ(had_fast, had_loop) << i;
                if (had_loop) {
                    ASSERT_EQ(ev_fast.tag, ev_loop.tag) << i;
                    ASSERT_EQ(ev_fast.lru, ev_loop.lru) << i;
                }
            }
            EXPECT_EQ(lineOrder(fast), lineOrder(loop));
            expectSameStats(fast.stats(), loop.stats());
        }
    }
}

TEST(Prewarm, CountsOnlyNvmEvictionsAsNvm)
{
    Cache c("t", 64 * kLineBytes, 4);
    c.prewarm(MemLayout::kNvmBase - 10 * kLineBytes, 64 + 25);
    EXPECT_EQ(c.stats().evictions, 25u);
    EXPECT_EQ(c.stats().evictionsNvm, 15u);
}

TEST(Prewarm, NonEmptyLlcThrows)
{
    Cache c("t", 64 * kLineBytes, 4);
    CacheLine ev;
    bool had = false;
    c.allocate(MiB(1), ev, had);
    c.invalidate(MiB(1)); // empty again, but a set was materialized
    EXPECT_THROW(c.prewarm(MiB(2), 8), std::logic_error);

    EventQueue eq;
    HtmSystem sys{eq, MachineConfig::tiny(), HtmPolicy::uhtmOpt(2048)};
    sys.prewarmLlc(MemLayout::kNvmBase + MiB(1), 100);
    EXPECT_THROW(sys.prewarmLlc(MemLayout::kNvmBase + MiB(2), 100),
                 std::logic_error);
}

} // namespace
} // namespace uhtm
