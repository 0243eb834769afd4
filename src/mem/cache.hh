/**
 * @file
 * Set-associative cache tag/metadata array.
 *
 * Caches in this simulator are timing + metadata only: the functional
 * bytes live in the BackingStore and per-transaction write buffers. A
 * cache line therefore carries a tag, dirty bit, transactional
 * read/write markers and — for the shared LLC, which embeds the
 * directory — sharer/owner tracking with the paper's Tx-bit, Tx-Owner
 * and Tx-Sharer fields (Section IV-D).
 *
 * Lines live in a sparse SetStore: sets are materialized on the first
 * allocation into them, and an untouched set reads as invalid.
 */

#ifndef UHTM_MEM_CACHE_HH
#define UHTM_MEM_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/layout.hh"
#include "sim/set_store.hh"
#include "sim/small_vec.hh"
#include "sim/types.hh"

namespace uhtm
{

/** Metadata of one cache line. Directory fields are used by the LLC. */
struct CacheLine
{
    /** Line base address; only meaningful when valid. */
    Addr tag = 0;
    bool valid = false;
    bool dirty = false;

    /** L1 only: the copy has write permission (MESI E/M). */
    bool exclusive = false;

    /**
     * Transaction that speculatively wrote this line (kNoTx if none).
     * In an L1 this is the local running transaction; in the LLC it is
     * the directory's Tx-Owner field.
     */
    TxId txWriter = kNoTx;

    /**
     * Transactions that transactionally read this line (directory
     * Tx-Sharer list; in an L1 at most the local transaction).
     * Small-buffer optimized: nearly all lines have <= 2 transactional
     * readers, so the common case never heap-allocates — LLC fills and
     * evictions copy whole CacheLine values on the hot path.
     */
    SmallVec<TxId, 2> txReaders;

    /** LRU timestamp (larger = more recently used). */
    std::uint64_t lru = 0;

    /** Directory: bitmask of cores holding an L1 copy. */
    std::uint64_t sharers = 0;

    /** Directory: core whose L1 holds the line modified (exclusive). */
    CoreId ownerCore = kNoCore;

    /** Paper's Tx-bit: set when any transactional metadata is present. */
    bool
    txBit() const
    {
        return txWriter != kNoTx || !txReaders.empty();
    }

    /** True if transaction @p tx is registered as a reader. */
    bool
    hasTxReader(TxId tx) const
    {
        for (TxId r : txReaders)
            if (r == tx)
                return true;
        return false;
    }

    /** Register @p tx as a transactional reader (idempotent). */
    void
    addTxReader(TxId tx)
    {
        if (!hasTxReader(tx))
            txReaders.push_back(tx);
    }

    /** Remove transaction @p tx from the reader list. */
    void
    removeTxReader(TxId tx)
    {
        for (std::size_t i = 0; i < txReaders.size(); ++i) {
            if (txReaders[i] == tx) {
                txReaders[i] = txReaders.back();
                txReaders.pop_back();
                return;
            }
        }
    }

    /** Drop all transactional metadata (on commit/abort cleanup). */
    void
    clearTxMeta()
    {
        txWriter = kNoTx;
        txReaders.clear();
    }

    /** Reset to the invalid state. */
    void
    reset()
    {
        *this = CacheLine{};
    }
};

/**
 * A set-associative tag array with LRU replacement.
 *
 * By default victim selection is transaction-agnostic LRU, as in real
 * cache hierarchies — which is precisely why co-running applications
 * evict transactional lines and cause capacity overflows (paper
 * Section III-C). An optional tx-aware mode prefers non-transactional
 * victims (evaluated as an ablation).
 */
class Cache
{
  public:
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::uint64_t txEvictions = 0;
        /** Evictions of NVM-region lines (workload data). */
        std::uint64_t evictionsNvm = 0;
    };

    /**
     * @param name for reports.
     * @param size_bytes total capacity.
     * @param ways associativity.
     * @param tx_aware_replacement prefer non-transactional victims.
     * @throws std::invalid_argument on an impossible geometry.
     */
    Cache(std::string name, std::uint64_t size_bytes, unsigned ways,
          bool tx_aware_replacement = false);

    /**
     * Find the line holding @p line_base, or nullptr. Counts hit/miss.
     * Neither lookup nor peek materializes a set.
     */
    CacheLine *lookup(Addr line_base);

    /** Find without touching statistics or LRU. */
    CacheLine *peek(Addr line_base) { return _sets.find(line_base); }

    /**
     * Allocate a way for @p line_base (which must not be present).
     * If a valid victim had to be displaced, it is copied to @p evicted
     * and true is returned via @p had_victim. The returned slot is
     * reset, validated and tagged; the caller fills in the rest.
     */
    CacheLine *allocate(Addr line_base, CacheLine &evicted,
                        bool &had_victim);

    /**
     * Copy-free allocation, step 1: choose and return the victim way
     * for @p line_base (which must not be present). Eviction statistics
     * are counted here; the slot's old contents are left intact so the
     * caller can process the eviction in place, then hand the slot to
     * install(). @p had_victim reports whether the slot held a valid
     * line. The cache must not be used for lookups or allocations
     * between victimFor() and install().
     */
    CacheLine *victimFor(Addr line_base, bool &had_victim);

    /** Copy-free allocation, step 2: reset, validate, tag and touch. */
    void install(CacheLine *slot, Addr line_base);

    /**
     * Fill an untouched cache with the stream of @p lines consecutive
     * lines from the line-aligned @p base, leaving exactly the state
     * that allocate()-ing each line in order would leave, but
     * installing only the lines that would survive.
     *
     * Survivor rule: the k-th arrival into a set lands in way
     * k mod ways, since its first ways arrivals take the invalid ways
     * in order and each later one displaces the oldest, which sits in
     * the next way round. With N = @p lines and C = capacityLines(),
     * the survivors are the last min(N, C) lines; the first N - C are
     * counted as evictions (NVM lines also in evictionsNvm) and the
     * LRU clock advances past their stamps first, so every survivor's
     * stamp, and every later victim, is what the per-line loop gives.
     *
     * @throws std::logic_error if any set is already materialized.
     */
    void prewarm(Addr base, std::uint64_t lines);

    /** Mark @p line most recently used. */
    void touch(CacheLine &line) { line.lru = ++_lruClock; }

    /** Invalidate @p line_base if present. */
    void invalidate(Addr line_base);

    /**
     * Invoke @p fn on every valid line (tests, scans).
     *
     * Ordering contract: lines are visited in physical layout order
     * (set-major, then way) — deterministic for a fixed operation
     * history, but dependent on placement and replacement decisions.
     * Callers whose side effects must not depend on cache geometry
     * (e.g. anything feeding the deterministic bench JSON) use
     * forEachLineSorted instead.
     */
    template <typename Fn>
    void
    forEachLine(Fn &&fn)
    {
        _sets.forEach(fn);
    }

    /**
     * Invoke @p fn on every valid line in ascending address (tag)
     * order. Canonical: the visit order is a pure function of the set
     * of resident lines, independent of sets/ways/LRU history. @p fn
     * may mutate or reset the visited line, but must not allocate or
     * invalidate other lines.
     */
    template <typename Fn>
    void
    forEachLineSorted(Fn &&fn)
    {
        std::vector<CacheLine *> valid;
        _sets.forEach([&](CacheLine &line) { valid.push_back(&line); });
        std::sort(valid.begin(), valid.end(),
                  [](const CacheLine *a, const CacheLine *b) {
                      return a->tag < b->tag;
                  });
        for (CacheLine *line : valid)
            fn(*line);
    }

    unsigned ways() const { return _sets.ways(); }
    std::uint64_t numSets() const { return _sets.numSets(); }
    std::uint64_t capacityLines() const { return numSets() * ways(); }
    /** Sets materialized so far (host memory; not a modeled stat). */
    std::uint64_t allocatedSets() const { return _sets.allocatedSets(); }
    const Stats &stats() const { return _stats; }
    const std::string &name() const { return _name; }

  private:
    std::string _name;
    bool _txAware;
    SetStore<CacheLine> _sets;
    std::uint64_t _lruClock = 0;
    Stats _stats;
};

} // namespace uhtm

#endif // UHTM_MEM_CACHE_HH
