#include "mem/cache.hh"

#include <cassert>
#include <stdexcept>

namespace uhtm
{

Cache::Cache(std::string name, std::uint64_t size_bytes, unsigned ways,
             bool tx_aware_replacement)
    : _name(std::move(name)), _txAware(tx_aware_replacement),
      _sets(_name, size_bytes, ways)
{
}

CacheLine *
Cache::lookup(Addr line_base)
{
    CacheLine *line = peek(line_base);
    if (line) {
        ++_stats.hits;
        touch(*line);
    } else {
        ++_stats.misses;
    }
    return line;
}

CacheLine *
Cache::allocate(Addr line_base, CacheLine &evicted, bool &had_victim)
{
    CacheLine *victim = victimFor(line_base, had_victim);
    if (had_victim)
        evicted = *victim;
    install(victim, line_base);
    return victim;
}

CacheLine *
Cache::victimFor(Addr line_base, bool &had_victim)
{
    assert(!peek(line_base) && "line must not already be present");
    CacheLine *set = _sets.set(line_base);
    const unsigned ways = _sets.ways();

    // Single pass; candidate preferences and way-order tie-breaks match
    // the original three-pass selection exactly (first invalid way,
    // else tx-aware LRU among non-transactional lines, else plain LRU,
    // strict < keeping the earliest way on equal timestamps).
    CacheLine *victim = nullptr;
    CacheLine *nonTxLru = nullptr;
    CacheLine *lru = nullptr;
    for (unsigned w = 0; w < ways; ++w) {
        CacheLine &cl = set[w];
        if (!cl.valid) {
            victim = &cl;
            break;
        }
        if (_txAware && !cl.txBit() &&
            (!nonTxLru || cl.lru < nonTxLru->lru)) {
            nonTxLru = &cl;
        }
        if (!lru || cl.lru < lru->lru)
            lru = &cl;
    }
    if (!victim)
        victim = _txAware && nonTxLru ? nonTxLru : lru;

    had_victim = victim->valid;
    if (had_victim) {
        ++_stats.evictions;
        if (victim->txBit())
            ++_stats.txEvictions;
        if (MemLayout::kindOf(victim->tag) == MemKind::Nvm)
            ++_stats.evictionsNvm;
    }
    return victim;
}

void
Cache::install(CacheLine *slot, Addr line_base)
{
    _sets.install(slot, line_base);
    touch(*slot);
}

void
Cache::prewarm(Addr base, std::uint64_t lines)
{
    if (_sets.allocatedSets() != 0)
        throw std::logic_error(_name + ": prewarm needs an untouched cache");
    const std::uint64_t evicted =
        lines > capacityLines() ? lines - capacityLines() : 0;
    const Addr evicted_end = base + evicted * kLineBytes;
    _stats.evictions += evicted;
    if (evicted_end > MemLayout::kNvmBase)
        _stats.evictionsNvm +=
            (evicted_end - std::max(base, MemLayout::kNvmBase)) / kLineBytes;
    _lruClock += evicted;
    for (std::uint64_t i = evicted; i < lines; ++i) {
        const Addr line = base + i * kLineBytes;
        install(_sets.set(line) + (i / numSets()) % ways(), line);
    }
}

void
Cache::invalidate(Addr line_base)
{
    if (CacheLine *line = peek(line_base))
        _sets.erase(line);
}

} // namespace uhtm
