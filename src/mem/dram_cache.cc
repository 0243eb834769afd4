#include "mem/dram_cache.hh"

#include "obs/event.hh"
#include "obs/self_profile.hh"

namespace uhtm
{

DramCache::DramCache(std::uint64_t size_bytes, unsigned ways)
    : _sets("DRAM cache", size_bytes, ways)
{
}

DramCacheEntry *
DramCache::lookup(Addr line_base)
{
    obs::LayerScope tag(obs::Layer::DramCache);
    DramCacheEntry *e = peek(line_base);
    if (e && !e->invalidated) {
        ++_stats.hits;
        e->lru = ++_lruClock;
        return e;
    }
    ++_stats.misses;
    return nullptr;
}

void
DramCache::evict(DramCacheEntry &victim)
{
    ++_stats.evictions;
    int reason = obs::kEvictClean;
    if (victim.invalidated) {
        // Aborted data: drop silently.
        reason = obs::kEvictInvalidatedDrop;
    } else if (victim.tx != kNoTx) {
        // Uncommitted line forced out; its bytes remain recoverable from
        // the redo log, so it is safe (if slow) to drop it here.
        ++_stats.uncommittedDrops;
        reason = obs::kEvictUncommittedDrop;
        if (_probe) {
            _probe->notifyPersist(PersistPoint::DramCacheDrop, victim.tag,
                                  0, nullptr);
        }
    } else if (victim.dirty) {
        ++_stats.writeBacks;
        reason = obs::kEvictWriteBack;
        if (_probe) {
            _probe->notifyPersist(PersistPoint::DramCacheWriteback,
                                  victim.tag, 0, victim.data.data());
        }
        if (_writeBack)
            _writeBack(victim.tag, victim.data);
    }
    if (_evictHook)
        _evictHook(victim.tag, reason);
    _sets.erase(&victim);
}

DramCacheEntry *
DramCache::insert(Addr line_base, TxId tx)
{
    obs::LayerScope tag(obs::Layer::DramCache);
    if (DramCacheEntry *e = peek(line_base)) {
        // Refresh in place; a new transactional write supersedes an
        // invalidated or committed entry for the same line.
        if (e->tx != tx && !e->invalidated && e->tx == kNoTx && e->dirty) {
            // Committed data being overwritten by a new speculative
            // write must first reach in-place NVM or it would be lost
            // on abort of the new transaction.
            ++_stats.writeBacks;
            if (_probe) {
                _probe->notifyPersist(PersistPoint::DramCacheWriteback,
                                      e->tag, 0, e->data.data());
            }
            if (_writeBack)
                _writeBack(e->tag, e->data);
            e->dirty = false;
        }
        e->tx = tx;
        e->invalidated = false;
        e->lru = ++_lruClock;
        return e;
    }

    DramCacheEntry *set = _sets.set(line_base);
    const unsigned ways = _sets.ways();
    DramCacheEntry *victim = nullptr;
    for (unsigned w = 0; w < ways && !victim; ++w)
        if (!set[w].valid)
            victim = &set[w];
    if (!victim) {
        // Prefer invalidated, then committed-clean, then LRU overall.
        for (unsigned w = 0; w < ways && !victim; ++w)
            if (set[w].invalidated)
                victim = &set[w];
        if (!victim) {
            for (unsigned w = 0; w < ways; ++w) {
                if (set[w].tx != kNoTx)
                    continue;
                if (!victim || set[w].lru < victim->lru)
                    victim = &set[w];
            }
        }
        if (!victim) {
            victim = &set[0];
            for (unsigned w = 1; w < ways; ++w)
                if (set[w].lru < victim->lru)
                    victim = &set[w];
        }
        evict(*victim);
    }

    _sets.install(victim, line_base);
    victim->tx = tx;
    victim->lru = ++_lruClock;
    return victim;
}

bool
DramCache::commitEntry(Addr line_base, TxId tx,
                       const std::array<std::uint8_t, kLineBytes> &data)
{
    obs::LayerScope tag(obs::Layer::DramCache);
    DramCacheEntry *e = peek(line_base);
    if (!e || e->tx != tx || e->invalidated)
        return false;
    e->data = data;
    e->tx = kNoTx;
    e->dirty = true;
    return true;
}

void
DramCache::abortTx(TxId tx)
{
    obs::LayerScope tag(obs::Layer::DramCache);
    _sets.forEach([&](DramCacheEntry &e) {
        if (e.tx == tx) {
            e.invalidated = true;
            ++_stats.invalidations;
        }
    });
}

void
DramCache::invalidateEntry(Addr line_base, TxId tx)
{
    obs::LayerScope tag(obs::Layer::DramCache);
    if (DramCacheEntry *e = peek(line_base)) {
        if (e->tx == tx) {
            e->invalidated = true;
            ++_stats.invalidations;
        }
    }
}

void
DramCache::flushAll()
{
    obs::LayerScope tag(obs::Layer::DramCache);
    _sets.forEach([&](DramCacheEntry &e) {
        if (!e.invalidated && e.tx == kNoTx && e.dirty) {
            ++_stats.writeBacks;
            if (_probe) {
                _probe->notifyPersist(PersistPoint::DramCacheWriteback,
                                      e.tag, 0, e.data.data());
            }
            if (_writeBack)
                _writeBack(e.tag, e.data);
            e.dirty = false;
        }
    });
}

} // namespace uhtm
