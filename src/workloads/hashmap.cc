#include "workloads/hashmap.hh"

#include <unordered_set>

namespace uhtm
{

namespace
{

std::uint64_t
ceilPow2(std::uint64_t v)
{
    std::uint64_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

SimHashMap::SimHashMap(HtmSystem &sys, RegionAllocator &regions,
                       MemKind kind, std::uint64_t buckets)
    : _sys(sys), _nbuckets(ceilPow2(buckets))
{
    // Bucket heads start empty with no writes: the range is fresh
    // (RegionAllocator never reuses one), and unwritten memory reads 0
    // in the architectural image, the durable NVM image and every image
    // recovered from it.
    _buckets = regions.reserve(kind, _nbuckets * 8);
}

Addr
SimHashMap::bucketAddr(std::uint64_t key) const
{
    return _buckets + (mixKey(key) & (_nbuckets - 1)) * 8;
}

CoTask<void>
SimHashMap::insert(TxContext &ctx, TxAllocator &alloc, std::uint64_t key,
                   std::uint64_t value)
{
    const Addr bucket = bucketAddr(key);
    const Addr head = co_await ctx.read64(bucket);
    Addr cur = head;
    while (cur != 0) {
        const std::uint64_t k = co_await ctx.read64(cur + kOffKey);
        if (k == key) {
            co_await ctx.write64(cur + kOffValue, value);
            co_return;
        }
        cur = co_await ctx.read64(cur + kOffNext);
    }
    const Addr node = co_await alloc.alloc(ctx, kLineBytes);
    co_await ctx.write64(node + kOffKey, key);
    co_await ctx.write64(node + kOffValue, value);
    co_await ctx.write64(node + kOffNext, head);
    co_await ctx.write64(bucket, node);
}

CoTask<std::uint64_t>
SimHashMap::lookup(TxContext &ctx, std::uint64_t key)
{
    Addr cur = co_await ctx.read64(bucketAddr(key));
    while (cur != 0) {
        const std::uint64_t k = co_await ctx.read64(cur + kOffKey);
        if (k == key)
            co_return co_await ctx.read64(cur + kOffValue);
        cur = co_await ctx.read64(cur + kOffNext);
    }
    co_return 0;
}

void
SimHashMap::insertSetup(TxAllocator &alloc, std::uint64_t key,
                        std::uint64_t value)
{
    const Addr bucket = bucketAddr(key);
    const Addr head = _sys.setupRead64(bucket);
    Addr cur = head;
    while (cur != 0) {
        if (_sys.setupRead64(cur + kOffKey) == key) {
            _sys.setupWrite64(cur + kOffValue, value);
            return;
        }
        cur = _sys.setupRead64(cur + kOffNext);
    }
    const Addr node = alloc.allocSetup(_sys, kLineBytes);
    _sys.setupWrite64(node + kOffKey, key);
    _sys.setupWrite64(node + kOffValue, value);
    _sys.setupWrite64(node + kOffNext, head);
    _sys.setupWrite64(bucket, node);
}

std::uint64_t
SimHashMap::lookupFunctional(std::uint64_t key) const
{
    Addr cur = _sys.setupRead64(bucketAddr(key));
    while (cur != 0) {
        if (_sys.setupRead64(cur + kOffKey) == key)
            return _sys.setupRead64(cur + kOffValue);
        cur = _sys.setupRead64(cur + kOffNext);
    }
    return 0;
}

std::uint64_t
SimHashMap::sizeFunctional() const
{
    std::uint64_t n = 0;
    for (std::uint64_t b = 0; b < _nbuckets; ++b) {
        Addr cur = _sys.setupRead64(_buckets + b * 8);
        while (cur != 0) {
            ++n;
            cur = _sys.setupRead64(cur + kOffNext);
        }
    }
    return n;
}

std::vector<std::uint64_t>
SimHashMap::keysFunctional() const
{
    std::vector<std::uint64_t> keys;
    for (std::uint64_t b = 0; b < _nbuckets; ++b) {
        Addr cur = _sys.setupRead64(_buckets + b * 8);
        while (cur != 0) {
            keys.push_back(_sys.setupRead64(cur + kOffKey));
            cur = _sys.setupRead64(cur + kOffNext);
        }
    }
    return keys;
}

bool
SimHashMap::validateFunctional(std::string *why) const
{
    std::unordered_set<std::uint64_t> seen;
    std::unordered_set<Addr> visited;
    for (std::uint64_t b = 0; b < _nbuckets; ++b) {
        Addr cur = _sys.setupRead64(_buckets + b * 8);
        while (cur != 0) {
            if (!visited.insert(cur).second) {
                if (why)
                    *why = "cycle in bucket chain";
                return false;
            }
            const std::uint64_t key = _sys.setupRead64(cur + kOffKey);
            if (!seen.insert(key).second) {
                if (why)
                    *why = "duplicate key " + std::to_string(key);
                return false;
            }
            if ((mixKey(key) & (_nbuckets - 1)) != b) {
                if (why)
                    *why = "key in wrong bucket";
                return false;
            }
            cur = _sys.setupRead64(cur + kOffNext);
        }
    }
    return true;
}

} // namespace uhtm
