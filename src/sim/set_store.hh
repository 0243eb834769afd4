/**
 * @file
 * Sparse set-associative line storage shared by the cache models.
 *
 * The paper's Table III machine has a 16 MiB LLC and a 64 MiB DRAM
 * cache, over a million lines of metadata, while most jobs touch a
 * small fraction of the sets. SetStore therefore materializes sets in
 * chunks of kChunkSets consecutive sets, on the first allocation into
 * the chunk. A probe of a set whose chunk was never allocated is a
 * miss and allocates nothing: an untouched set reads as all-invalid.
 * Host memory grows with the sets a run touches, not with the modeled
 * capacity.
 *
 * Layout and iteration: within a chunk, lines sit set-major, then by
 * way, and forEach() walks allocated chunks in set order. The visit
 * order is therefore exactly that of a dense array with the untouched
 * (all-invalid) sets skipped.
 *
 * Each chunk carries a tag-only shadow of its lines, scanned by find()
 * so a set probe touches a few contiguous words instead of whole
 * lines. Callers may reset lines in place (e.g. through forEach), which
 * leaves the shadow stale, so a shadow match is verified against the
 * line; a stale entry always points at an invalid line, never a wrong
 * hit.
 *
 * @tparam Line line metadata with `Addr tag` and `bool valid` members;
 *         a value-initialized Line is the invalid state.
 */

#ifndef UHTM_SIM_SET_STORE_HH
#define UHTM_SIM_SET_STORE_HH

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace uhtm
{

template <typename Line>
class SetStore
{
  public:
    /** Sets materialized together on first allocation. */
    static constexpr std::uint64_t kChunkSets = 32;

    /**
     * @param what cache name, for error messages.
     * @param size_bytes modeled capacity; rounded down to a
     *        power-of-two number of sets.
     * @param ways associativity.
     * @throws std::invalid_argument if @p ways is 0 or the capacity
     *         holds fewer lines than one set.
     */
    SetStore(const std::string &what, std::uint64_t size_bytes,
             unsigned ways)
        : _ways(ways)
    {
        if (ways < 1)
            throw std::invalid_argument(what + ": ways must be >= 1");
        const std::uint64_t lines = size_bytes / kLineBytes;
        if (lines < ways) {
            throw std::invalid_argument(
                what + ": " + std::to_string(size_bytes) +
                " bytes hold fewer lines than " + std::to_string(ways) +
                " ways");
        }
        _numSets = 1;
        while ((_numSets << 1) <= lines / ways)
            _numSets <<= 1;
        _chunkLines = std::min(kChunkSets, _numSets) * _ways;
        _chunks.resize((_numSets + kChunkSets - 1) / kChunkSets);
    }

    /** The valid line tagged @p line_base, or nullptr. Never allocates. */
    Line *
    find(Addr line_base)
    {
        const std::uint64_t index = setIndex(line_base);
        const Chunk &c = _chunks[index / kChunkSets];
        if (!c.lines)
            return nullptr;
        const std::uint64_t base = (index % kChunkSets) * _ways;
        const Addr *tags = &c.tags[base];
        for (unsigned w = 0; w < _ways; ++w) {
            if (tags[w] != line_base)
                continue;
            Line &l = c.lines[base + w];
            if (l.valid && l.tag == line_base)
                return &l;
        }
        return nullptr;
    }

    /**
     * The ways of @p line_base's set (way 0 first), materializing the
     * set's chunk as all-invalid lines if it was never allocated.
     */
    Line *
    set(Addr line_base)
    {
        const std::uint64_t index = setIndex(line_base);
        Chunk &c = _chunks[index / kChunkSets];
        if (!c.lines) {
            c.lines = std::make_unique<Line[]>(_chunkLines);
            c.tags = std::make_unique<Addr[]>(_chunkLines);
            std::fill_n(c.tags.get(), _chunkLines, kInvalidTag);
            ++_allocatedChunks;
        }
        return &c.lines[(index % kChunkSets) * _ways];
    }

    /**
     * Reset @p slot, a way of @p line_base's set, to a valid line
     * tagged @p line_base; the caller fills in the rest.
     */
    void
    install(Line *slot, Addr line_base)
    {
        *slot = Line{};
        slot->valid = true;
        slot->tag = line_base;
        shadowOf(slot, line_base) = line_base;
    }

    /** Reset the valid line @p slot to the invalid state. */
    void
    erase(Line *slot)
    {
        shadowOf(slot, slot->tag) = kInvalidTag;
        *slot = Line{};
    }

    /** Invoke @p fn on every valid line, set-major then way order. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (Chunk &c : _chunks) {
            if (!c.lines)
                continue;
            for (std::uint64_t i = 0; i < _chunkLines; ++i)
                if (c.lines[i].valid)
                    fn(c.lines[i]);
        }
    }

    unsigned ways() const { return _ways; }
    std::uint64_t numSets() const { return _numSets; }

    /** Sets materialized so far (host memory use; not modeled state). */
    std::uint64_t
    allocatedSets() const
    {
        return _allocatedChunks * (_chunkLines / _ways);
    }

  private:
    /** Shadow sentinel; never a line-aligned address. */
    static constexpr Addr kInvalidTag = ~Addr(0);

    struct Chunk
    {
        std::unique_ptr<Addr[]> tags;
        std::unique_ptr<Line[]> lines;
    };

    std::uint64_t
    setIndex(Addr line_base) const
    {
        return lineNumber(line_base) & (_numSets - 1);
    }

    /** Shadow tag of @p slot, a way of @p line_base's set. */
    Addr &
    shadowOf(const Line *slot, Addr line_base)
    {
        Chunk &c = _chunks[setIndex(line_base) / kChunkSets];
        const auto i = static_cast<std::uint64_t>(slot - c.lines.get());
        assert(i < _chunkLines && "slot is not in the address's chunk");
        return c.tags[i];
    }

    unsigned _ways;
    std::uint64_t _numSets;
    std::uint64_t _chunkLines;
    std::uint64_t _allocatedChunks = 0;
    std::vector<Chunk> _chunks;
};

} // namespace uhtm

#endif // UHTM_SIM_SET_STORE_HH
