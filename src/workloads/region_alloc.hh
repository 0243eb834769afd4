/**
 * @file
 * Host-side region allocator: carves disjoint arenas out of the
 * simulated DRAM and NVM regions for workloads and per-thread heaps.
 *
 * Regions are never reused; each conflict domain (simulated process)
 * draws from distinct ranges, so addresses never alias across domains —
 * exactly the property the signature-isolation optimization exploits.
 */

#ifndef UHTM_WORKLOADS_REGION_ALLOC_HH
#define UHTM_WORKLOADS_REGION_ALLOC_HH

#include <stdexcept>
#include <string>

#include "mem/layout.hh"
#include "sim/types.hh"

namespace uhtm
{

/** Hands out page-aligned, disjoint address ranges. */
class RegionAllocator
{
  public:
    RegionAllocator()
        : _dramNext(MemLayout::kDramBase + MiB(1)),
          _nvmNext(MemLayout::kNvmBase + MiB(1))
    {
    }

    /**
     * Reserve @p bytes in @p kind memory; returns the base address.
     * The range is fresh: it was never handed out before, so it reads
     * as zero until written.
     *
     * @throws std::length_error if the region's software-visible part
     *         (below its log area) cannot hold the request.
     */
    Addr
    reserve(MemKind kind, std::uint64_t bytes)
    {
        const bool dram = kind == MemKind::Dram;
        Addr &next = dram ? _dramNext : _nvmNext;
        const Addr end = dram ? MemLayout::kDramBase + MemLayout::kDramSize
                              : MemLayout::kNvmBase + MemLayout::kNvmSize;
        const std::uint64_t aligned = (bytes + 4095) & ~std::uint64_t(4095);
        if (aligned < bytes || aligned > end - next) {
            throw std::length_error(
                std::string("RegionAllocator: ") + memKindName(kind) +
                " region cannot hold " + std::to_string(bytes) +
                " more bytes (" + std::to_string(end - next) + " left)");
        }
        const Addr base = next;
        next += aligned;
        return base;
    }

    std::uint64_t
    reservedBytes(MemKind kind) const
    {
        return kind == MemKind::Dram
                   ? _dramNext - (MemLayout::kDramBase + MiB(1))
                   : _nvmNext - (MemLayout::kNvmBase + MiB(1));
    }

  private:
    Addr _dramNext;
    Addr _nvmNext;
};

} // namespace uhtm

#endif // UHTM_WORKLOADS_REGION_ALLOC_HH
