/**
 * @file
 * DMA data movement between simulated memory buffers and disk
 * content. Buffers hold one 8-byte content token at the start of each
 * 512-byte sector slot (see hw/disk_store.hh).
 */

#ifndef HW_DMA_HH
#define HW_DMA_HH

#include <cstdint>
#include <vector>

#include "hw/disk_store.hh"
#include "hw/phys_mem.hh"
#include "simcore/types.hh"

namespace hw {

/** One scatter/gather element (a PRD or PRDT entry). */
struct SgEntry
{
    sim::Addr addr = 0;
    sim::Bytes bytes = 0;
};

/**
 * Device-to-memory DMA: place the token for each sector of
 * [lba, lba+count) at that sector's position in the scatter list.
 * Each SG element must be a multiple of the sector size.
 */
void dmaToMemory(PhysMem &mem, const std::vector<SgEntry> &sg,
                 const DiskStore &store, sim::Lba lba,
                 std::uint32_t count);

/**
 * Memory-to-device DMA: read the token at each sector slot, recover
 * the content base, coalesce runs and write them to the store.
 */
void dmaFromMemory(PhysMem &mem, const std::vector<SgEntry> &sg,
                   DiskStore &store, sim::Lba lba, std::uint32_t count);

/**
 * Fill a contiguous buffer with tokens for [lba, lba+count) derived
 * from @p base — used by producers of data (guests writing their own
 * content, the AoE server materializing image sectors).
 */
void fillTokenBuffer(PhysMem &mem, sim::Addr addr, sim::Lba lba,
                     std::uint32_t count, std::uint64_t base);

/** Read the token stored at one sector slot of a buffer. */
std::uint64_t bufferTokenAt(const PhysMem &mem, sim::Addr addr,
                            std::uint32_t sectorIndex);

} // namespace hw

#endif // HW_DMA_HH
