/**
 * @file
 * A trivial bump allocator over a region of simulated physical
 * memory. Drivers carve descriptor rings, command tables and DMA
 * buffers out of an arena: guests allocate from guest RAM, the BMcast
 * VMM from its BIOS-reserved region.
 */

#ifndef HW_MEM_ARENA_HH
#define HW_MEM_ARENA_HH

#include "simcore/logging.hh"
#include "simcore/types.hh"

namespace hw {

/** Bump allocator over [base, base+size). */
class MemArena
{
  public:
    MemArena(sim::Addr base, sim::Bytes size)
        : base_(base), size_(size), next(base) {}

    /** Allocate @p bytes aligned to @p align (a power of two). */
    sim::Addr
    alloc(sim::Bytes bytes, sim::Bytes align = 8)
    {
        sim::Addr a = (next + align - 1) & ~(align - 1);
        sim::fatalIf(a + bytes > base_ + size_,
                     "memory arena exhausted (", bytes, " bytes)");
        next = a + bytes;
        return a;
    }

    sim::Addr base() const { return base_; }
    sim::Bytes size() const { return size_; }

  private:
    sim::Addr base_;
    sim::Bytes size_;
    sim::Addr next;
};

} // namespace hw

#endif // HW_MEM_ARENA_HH
