/**
 * @file
 * The consistency bitmap of §3.3: tracks which local-disk blocks hold
 * valid content (FILLED) versus not-yet-deployed blocks (EMPTY).
 *
 * The atomic check-then-write rule that prevents the background copy
 * from clobbering fresher guest data is `claimForVmmWrite()`:
 * the writer thread may only write a block it successfully claimed,
 * and a guest write (which marks FILLED immediately at command issue)
 * makes any later claim fail.
 *
 * Persistence (§3.3): the VMM saves the bitmap into an unused
 * on-disk region so deployment survives shutdown/reboot. Sector
 * content in this simulation is a 64-bit token, so the serialized
 * bitmap bytes are modelled by a registry keyed by the content token
 * actually written to the region — a reload must read the exact
 * token back from the disk to recover the state, preserving the
 * failure modes (a guest overwrite of the region would destroy it,
 * which is why the mediators convert guest access to the region into
 * dummy reads).
 */

#ifndef BMCAST_BLOCK_BITMAP_HH
#define BMCAST_BLOCK_BITMAP_HH

#include <cstdint>
#include <vector>

#include "simcore/interval_set.hh"
#include "simcore/types.hh"

namespace bmcast {

/** FILLED-state tracker over [0, totalSectors). */
class BlockBitmap
{
  public:
    explicit BlockBitmap(sim::Lba totalSectors)
        : total(totalSectors) {}

    /** Mark [lba, lba+count) FILLED (guest write at issue time, or
     *  completed VMM copy). */
    void markFilled(sim::Lba lba, std::uint64_t count);

    /** True if the whole range is FILLED. */
    bool isFilled(sim::Lba lba, std::uint64_t count) const;

    /** True if any sector of the range is EMPTY. */
    bool anyEmpty(sim::Lba lba, std::uint64_t count) const;

    /** EMPTY sub-ranges of [lba, lba+count), ascending. */
    std::vector<sim::IntervalSet::Range>
    emptyRanges(sim::Lba lba, std::uint64_t count) const;

    /**
     * Visit the EMPTY sub-ranges of [lba, lba+count) in ascending
     * order without allocating (see IntervalSet::forEachGap). This
     * is the form the hot copy-on-read redirection path uses.
     */
    template <typename Visitor>
    void
    forEachEmpty(sim::Lba lba, std::uint64_t count,
                 Visitor &&visit) const
    {
        filled.forEachGap(lba, lba + count,
                          std::forward<Visitor>(visit));
    }

    /**
     * Atomic check for the background writer: true (and the caller
     * may write) only if the whole block is still EMPTY. Does NOT
     * mark; the writer marks FILLED at write completion.
     */
    bool claimForVmmWrite(sim::Lba lba, std::uint64_t count) const;

    /** First EMPTY sector at or after @p from (wrapping not done
     *  here); std::nullopt when [from, total) is fully FILLED. */
    std::optional<sim::Lba> firstEmpty(sim::Lba from) const;

    /** Sectors FILLED so far. */
    sim::Lba filledCount() const { return filled.coveredCount(); }
    /** True when every sector is FILLED. */
    bool complete() const { return filledCount() == total; }

    std::size_t extentCount() const { return filled.intervalCount(); }

    /** @name Persistence (see file comment). */
    /// @{
    /** Serialize to an opaque token to be written to the reserved
     *  disk region. */
    std::uint64_t serializeToken() const;
    /** Recover state from a token read back from disk.
     *  @retval false the token does not correspond to a saved bitmap
     *  (fresh disk or corrupted region). */
    bool restoreFromToken(std::uint64_t token);
    /// @}

  private:
    sim::Lba total;
    sim::IntervalSet filled;
};

} // namespace bmcast

#endif // BMCAST_BLOCK_BITMAP_HH
