/**
 * @file
 * Dirty-block tracking for live migration.
 *
 * A DirtyTracker sits behind the VMM's guest-write hook while an
 * instance is re-virtualized: every write range the mediation layer
 * intercepts lands here as a [lba, lba+count) interval, clamped to
 * the deployed image (writes beyond it — the VMM's reserved region —
 * never migrate). Pre-copy rounds drain the set; writes racing a
 * round simply re-dirty and are picked up by the next one.
 *
 * The tracking invariant the migration correctness proof rests on:
 * from the instant the mediator intercepts are live (revirtualize's
 * ready callback) to the instant the guest is paused, every sector
 * whose content diverges from what the destination has *already been
 * credited with* is in (or re-enters) this set. Draining at pause
 * time therefore yields exactly the sectors stop-and-copy must move.
 */

#ifndef MIGRATE_DIRTY_TRACKER_HH
#define MIGRATE_DIRTY_TRACKER_HH

#include <algorithm>
#include <cstdint>

#include "simcore/interval_set.hh"
#include "simcore/types.hh"

namespace migrate {

/** The tracker. */
class DirtyTracker
{
  public:
    /** @param limitSectors image size; writes at/after it drop. */
    explicit DirtyTracker(sim::Lba limitSectors)
        : limit_(limitSectors)
    {
    }

    /** Record a guest write of [lba, lba+count), clamped. */
    void
    note(sim::Lba lba, std::uint64_t count)
    {
        if (lba >= limit_)
            return;
        sim::Lba end = std::min<sim::Lba>(lba + count, limit_);
        if (end > lba)
            set_.insert(lba, end);
    }

    /** Dirty sectors currently tracked. */
    sim::Lba dirtySectors() const { return set_.coveredCount(); }
    sim::Bytes
    dirtyBytes() const
    {
        return dirtySectors() * sim::kSectorSize;
    }
    bool empty() const { return set_.empty(); }

    void clear() { set_.clear(); }

  private:
    sim::IntervalSet set_;
    sim::Lba limit_;
};

} // namespace migrate

#endif // MIGRATE_DIRTY_TRACKER_HH
