/**
 * @file
 * Mechanical disk service model (the Seagate Constellation.2-class
 * SATA drive of the paper's testbed).
 *
 * Service time per request:
 *   - on-disk cache hit (small, recently touched range): fixed cost —
 *     this is what makes the mediator's dummy-sector interrupt trick
 *     cheap (paper §3.2);
 *   - sequential continuation of the previous access: transfer only;
 *   - otherwise: distance-dependent seek + random rotational delay +
 *     transfer at the media rate.
 *
 * Requests are serviced one at a time in FIFO order; queueing delay is
 * therefore visible to the guest when the VMM multiplexes its own
 * background-copy writes onto the shared disk (Fig. 11's +4.3 ms).
 */

#ifndef HW_DISK_HH
#define HW_DISK_HH

#include <deque>
#include <functional>

#include "hw/disk_store.hh"
#include "simcore/fault_injector.hh"
#include "simcore/random.hh"
#include "simcore/sim_object.hh"
#include "simcore/stats.hh"

namespace hw {

/** Mechanical and interface parameters. */
struct DiskParams
{
    /** Usable capacity (paper: 500 GB drive). */
    sim::Bytes capacityBytes = 500ULL * 1000 * 1000 * 1000;
    /** Streaming media read rate, MB/s (calibrated to fio ~116.6). */
    double readMBps = 118.0;
    /** Streaming media write rate, MB/s (calibrated to fio ~111.9). */
    double writeMBps = 113.0;
    /** Track-to-track seek. */
    sim::Tick minSeek = 600 * sim::kUs;
    /** Full-stroke seek. */
    sim::Tick maxSeek = 14 * sim::kMs;
    /** One platter revolution (7200 rpm: 8.33 ms). */
    sim::Tick revolution = 8333 * sim::kUs;
    /** Service time for an on-disk cache hit. */
    sim::Tick cacheHitTime = 120 * sim::kUs;
    /** Per-command fixed overhead. */
    sim::Tick commandOverhead = 60 * sim::kUs;
    /** Requests at most this many sectors are cache-trackable. */
    std::uint32_t cacheTrackLimit = 64;
    /** Distinct cached small ranges remembered (tiny LRU). */
    std::size_t cacheSlots = 64;
};

/** One request as seen by the disk (data movement is the
 *  controller's job; the disk provides timing and the store). */
struct DiskRequest
{
    bool isWrite = false;
    sim::Lba lba = 0;
    std::uint32_t sectors = 0;
    /** Invoked at media-completion time. */
    std::function<void()> done;
};

/** The drive. */
class Disk : public sim::SimObject
{
  public:
    Disk(sim::EventQueue &eq, std::string name, DiskParams params,
         std::uint64_t seed = 1);

    /** Enqueue a request; completions run in FIFO order. */
    void submit(DiskRequest req);

    /** Content of the platters. */
    DiskStore &store() { return store_; }
    const DiskStore &store() const { return store_; }

    sim::Lba capacitySectors() const { return capSectors; }
    const DiskParams &params() const { return params_; }

    std::size_t queueDepth() const { return queue.size() + (active ? 1 : 0); }

    /** @name Telemetry */
    /// @{
    std::uint64_t reads() const { return numReads; }
    std::uint64_t writes() const { return numWrites; }
    sim::Bytes bytesRead() const { return readBytes; }
    sim::Bytes bytesWritten() const { return writeBytes; }
    std::uint64_t cacheHits() const { return numCacheHits; }
    std::uint64_t seeks() const { return numSeeks; }
    /** Total media busy time (utilization = busyTime / elapsed). */
    sim::Tick busyTime() const { return mediaBusy; }
    /** Injected media errors recovered by drive-internal retries. */
    std::uint64_t mediaRetries() const { return numMediaRetries; }
    /// @}

    /**
     * Attach a fault injector (nullptr detaches).  Consulted per
     * request for DiskReadError / DiskWriteError (keyed by LBA; the
     * drive recovers with internal retries that cost extra
     * revolutions) and DiskLatencySpike (one request takes an extra
     * plan-magnitude delay).
     */
    void setFaultInjector(sim::FaultInjector *fi) { faults = fi; }

  private:
    void startNext();
    sim::Tick serviceTime(const DiskRequest &req);
    bool cacheHit(const DiskRequest &req) const;
    void cacheInsert(const DiskRequest &req);

    DiskParams params_;
    sim::Lba capSectors;
    sim::Rng rng;
    sim::FaultInjector *faults = nullptr;
    DiskStore store_;

    std::deque<DiskRequest> queue;
    bool active = false;
    sim::Lba headPos = 0;

    /** Tiny LRU of (lba, sectors) small ranges held in the drive
     *  cache; front = most recent. */
    std::deque<std::pair<sim::Lba, std::uint32_t>> cacheLru;

    std::uint64_t numReads = 0;
    std::uint64_t numWrites = 0;
    sim::Bytes readBytes = 0;
    sim::Bytes writeBytes = 0;
    std::uint64_t numCacheHits = 0;
    std::uint64_t numSeeks = 0;
    std::uint64_t numMediaRetries = 0;
    sim::Tick mediaBusy = 0;
};

} // namespace hw

#endif // HW_DISK_HH
