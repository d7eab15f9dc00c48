/**
 * @file
 * BMcast VMM parameters. Paper-derived values are annotated with
 * their source section.
 */

#ifndef BMCAST_PARAMS_HH
#define BMCAST_PARAMS_HH

#include "simcore/types.hh"

namespace bmcast {

/** Background-copy moderation (paper §3.3): three knobs. */
struct ModerationParams
{
    /**
     * If guest disk I/O frequency (ops/s over the trailing window)
     * exceeds this threshold, the writer suspends.
     */
    double guestIoFreqThreshold = 24.0;
    /** Interval between background writes when the guest is quiet. */
    sim::Tick vmmWriteInterval = 12 * sim::kMs;
    /** Sleep when the guest is busy. */
    sim::Tick vmmWriteSuspendInterval = 200 * sim::kMs;
    /** Window over which guest I/O frequency is measured. */
    sim::Tick guestIoWindow = 1 * sim::kSec;
};

/** VMM configuration. */
struct VmmParams
{
    /** Network boot time of the minimized VMM (paper §5.1: 5 s,
     *  6x faster than KVM's 30 s host boot). */
    sim::Tick bootTime = 5 * sim::kSec;

    /** Memory reserved from the guest via the BIOS map (§4.3:
     *  128 MB, not yet released after de-virtualization). */
    sim::Bytes reservedBytes = 128 * sim::kMiB;
    /** Where the reservation sits in the physical map. */
    sim::Addr reservedBase = 0x78000000; // 2 GiB - 128 MiB

    /** Preemption-timer polling interval (§4.1: estimated from
     *  recent RTT and I/O latency; this is the default). */
    sim::Tick pollInterval = 100 * sim::kUs;
    /** CPU consumed by one poll pass (drivers + mediators). */
    sim::Tick pollCost = 4 * sim::kUs;

    /** Sectors per background-copy block (Fig. 14 uses 1024 KB). */
    std::uint32_t copyBlockSectors = 2048;

    /** Depth of the retriever->writer FIFO (blocks). */
    std::size_t copyFifoDepth = 8;

    ModerationParams moderation;

    /**
     * Deployment-phase cost profile inputs (paper §5.2): TLB miss
     * rate up to 5x, miss latency 2x under nested paging; ~6% total
     * CPU (5% deployment threads + 1% VMM core).
     */
    double tlbMissRateMult = 5.0;
    double tlbMissLatencyMult = 2.0;
    double deployCpuWork = 0.05;
    double coreCpuWork = 0.01;
    /** BMcast's own cache footprint is small. */
    double cachePollution = 0.01;
    /** RDMA latency overhead while deploying (§5.5.3: <1%). */
    double rdmaOverheadDeploy = 0.008;

    /** Reserved on-disk region (block bitmap + dummy sector) size. */
    std::uint32_t reservedDiskSectors = 2048;

    /** AoE target (shelf/slot) holding this instance's image. */
    std::uint16_t aoeMajor = 0;
    std::uint8_t aoeMinor = 0;

    /**
     * Per-request AoE retry budget before the VMM's error handler
     * runs (failover / degradation); negative = retry forever.
     * Forwarded to InitiatorParams::maxRetries.
     */
    int aoeMaxRetries = 24;
    /** Floor for the AoE retransmission timeout. */
    sim::Tick aoeMinTimeout = 80 * sim::kMs;
};

} // namespace bmcast

#endif // BMCAST_PARAMS_HH
