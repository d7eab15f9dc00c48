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
};

/** Memory reserved from the guest via the BIOS map (§4.3: 128 MB,
 *  not yet released after de-virtualization). */
inline constexpr sim::Bytes kReservedBytes = 128 * sim::kMiB;
/** Where the reservation sits in the physical map. */
inline constexpr sim::Addr kReservedBase = 0x78000000; // 2 GiB - 128 MiB

/** VMM configuration. */
struct VmmParams
{
    /** Network boot time of the minimized VMM (paper §5.1: 5 s,
     *  6x faster than KVM's 30 s host boot). */
    sim::Tick bootTime = 5 * sim::kSec;

    /** Sectors per background-copy block (Fig. 14 uses 1024 KB). */
    std::uint32_t copyBlockSectors = 2048;

    ModerationParams moderation;

    /** AoE shelf holding this instance's image (slot 0). */
    std::uint16_t aoeMajor = 0;

    /**
     * Per-request AoE retry budget before the VMM's error handler
     * runs (failover / degradation); negative = retry forever.
     * Forwarded to InitiatorParams::maxRetries.
     */
    int aoeMaxRetries = 24;
};

} // namespace bmcast

#endif // BMCAST_PARAMS_HH
