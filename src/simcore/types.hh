/**
 * @file
 * Fundamental simulation types and time constants.
 *
 * Simulated time is kept in integer nanoseconds ("ticks"). All modules
 * express durations with the constants below so that unit mistakes are
 * grep-able.
 */

#ifndef SIMCORE_TYPES_HH
#define SIMCORE_TYPES_HH

#include <cstdint>
#include <functional>

namespace sim {

/** Simulated time in nanoseconds. */
using Tick = std::uint64_t;

/** A physical memory address in the simulated machine. */
using Addr = std::uint64_t;

/** A logical block address on a simulated disk (512-byte sectors). */
using Lba = std::uint64_t;

/** Size in bytes. */
using Bytes = std::uint64_t;

/** One nanosecond, the base tick unit. */
constexpr Tick kNs = 1;
/** One microsecond in ticks. */
constexpr Tick kUs = 1000 * kNs;
/** One millisecond in ticks. */
constexpr Tick kMs = 1000 * kUs;
/** One second in ticks. */
constexpr Tick kSec = 1000 * kMs;

/** Disk sector size used throughout (ATA/AHCI logical sector). */
constexpr Bytes kSectorSize = 512;

/**
 * Deployment-bandwidth token gate: gate(bytes, now) books a transfer
 * of `bytes` on a shared budget and returns the earliest tick it may
 * be issued (>= now). Charging happens on the call, so a caller
 * charges each transfer exactly once. cloud::CongestionController
 * hands out gates; the data-plane engines draw through them without
 * linking the control plane. An empty gate means unshaped.
 */
using RateGate = std::function<Tick(Bytes, Tick)>;

/** Convenience byte-size constants. */
constexpr Bytes kKiB = 1024;
constexpr Bytes kMiB = 1024 * kKiB;
constexpr Bytes kGiB = 1024 * kMiB;

/** @name Result-stream fingerprinting
 * FNV-1a-style fold over 64-bit words, used to condense a simulated
 * result stream (completion ticks, byte counts, event totals) into
 * one order-sensitive fingerprint. The sharded-kernel gates compare
 * these across shard counts: equal fingerprints == equal simulated
 * outcomes. */
/// @{
constexpr std::uint64_t kFingerprintSeed = 0xCBF29CE484222325ULL;

constexpr std::uint64_t
fingerprintMix(std::uint64_t h, std::uint64_t v)
{
    h ^= v;
    h *= 0x100000001B3ULL;
    return h;
}
/// @}

/** Convert ticks to floating-point seconds (for reporting only). */
constexpr double
toSeconds(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kSec);
}

/** Convert ticks to floating-point milliseconds (for reporting only). */
constexpr double
toMillis(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kMs);
}

/** Convert ticks to floating-point microseconds (for reporting only). */
constexpr double
toMicros(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kUs);
}

/** Convert a byte count and a tick duration to MB/s (10^6 bytes). */
constexpr double
toMBps(Bytes bytes, Tick dur)
{
    if (dur == 0)
        return 0.0;
    return (static_cast<double>(bytes) / 1e6) / toSeconds(dur);
}

} // namespace sim

#endif // SIMCORE_TYPES_HH
