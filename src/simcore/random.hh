/**
 * @file
 * Deterministic random number generation for simulations.
 *
 * Every component gets its own Rng (seeded from a name hash + a global
 * experiment seed) so that adding a component does not perturb the
 * random streams of others.
 */

#ifndef SIMCORE_RANDOM_HH
#define SIMCORE_RANDOM_HH

#include <cstdint>
#include <string>

#include "simcore/types.hh"

namespace sim {

/**
 * A small, fast, deterministic PRNG (splitmix64-seeded xoshiro256**).
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /** Derive a deterministic seed from a string and base seed. */
    static std::uint64_t seedFrom(const std::string &name,
                                  std::uint64_t base);

    /**
     * Derive an independent per-shard stream: counter-mode mix of
     * the base seed with the shard/rack index before the name hash,
     * so every rack of a sharded experiment draws from its own
     * stream — identically-named components in different racks never
     * share draws, and adding a rack never perturbs another rack's
     * stream. shard 0 is NOT the plain seedFrom stream; the mix is
     * applied for every index so rack 0 is no more special than
     * rack 7.
     */
    static std::uint64_t seedForShard(const std::string &name,
                                      std::uint64_t base,
                                      unsigned shard);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform in [0, 1). */
    double uniform();

    /** Uniform integer in [lo, hi] (inclusive). */
    std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [lo, hi). */
    double uniformReal(double lo, double hi);

    /** Exponential with the given mean. */
    double exponential(double mean);

    /** Bernoulli trial. */
    bool chance(double p);

    /**
     * Zipfian-distributed integer in [0, n) with skew theta
     * (YCSB-style request popularity).
     */
    std::uint64_t zipf(std::uint64_t n, double theta = 0.99);

  private:
    std::uint64_t s[4];

    // Zipf cache (recomputed when n or theta changes).
    std::uint64_t zipfN = 0;
    double zipfTheta = 0.0;
    double zipfZetaN = 0.0;
    double zipfAlpha = 0.0;
    double zipfEta = 0.0;
    double zipfZeta2 = 0.0;
};

} // namespace sim

#endif // SIMCORE_RANDOM_HH
