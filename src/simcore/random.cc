#include "simcore/random.hh"

#include <cmath>

#include "simcore/logging.hh"

namespace sim {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &word : s)
        word = splitmix64(x);
}

std::uint64_t
Rng::seedFrom(const std::string &name, std::uint64_t base)
{
    // FNV-1a over the name, mixed with the base seed.
    std::uint64_t h = 0xCBF29CE484222325ULL ^ base;
    for (unsigned char c : name) {
        h ^= c;
        h *= 0x100000001B3ULL;
    }
    return h;
}

std::uint64_t
Rng::seedForShard(const std::string &name, std::uint64_t base,
                  unsigned shard)
{
    // Counter-mode: run the splitmix64 counter `shard + 1` steps
    // from the base seed, then hash the name against that stream
    // value. One step per index keeps neighboring racks' streams as
    // far apart as unrelated seeds.
    std::uint64_t x = base;
    std::uint64_t mixed = base;
    for (unsigned i = 0; i <= shard; ++i)
        mixed = splitmix64(x);
    return seedFrom(name, mixed);
}

std::uint64_t
Rng::next()
{
    std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
Rng::uniformInt(std::uint64_t lo, std::uint64_t hi)
{
    panicIfNot(lo <= hi, "uniformInt: lo > hi");
    std::uint64_t span = hi - lo + 1;
    if (span == 0) // full 64-bit range
        return next();
    return lo + next() % span;
}

double
Rng::uniformReal(double lo, double hi)
{
    return lo + uniform() * (hi - lo);
}

double
Rng::exponential(double mean)
{
    double u = uniform();
    if (u <= 0.0)
        u = 1e-18;
    return -mean * std::log(u);
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

std::uint64_t
Rng::zipf(std::uint64_t n, double theta)
{
    panicIfNot(n > 0, "zipf over empty range");
    if (n == 1)
        return 0;

    if (zipfN != n || zipfTheta != theta) {
        // Gray et al. incremental zeta; O(n) once per (n, theta).
        double zeta_n = 0.0;
        for (std::uint64_t i = 1; i <= n; ++i)
            zeta_n += 1.0 / std::pow(static_cast<double>(i), theta);
        zipfZeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
        zipfZetaN = zeta_n;
        zipfAlpha = 1.0 / (1.0 - theta);
        zipfEta = (1.0 - std::pow(2.0 / static_cast<double>(n),
                                  1.0 - theta)) /
                  (1.0 - zipfZeta2 / zeta_n);
        zipfN = n;
        zipfTheta = theta;
    }

    double u = uniform();
    double uz = u * zipfZetaN;
    if (uz < 1.0)
        return 0;
    if (uz < zipfZeta2)
        return 1;
    auto idx = static_cast<std::uint64_t>(
        static_cast<double>(n) *
        std::pow(zipfEta * u - zipfEta + 1.0, zipfAlpha));
    if (idx >= n)
        idx = n - 1;
    return idx;
}

} // namespace sim
