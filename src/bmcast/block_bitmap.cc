#include "bmcast/block_bitmap.hh"

#include <map>
#include <mutex>

#include "simcore/logging.hh"

namespace bmcast {

namespace {

/**
 * Registry modelling serialized bitmap bytes at rest: the token
 * written to the reserved region maps to the interval list. (Sector
 * content in this simulation is a 64-bit token; see the file comment
 * in block_bitmap.hh.) Process-global and hit by every shard of a
 * sharded run, hence the lock; tokens are content hashes, so the
 * registry's contents are interleaving-independent.
 */
std::mutex savedStatesMu;

std::map<std::uint64_t,
         std::vector<sim::IntervalSet::Range>> &
savedStates()
{
    static std::map<std::uint64_t,
                    std::vector<sim::IntervalSet::Range>> reg;
    return reg;
}

std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    return h;
}

} // namespace

void
BlockBitmap::markFilled(sim::Lba lba, std::uint64_t count)
{
    sim::panicIfNot(lba + count <= total,
                    "bitmap mark beyond device: ", lba, "+", count);
    filled.insert(lba, lba + count);
}

bool
BlockBitmap::isFilled(sim::Lba lba, std::uint64_t count) const
{
    return filled.covers(lba, lba + count);
}

bool
BlockBitmap::anyEmpty(sim::Lba lba, std::uint64_t count) const
{
    return !isFilled(lba, count);
}

std::vector<sim::IntervalSet::Range>
BlockBitmap::emptyRanges(sim::Lba lba, std::uint64_t count) const
{
    return filled.gaps(lba, lba + count);
}

bool
BlockBitmap::claimForVmmWrite(sim::Lba lba, std::uint64_t count) const
{
    // The VMM only writes blocks with no fresher content anywhere in
    // them; a single FILLED sector vetoes the whole block.
    return !filled.intersects(lba, lba + count);
}

std::optional<sim::Lba>
BlockBitmap::firstEmpty(sim::Lba from) const
{
    return filled.firstGap(from, total);
}

std::uint64_t
BlockBitmap::serializeToken() const
{
    std::uint64_t h = 0xB1C457A0F00DULL;
    h = mix(h, total);
    for (const auto &[s, e] : filled.intervals()) {
        h = mix(h, s);
        h = mix(h, e);
    }
    if (h == 0)
        h = 1; // never collide with "unwritten"
    std::lock_guard<std::mutex> g(savedStatesMu);
    savedStates()[h] = filled.intervals();
    return h;
}

bool
BlockBitmap::restoreFromToken(std::uint64_t token)
{
    std::vector<sim::IntervalSet::Range> saved;
    {
        std::lock_guard<std::mutex> g(savedStatesMu);
        auto it = savedStates().find(token);
        if (it == savedStates().end())
            return false;
        saved = it->second;
    }
    filled.clear();
    for (const auto &[s, e] : saved)
        filled.insert(s, e);
    return true;
}

} // namespace bmcast
