#include "obs/tracer.hh"

#include <atomic>
#include <stdexcept>

namespace obs {

namespace {

std::uint64_t
nextEpoch()
{
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

Tracer::Tracer(std::size_t capacity) : epoch_(nextEpoch())
{
    if (capacity == 0)
        throw std::invalid_argument("Tracer capacity must be non-zero");
    ring_.resize(capacity);
    trackNames_.reserve(64);
    depth_.reserve(64);
    // Track 0 is the catch-all for records without a component.
    track("sim");
}

Tracer::~Tracer() = default;

std::uint32_t
Tracer::track(const std::string &name)
{
    for (std::size_t i = 0; i < trackNames_.size(); ++i) {
        if (trackNames_[i] == name)
            return static_cast<std::uint32_t>(i);
    }
    trackNames_.push_back(name);
    depth_.push_back(0);
    return static_cast<std::uint32_t>(trackNames_.size() - 1);
}

const std::string &
Tracer::trackName(std::uint32_t track) const
{
    if (track >= trackNames_.size())
        throw std::out_of_range("trackName: bad track id");
    return trackNames_[track];
}

} // namespace obs
