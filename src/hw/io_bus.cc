#include "hw/io_bus.hh"

#include "simcore/logging.hh"

namespace hw {

std::map<sim::Addr, IoBus::Range> &
IoBus::spaceMap(IoSpace space)
{
    return space == IoSpace::Pio ? pio : mmio;
}

void
IoBus::addDevice(IoSpace space, sim::Addr base, sim::Addr size,
                 IoDevice dev)
{
    sim::panicIfNot(size > 0, "zero-size device range");
    auto &m = spaceMap(space);
    // Overlap check against neighbours.
    auto next = m.lower_bound(base);
    if (next != m.end())
        sim::fatalIf(base + size > next->first,
                     "device range overlap adding ", dev.name);
    if (next != m.begin()) {
        auto prev = std::prev(next);
        sim::fatalIf(prev->first + prev->second.size > base,
                     "device range overlap adding ", dev.name);
    }
    m.emplace(base, Range{base, size, std::move(dev), nullptr});
}

IoBus::Range *
IoBus::findRange(IoSpace space, sim::Addr addr)
{
    auto &m = spaceMap(space);
    auto it = m.upper_bound(addr);
    if (it == m.begin())
        return nullptr;
    --it;
    Range &r = it->second;
    if (addr >= r.base && addr < r.base + r.size)
        return &r;
    return nullptr;
}

void
IoBus::intercept(IoSpace space, sim::Addr base, sim::Addr size,
                 IoInterceptor *handler)
{
    // Interception granularity is the device range: every device range
    // overlapping the requested window gets the interceptor.
    bool any = false;
    for (auto &[b, r] : spaceMap(space)) {
        if (r.base < base + size && base < r.base + r.size) {
            r.interceptor = handler;
            any = true;
        }
    }
    sim::fatalIf(!any, "intercept window matches no device range");
}

void
IoBus::removeIntercept(IoSpace space, sim::Addr base, sim::Addr size)
{
    for (auto &[b, r] : spaceMap(space)) {
        if (r.base < base + size && base < r.base + r.size)
            r.interceptor = nullptr;
    }
}

bool
IoBus::anyInterceptActive() const
{
    for (const auto &[b, r] : pio)
        if (r.interceptor)
            return true;
    for (const auto &[b, r] : mmio)
        if (r.interceptor)
            return true;
    return false;
}

std::uint64_t
IoBus::interceptedIn(IoSpace space, sim::Addr base,
                     sim::Addr size) const
{
    const auto &m = space == IoSpace::Pio ? pio : mmio;
    std::uint64_t n = 0;
    for (const auto &[b, r] : m)
        if (r.base < base + size && base < r.base + r.size)
            n += r.numIntercepted;
    return n;
}

std::uint64_t
IoBus::deviceRead(Range &r, sim::Addr addr, unsigned size)
{
    if (!r.dev.read)
        return ~0ULL;
    return r.dev.read(addr - r.base, size);
}

void
IoBus::deviceWrite(Range &r, sim::Addr addr, std::uint64_t value,
                   unsigned size)
{
    if (r.dev.write)
        r.dev.write(addr - r.base, value, size);
}

std::uint64_t
IoBus::guestRead(IoSpace space, sim::Addr addr, unsigned size)
{
    Range *r = findRange(space, addr);
    if (!r) {
        // Reads from unmapped I/O space float high, as on real x86.
        return ~0ULL;
    }
    if (r->interceptor) {
        ++numIntercepted;
        ++r->numIntercepted;
        if (exitSink)
            exitSink->ioExit(space, addr, false);
        std::uint64_t value = 0;
        if (r->interceptor->interceptRead(addr, size, value))
            return value;
    }
    return deviceRead(*r, addr, size);
}

void
IoBus::guestWrite(IoSpace space, sim::Addr addr, std::uint64_t value,
                  unsigned size)
{
    Range *r = findRange(space, addr);
    if (!r)
        return;
    if (r->interceptor) {
        ++numIntercepted;
        ++r->numIntercepted;
        if (exitSink)
            exitSink->ioExit(space, addr, true);
        if (r->interceptor->interceptWrite(addr, value, size))
            return;
    }
    deviceWrite(*r, addr, value, size);
}

std::uint64_t
IoBus::vmmRead(IoSpace space, sim::Addr addr, unsigned size)
{
    Range *r = findRange(space, addr);
    if (!r)
        return ~0ULL;
    return deviceRead(*r, addr, size);
}

void
IoBus::vmmWrite(IoSpace space, sim::Addr addr, std::uint64_t value,
                unsigned size)
{
    Range *r = findRange(space, addr);
    if (!r)
        return;
    deviceWrite(*r, addr, value, size);
}

} // namespace hw
