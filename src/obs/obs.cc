#include "obs/obs.hh"

namespace obs {

namespace detail {
constinit thread_local bool gArmed = false;
constinit thread_local Tracer *gTracer = nullptr;
constinit thread_local ClockFn gClockFn = nullptr;
constinit thread_local const void *gClockCtx = nullptr;
constinit thread_local Registry *gMetrics = nullptr;
constinit thread_local std::uint64_t gMetricsEpoch = 0;
} // namespace detail

void
arm(Tracer *t)
{
    detail::gTracer = t;
    detail::gArmed = t != nullptr;
    if (t == nullptr) {
        detail::gClockFn = nullptr;
        detail::gClockCtx = nullptr;
    }
}

void
setClock(sim::Tick (*fn)(const void *), const void *ctx)
{
    detail::gClockFn = fn;
    detail::gClockCtx = ctx;
}

void
setMetrics(Registry *r)
{
    detail::gMetrics = r;
    ++detail::gMetricsEpoch;
}

} // namespace obs
