/**
 * @file
 * Tests of the observability subsystem (sim::obs): tracer span
 * nesting and ring-wrap behaviour, flow/async integrity over a real
 * deployment, histogram bucket boundaries, exporter golden outputs,
 * logging timestamps/filters, and the central contract — an armed
 * run is tick-identical to a disarmed one.
 */

#include <map>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "bmcast/deployer.hh"
#include "obs/chrome_trace.hh"
#include "obs/obs.hh"
#include "obs/registry.hh"
#include "obs/run_report.hh"
#include "obs/tracer.hh"
#include "tests/test_util.hh"

using namespace testutil;

namespace {

// ---------------------------------------------------------------- Tracer

TEST(ObsTracer, SpanNestingDepthAndViolations)
{
    obs::Tracer t(64);
    const std::uint32_t tr = t.track("comp");

    EXPECT_EQ(t.spanDepth(tr), 0u);
    t.spanBegin(tr, "cat", "outer", 100);
    t.spanBegin(tr, "cat", "inner", 100);
    EXPECT_EQ(t.spanDepth(tr), 2u);
    t.spanEnd(tr, 100);
    t.spanEnd(tr, 100);
    EXPECT_EQ(t.spanDepth(tr), 0u);
    EXPECT_EQ(t.nestingViolations(), 0u);

    t.spanEnd(tr, 200); // unmatched
    EXPECT_EQ(t.nestingViolations(), 1u);
}

TEST(ObsTracer, RingWrapKeepsNewestAndCountsDropped)
{
    obs::Tracer t(8);
    for (sim::Tick i = 0; i < 20; ++i)
        t.instant(0, "cat", "e", i);

    EXPECT_EQ(t.capacity(), 8u);
    EXPECT_EQ(t.size(), 8u);
    EXPECT_EQ(t.recorded(), 20u);
    EXPECT_EQ(t.dropped(), 12u);

    // forEach visits survivors oldest-first: ts 12..19.
    sim::Tick expect = 12;
    t.forEach([&](const obs::TraceRecord &r) {
        EXPECT_EQ(r.ts, expect);
        ++expect;
    });
    EXPECT_EQ(expect, 20);
}

TEST(ObsTracer, MilestonesSurviveRingWrap)
{
    obs::Tracer t(4);
    t.milestone(0, "deploy.power_on", 1);
    for (sim::Tick i = 0; i < 100; ++i)
        t.instant(0, "cat", "noise", i);

    ASSERT_EQ(t.milestones().size(), 1u);
    EXPECT_STREQ(t.milestones()[0].name, "deploy.power_on");
    EXPECT_EQ(t.milestonesDropped(), 0u);
    EXPECT_EQ(t.size(), 4u); // the ring itself wrapped
}

TEST(ObsTracer, TrackInterningIsIdempotent)
{
    obs::Tracer t(8);
    EXPECT_EQ(t.track("a"), 1u); // 0 is the builtin "sim"
    EXPECT_EQ(t.track("b"), 2u);
    EXPECT_EQ(t.track("a"), 1u);
    EXPECT_EQ(t.trackName(2), "b");
    EXPECT_THROW(t.trackName(99), std::out_of_range);
    EXPECT_THROW(obs::Tracer(0), std::invalid_argument);
}

TEST(ObsTracer, TrackCacheReinternsAcrossTracers)
{
    obs::Track cached("x");
    obs::Tracer t1(8);
    EXPECT_EQ(cached.id(t1), 1u);

    obs::Tracer t2(8);
    t2.track("y"); // shift the namespace so a stale id would show
    EXPECT_EQ(cached.id(t2), 2u);
    EXPECT_EQ(t2.trackName(2), "x");
}

TEST(ObsTracer, ScopedSpanRecordsOnlyWhenArmed)
{
    obs::Track track("comp");
    {
        obs::ScopedSpan s(track, "cat", "work", 5);
    }
    // Disarmed: nothing anywhere to record into, and no crash.

    obs::Tracer t(16);
    obs::arm(&t);
    {
        obs::ScopedSpan s(track, "cat", "work", 5);
        EXPECT_EQ(t.spanDepth(track.id(t)), 1u);
    }
    obs::disarm();
    EXPECT_EQ(t.recorded(), 2u);
    EXPECT_EQ(t.spanDepth(track.id(t)), 0u);
    EXPECT_EQ(t.nestingViolations(), 0u);
}

TEST(ObsFacade, ArmDisarmAndClock)
{
    EXPECT_FALSE(obs::armed());
    obs::Tracer t(8);
    obs::arm(&t);
    EXPECT_TRUE(obs::armed());
    EXPECT_EQ(&obs::tracer(), &t);

    sim::Tick fake = 1234;
    obs::setClock(
        [](const void *p) { return *static_cast<const sim::Tick *>(p); },
        &fake);
    EXPECT_EQ(obs::now(), 1234u);

    obs::disarm();
    EXPECT_FALSE(obs::armed());
    EXPECT_EQ(obs::now(), 0u); // disarming clears the clock
}

// ------------------------------------------------------------- Histogram

TEST(ObsHistogram, BucketBoundaries)
{
    using H = obs::Histogram;
    // Values 0..15 get exact buckets.
    for (std::uint64_t v = 0; v < 16; ++v) {
        EXPECT_EQ(H::bucketIndex(v), v);
        EXPECT_EQ(H::lowerBound(v), v);
    }
    // First log-linear octave starts exactly at 16.
    EXPECT_EQ(H::bucketIndex(16), 16u);
    EXPECT_EQ(H::lowerBound(16), 16u);
    EXPECT_EQ(H::bucketIndex(31), 31u);
    EXPECT_EQ(H::lowerBound(H::bucketIndex(32)), 32u);

    // Containment + bounded relative error across the range.
    for (std::uint64_t v : {17ULL, 100ULL, 1000ULL, 65535ULL,
                            1ULL << 20, (1ULL << 40) + 12345,
                            ~0ULL}) {
        const std::size_t idx = H::bucketIndex(v);
        ASSERT_LT(idx, H::kNumBuckets);
        EXPECT_LE(H::lowerBound(idx), v);
        if (idx + 1 < H::kNumBuckets && v != ~0ULL) {
            EXPECT_LT(v, H::lowerBound(idx + 1));
        }
        // Log-linear guarantee: bucket width <= lowerBound / 16.
        if (idx >= 16 && idx + 1 < H::kNumBuckets) {
            EXPECT_LE(H::lowerBound(idx + 1) - H::lowerBound(idx),
                      H::lowerBound(idx) / 16);
        }
    }
}

TEST(ObsHistogram, StatsAndQuantiles)
{
    obs::Histogram h;
    EXPECT_EQ(h.quantile(0.5), 0u);
    for (std::uint64_t v = 1; v <= 8; ++v)
        h.record(v);

    EXPECT_EQ(h.count(), 8u);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 8u);
    EXPECT_DOUBLE_EQ(h.mean(), 4.5);
    // Values < 16 land in exact buckets, so quantiles are exact.
    EXPECT_EQ(h.quantile(0.0), 1u);
    EXPECT_EQ(h.quantile(0.50), 4u);
    EXPECT_EQ(h.quantile(0.75), 6u);
    EXPECT_EQ(h.quantile(1.0), 8u);
}

// -------------------------------------------------------------- Registry

TEST(ObsRegistry, FindOrCreateAndLookup)
{
    obs::Registry reg;
    reg.counter("kernel.executed").add(41);
    reg.counter("kernel.executed").add(1); // same node
    reg.counter("mediator.vmm_ops", "ide").add(3);
    reg.gauge("load", "node0").set(1.25);
    reg.histogram("rtt").record(100);

    EXPECT_EQ(reg.size(), 4u);
    ASSERT_NE(reg.findCounter("kernel.executed"), nullptr);
    EXPECT_EQ(reg.findCounter("kernel.executed")->value, 42u);
    EXPECT_EQ(reg.findCounter("mediator.vmm_ops", "ide")->value, 3u);
    EXPECT_EQ(reg.findCounter("mediator.vmm_ops", "ahci"), nullptr);
    EXPECT_DOUBLE_EQ(reg.findGauge("load", "node0")->value, 1.25);
    EXPECT_EQ(reg.findHistogram("rtt")->count(), 1u);
}

TEST(ObsRegistry, PrintTableRegistrationOrder)
{
    obs::Registry reg;
    reg.counter("z.first").set(7);
    reg.gauge("a.second").set(2.5);
    reg.histogram("m.third").record(4);

    std::ostringstream os;
    reg.printTable(os);
    const std::string s = os.str();

    // Registration order beats lexicographic order.
    const std::size_t z = s.find("z.first");
    const std::size_t a = s.find("a.second");
    const std::size_t m = s.find("m.third count");
    ASSERT_NE(z, std::string::npos);
    ASSERT_NE(a, std::string::npos);
    ASSERT_NE(m, std::string::npos);
    EXPECT_LT(z, a);
    EXPECT_LT(a, m);
    EXPECT_NE(s.find("2.50"), std::string::npos);
    EXPECT_NE(s.find("m.third p50"), std::string::npos);
}

TEST(ObsRegistry, JsonSnapshot)
{
    obs::Registry reg;
    reg.counter("c", "l\"x").set(5);
    reg.gauge("g").set(0.5);
    reg.histogram("h").record(10);

    std::ostringstream os;
    reg.writeJson(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("\"name\": \"c\", \"label\": \"l\\\"x\", "
                     "\"value\": 5"),
              std::string::npos);
    EXPECT_NE(s.find("\"name\": \"g\""), std::string::npos);
    EXPECT_NE(s.find("\"count\": 1"), std::string::npos);
    EXPECT_NE(s.find("\"p50\": 10"), std::string::npos);
}

// ---------------------------------------------------- Exporter goldens

TEST(ObsChromeTrace, GoldenOutput)
{
    obs::Tracer t(16);
    const std::uint32_t tr = t.track("alpha");

    t.spanBegin(tr, "cat", "work", 1000);
    t.instant(tr, "cat", "blip", 1500, 2.0);
    t.spanEnd(tr, 2000);
    t.asyncBegin(tr, "net", "frame", 7, 2500);
    t.asyncEnd(tr, "net", "frame", 7, 3999);
    t.flowBegin(tr, "aoe", "request", 42, 4000);
    t.flowEnd(tr, "aoe", "response", 42, 5001);
    t.counter(0, "pending", 6000, 3.5);

    std::ostringstream os;
    obs::writeChromeTrace(os, t);

    const std::string expected =
        "{\"traceEvents\":[\n"
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"bmcast-sim\"}},\n"
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"sim\"}},\n"
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,"
        "\"args\":{\"name\":\"alpha\"}},\n"
        "{\"ph\":\"B\",\"name\":\"work\",\"cat\":\"cat\",\"pid\":0,"
        "\"tid\":1,\"ts\":1},\n"
        "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"blip\",\"cat\":\"cat\","
        "\"args\":{\"value\":2},\"pid\":0,\"tid\":1,\"ts\":1.500},\n"
        "{\"ph\":\"E\",\"pid\":0,\"tid\":1,\"ts\":2},\n"
        "{\"ph\":\"b\",\"id\":7,\"name\":\"frame\",\"cat\":\"net\","
        "\"pid\":0,\"tid\":1,\"ts\":2.500},\n"
        "{\"ph\":\"e\",\"id\":7,\"name\":\"frame\",\"cat\":\"net\","
        "\"pid\":0,\"tid\":1,\"ts\":3.999},\n"
        "{\"ph\":\"s\",\"id\":42,\"name\":\"request\",\"cat\":\"aoe\","
        "\"pid\":0,\"tid\":1,\"ts\":4},\n"
        "{\"ph\":\"f\",\"id\":42,\"name\":\"response\","
        "\"cat\":\"aoe\",\"bp\":\"e\",\"pid\":0,\"tid\":1,"
        "\"ts\":5.001},\n"
        "{\"ph\":\"C\",\"name\":\"pending\",\"args\":{\"value\":3.5},"
        "\"pid\":0,\"tid\":0,\"ts\":6}\n"
        "],\"displayTimeUnit\":\"ns\"}\n";
    EXPECT_EQ(os.str(), expected);
}

TEST(ObsRunReport, GoldenOutput)
{
    obs::Tracer t(16);
    const std::uint32_t tr = t.track("alpha");
    // Recorded out of sim-time order; the report sorts.
    t.milestone(tr, "deploy.power_on", 500);
    t.milestone(0, "guest.boot_start", 100, 3.0);

    obs::RunReport r = obs::RunReport::build(t);
    ASSERT_EQ(r.events().size(), 2u);
    EXPECT_EQ(r.events()[0].name, "guest.boot_start");
    EXPECT_EQ(r.events()[1].name, "deploy.power_on");
    EXPECT_EQ(r.firstTs("deploy.power_on").value(), 500u);
    EXPECT_FALSE(r.firstTs("nope").has_value());
    EXPECT_EQ(r.count("guest.boot_start"), 1u);

    std::ostringstream os;
    r.writeJson(os);
    const std::string expected =
        "{\n"
        "  \"milestones\": [\n"
        "    {\"ts_ns\": 100, \"track\": \"sim\", "
        "\"name\": \"guest.boot_start\", \"value\": 3},\n"
        "    {\"ts_ns\": 500, \"track\": \"alpha\", "
        "\"name\": \"deploy.power_on\"}\n"
        "  ],\n"
        "  \"summary\": {\n"
        "    \"deploy.power_on\": {\"first_ns\": 500, "
        "\"last_ns\": 500, \"count\": 1},\n"
        "    \"guest.boot_start\": {\"first_ns\": 100, "
        "\"last_ns\": 100, \"count\": 1}\n"
        "  }\n"
        "}\n";
    EXPECT_EQ(os.str(), expected);
}

// --------------------------------------------------------------- Logging

TEST(ObsLogging, SimTimeStampsWhenClockInstalled)
{
    std::ostringstream err;
    auto *old = std::cerr.rdbuf(err.rdbuf());
    sim::warn("node0.vmm: plain");
    sim::setLogClock([]() { return 1500000000ULL; });
    sim::warn("node0.vmm: stamped");
    sim::setLogClock({});
    std::cerr.rdbuf(old);

    const std::string s = err.str();
    EXPECT_NE(s.find("warn: node0.vmm: plain\n"), std::string::npos);
    EXPECT_NE(s.find("warn: [1.500000000] node0.vmm: stamped\n"),
              std::string::npos);
}

TEST(ObsLogging, PerComponentLevelLongestPrefixWins)
{
    std::ostringstream err;
    auto *old = std::cerr.rdbuf(err.rdbuf());
    sim::setLogLevelFor("node0", sim::LogLevel::Quiet);
    sim::setLogLevelFor("node0.vmm", sim::LogLevel::Warn);
    sim::warn("node0.copy: suppressed by node0 override");
    sim::warn("node0.vmm: kept by the more specific override");
    sim::warn("node1: untouched component");
    sim::clearLogLevelOverrides();
    std::cerr.rdbuf(old);

    const std::string s = err.str();
    EXPECT_EQ(s.find("suppressed"), std::string::npos);
    EXPECT_NE(s.find("node0.vmm: kept"), std::string::npos);
    EXPECT_NE(s.find("node1: untouched"), std::string::npos);
}

// ---------------------------------------------- End-to-end determinism

struct Fingerprint
{
    std::uint64_t scheduled = 0;
    std::uint64_t executed = 0;
    sim::Tick guestBoot = 0;
    sim::Tick bareMetal = 0;
};

Fingerprint
deployOnce(obs::Tracer *tracer, obs::Registry *reg)
{
    Rig rig;
    if (tracer) {
        obs::arm(tracer);
        obs::setClock(
            [](const void *c) {
                return static_cast<const sim::EventQueue *>(c)->now();
            },
            &rig.eq);
    }
    if (reg)
        obs::setMetrics(reg);

    bmcast::BmcastDeployer dep(rig.eq, "dep", *rig.machine,
                               *rig.guest, {kServerMac},
                               rig.opts.imageSectors,
                               rig.fastVmmParams(),
                               /*coldFirmware=*/false);
    dep.run([]() {});
    EXPECT_TRUE(runUntil(rig.eq, 4000 * sim::kSec,
                         [&]() { return dep.bareMetalReached(); }));

    Fingerprint f;
    f.scheduled = rig.eq.counters().scheduled;
    f.executed = rig.eq.counters().executed;
    f.guestBoot = dep.timeline().guestBootDone;
    f.bareMetal = dep.timeline().bareMetal;

    if (reg)
        obs::setMetrics(nullptr);
    if (tracer)
        obs::disarm();
    return f;
}

TEST(ObsDeterminism, ArmedRunIsTickIdenticalToDisarmed)
{
    const Fingerprint base = deployOnce(nullptr, nullptr);

    obs::Tracer tracer; // default capacity holds this run unwrapped
    obs::Registry reg;
    const Fingerprint armed = deployOnce(&tracer, &reg);

    // The tracer observed the run without perturbing it.
    EXPECT_EQ(base.scheduled, armed.scheduled);
    EXPECT_EQ(base.executed, armed.executed);
    EXPECT_EQ(base.guestBoot, armed.guestBoot);
    EXPECT_EQ(base.bareMetal, armed.bareMetal);

    // And it actually recorded the run.
    EXPECT_GT(tracer.recorded(), 1000u);
    EXPECT_EQ(tracer.dropped(), 0u);
    EXPECT_EQ(tracer.nestingViolations(), 0u);

    obs::RunReport report = obs::RunReport::build(tracer);
    EXPECT_EQ(report.count("deploy.power_on"), 1u);
    EXPECT_EQ(report.count("deploy.vmm_ready"), 1u);
    EXPECT_EQ(report.count("guest.boot_done"), 1u);
    EXPECT_EQ(report.count("cor.first_fetch"), 1u);
    EXPECT_EQ(report.count("vmm.phase.bare_metal"), 1u);
    EXPECT_EQ(report.firstTs("deploy.bare_metal").value(),
              armed.bareMetal);
    EXPECT_EQ(report.firstTs("deploy.guest_boot_done").value(),
              armed.guestBoot);
    // Timeline milestones arrive in causal order.
    EXPECT_LT(report.firstTs("vmm.phase.initialization").value(),
              report.firstTs("vmm.phase.deployment").value());
    EXPECT_LT(report.firstTs("vmm.phase.deployment").value(),
              report.firstTs("vmm.phase.devirtualization").value());
    EXPECT_LT(report.firstTs("vmm.phase.devirtualization").value(),
              report.firstTs("vmm.phase.bare_metal").value());

    // Flow/async integrity: every response terminates a request that
    // was begun, every async end matches a begin with the same id.
    std::set<std::uint64_t> flow_begun;
    std::map<std::pair<std::string, std::uint64_t>, int> async_open;
    int unmatched_flow_ends = 0;
    tracer.forEach([&](const obs::TraceRecord &r) {
        switch (r.kind) {
          case obs::EventKind::FlowBegin:
            flow_begun.insert(r.id);
            break;
          case obs::EventKind::FlowEnd:
            if (flow_begun.count(r.id) == 0)
                ++unmatched_flow_ends;
            break;
          case obs::EventKind::AsyncBegin:
            ++async_open[{r.name, r.id}];
            break;
          case obs::EventKind::AsyncEnd:
            --async_open[{r.name, r.id}];
            break;
          default:
            break;
        }
    });
    EXPECT_GT(flow_begun.size(), 0u);
    EXPECT_EQ(unmatched_flow_ends, 0);
    for (const auto &[key, open] : async_open) {
        EXPECT_GE(open, 0) << "async end without begin: " << key.first
                           << " id " << key.second;
    }

    // The global registry collected hot-path metrics (AoE RTTs).
    const obs::Histogram *rtt =
        reg.findHistogram("aoe.rtt_ns", "dep.vmm.aoe");
    ASSERT_NE(rtt, nullptr);
    EXPECT_GT(rtt->count(), 0u);
    EXPECT_GT(rtt->quantile(0.5), 0u);
}

} // namespace
