/**
 * @file
 * Shared benchmark testbed: reproduces the paper's experimental
 * setup (§5) — FUJITSU RX200-class machines, gigabit Ethernet with
 * jumbo frames, an InfiniBand 4X QDR fabric, an AoE storage server
 * (thread-pooled vblade) exporting a 32-GB OS image.
 *
 * Every bench binary builds its world through this header so the
 * configuration matches across figures.
 */

#ifndef BENCH_HARNESS_HH
#define BENCH_HARNESS_HH

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "aoe/server.hh"
#include "baselines/image_copy.hh"
#include "baselines/kvm.hh"
#include "baselines/net_root.hh"
#include "bmcast/deployer.hh"
#include "guest/guest_os.hh"
#include "hw/ib_hca.hh"
#include "hw/machine.hh"
#include "net/network.hh"
#include "obs/chrome_trace.hh"
#include "obs/obs.hh"
#include "obs/run_report.hh"
#include "simcore/table.hh"
#include "store/ec/code.hh"

namespace bench {

/** Dump a queue's kernel counters through the obs registry (the one
 *  rendering path for all run statistics). */
inline void
printKernelCounters(const sim::EventQueue &eq,
                    std::ostream &os = std::cout)
{
    obs::Registry reg;
    sim::publishKernelCounters(reg, "", eq.counters());
    reg.printTable(os);
}

/** Dump mediator statistics snapshots through the obs registry. */
inline void
printMediatorStats(
    const std::vector<std::pair<std::string, bmcast::MediatorStats>>
        &snaps,
    std::ostream &os = std::cout)
{
    obs::Registry reg;
    for (const auto &[label, s] : snaps)
        bmcast::publishMediatorStats(reg, label, s);
    reg.printTable(os);
}

constexpr net::MacAddr kServerMac = 0x525400000001ULL;
constexpr std::uint64_t kImageBase = 0xABCD000000000001ULL;

/** The paper's 32-GB OS image. */
constexpr sim::Lba kImageSectors = (32 * sim::kGiB) / sim::kSectorSize;

/** Boot trace calibrated to the paper's startup numbers (Fig. 4):
 *  ~29 s local boot, ~72 MB read during boot. */
inline guest::BootTrace
paperBootTrace()
{
    guest::BootTrace b;
    b.loaderBytes = 2 * sim::kMiB;
    b.kernelBytes = 26 * sim::kMiB;
    b.numReads = 3600;
    b.avgReadBytes = 12 * sim::kKiB;
    b.seqFraction = 0.35;
    b.cpuTotal = 14 * sim::kSec;
    b.regionBytes = 8 * sim::kGiB;
    return b;
}

/** The testbed. */
struct Testbed
{
    explicit Testbed(unsigned numMachines = 1,
                     hw::StorageKind storage = hw::StorageKind::Ahci,
                     sim::Lba imageSectors = kImageSectors,
                     double serverCacheHitRate = 0.0)
        : imageSectors(imageSectors),
          lan(eq, "lan", 4 * sim::kUs, 1),
          ib(eq, "ib-switch"),
          serverPort(lan.attach(kServerMac,
                                net::PortConfig{1e9, 9000, 0.0}))
    {
        aoe::ServerParams sp;
        sp.workers = 8; // thread-pooled vblade (paper §4.2)
        // File-level baselines (NFS) enjoy server page caching;
        // block-level paths read the raw image.
        sp.cacheHitRate = serverCacheHitRate;
        server = std::make_unique<aoe::AoeServer>(eq, "server",
                                                  serverPort, sp);
        server->addTarget(0, 0, imageSectors, kImageBase);

        for (unsigned i = 0; i < numMachines; ++i)
            addMachine(storage);

        // Opt-in tracing for any bench binary: BMCAST_TRACE=<path>
        // arms a tracer for the run and writes a Chrome trace_event
        // JSON (chrome://tracing / Perfetto), a deployment-timeline
        // report (<path>.report.json) and a metrics snapshot
        // (<path>.metrics.json) at teardown. A second Testbed in the
        // same process gets numbered paths (<path>.1, ...).
        if (const char *path = std::getenv("BMCAST_TRACE")) {
            static unsigned instance = 0;
            tracePath = path;
            if (instance > 0)
                tracePath += "." + std::to_string(instance);
            ++instance;
            tracer = std::make_unique<obs::Tracer>();
            obs::arm(tracer.get());
            obs::setClock(
                [](const void *ctx) {
                    return static_cast<const sim::EventQueue *>(ctx)
                        ->now();
                },
                &eq);
            obs::setMetrics(&metrics);
            sim::setLogClock([this]() { return eq.now(); });
        }
    }

    ~Testbed()
    {
        if (tracer) {
            sim::setLogClock({});
            publishStats();
            obs::writeChromeTraceFile(tracePath, *tracer);
            obs::RunReport::build(*tracer).writeJsonFile(
                tracePath + ".report.json");
            std::ofstream mf(tracePath + ".metrics.json");
            if (mf)
                metrics.writeJson(mf);
            obs::setMetrics(nullptr);
            obs::disarm();
        }
        // Opt-in kernel-profiling report for any bench binary,
        // rendered from the same registry the trace snapshot uses.
        if (std::getenv("BMCAST_KERNEL_STATS")) {
            publishStats();
            std::cout << "\nSimulation-kernel counters:\n";
            metrics.printTable(std::cout);
        }
    }

    /** Snapshot native counters into the testbed registry. */
    void
    publishStats()
    {
        sim::publishKernelCounters(metrics, "", eq.counters());
        for (const auto &[label, s] : mediatorSnaps)
            bmcast::publishMediatorStats(metrics, label, s);
    }

    hw::Machine &
    addMachine(hw::StorageKind storage)
    {
        auto idx = static_cast<unsigned>(machines.size());
        hw::MachineConfig mc;
        mc.name = "node" + std::to_string(idx);
        mc.storage = storage;
        mc.hasInfiniBand = true;
        mc.ibNodeId = idx;
        mc.seed = 100 + idx;
        machines.push_back(std::make_unique<hw::Machine>(
            eq, mc, lan, 0x5254000100ULL + idx, lan,
            0x5254000200ULL + idx, &ib));

        guest::GuestOsParams gp;
        gp.boot = paperBootTrace();
        gp.seed = 7 + idx;
        guests.push_back(std::make_unique<guest::GuestOs>(
            eq, mc.name + ".guest", *machines.back(), gp));
        return *machines.back();
    }

    hw::Machine &machine(unsigned i = 0) { return *machines.at(i); }
    guest::GuestOs &guest(unsigned i = 0) { return *guests.at(i); }

    /** Snapshot a mediator's counters for the env-gated end-of-run
     *  report (mediators usually die before the Testbed does). */
    void
    noteMediator(const std::string &label,
                 const bmcast::MediationCore &m)
    {
        mediatorSnaps.emplace_back(label, m.stats());
    }

    /** Advance simulated time by @p duration (events or not). */
    void
    runFor(sim::Tick duration)
    {
        eq.runUntil(eq.now() + duration);
    }

    /** Run until @p pred holds (or deadline); abort loudly if not. */
    template <typename Pred>
    bool
    runUntil(sim::Tick deadline, Pred &&pred)
    {
        bool met = false;
        eq.stepWhile([&]() {
            met = pred();
            return !met && eq.now() <= deadline;
        });
        return met || pred();
    }

    sim::Lba imageSectors;
    sim::EventQueue eq;
    net::Network lan;
    hw::IbFabric ib;
    net::Port &serverPort;
    std::unique_ptr<aoe::AoeServer> server;
    std::vector<std::unique_ptr<hw::Machine>> machines;
    std::vector<std::unique_ptr<guest::GuestOs>> guests;
    std::vector<std::pair<std::string, bmcast::MediatorStats>>
        mediatorSnaps;

    /** Always present (cheap when idle): the run's metric registry.
     *  Installed globally via obs::setMetrics while tracing is
     *  armed. */
    obs::Registry metrics;
    std::unique_ptr<obs::Tracer> tracer;
    std::string tracePath;
};

/** Default VMM parameters used by the benches (calibrated;
 *  EXPERIMENTS.md records the derivation). */
inline bmcast::VmmParams
paperVmmParams()
{
    bmcast::VmmParams p;
    // 32 GiB at one 1-MiB block per interval ~= 16 min deployment
    // under a quiet guest (Fig. 5a).
    p.moderation.vmmWriteInterval = 28 * sim::kMs;
    p.moderation.guestIoFreqThreshold = 24.0;
    p.moderation.vmmWriteSuspendInterval = 250 * sim::kMs;
    return p;
}

/** @name Storm-bench parameterization and uniform records
 * The storm benches (abl_scaleout, abl_store, abl_storm) take their
 * node counts from the environment instead of hardcoded N<=8 loops,
 * and every configuration they run is reported as one uniform
 * {nodes, shards, wall_ms, events_per_sec} JSON record, so scaling
 * sweeps across benches land in comparable shape in BENCH_*.json. */
/// @{

/**
 * Reject a malformed environment knob. Silently falling back to the
 * default would run a sweep the user didn't ask for and record it
 * under the name they did — a corrupted trajectory is worse than a
 * dead bench, so a bad value is a hard error (exit 2).
 */
[[noreturn]] inline void
envBad(const char *name, const char *value, const char *why)
{
    std::cerr << "bad " << name << "=\"" << value << "\": " << why
              << " (expected a positive decimal integer)\n";
    std::exit(2);
}

/** One strictly-validated positive decimal; advances @p p. */
inline unsigned
envParseOne(const char *name, const char *whole, const char *&p)
{
    if (*p == '-' || *p == '+')
        envBad(name, whole, "signed values are not accepted");
    char *end = nullptr;
    errno = 0;
    unsigned long parsed = std::strtoul(p, &end, 10);
    if (end == p)
        envBad(name, whole, "not a number");
    if (errno == ERANGE || parsed > UINT_MAX)
        envBad(name, whole, "out of range");
    if (parsed == 0)
        envBad(name, whole, "must be nonzero");
    p = end;
    return static_cast<unsigned>(parsed);
}

/** Unsigned environment knob: BMCAST_NODES=512, BMCAST_TENANTS=4...
 *  Zero, negative, or non-numeric values are fatal (exit 2). */
inline unsigned
envUnsigned(const char *name, unsigned def)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return def;
    const char *p = v;
    unsigned parsed = envParseOne(name, v, p);
    if (*p != '\0')
        envBad(name, v, "trailing junk after the number");
    return parsed;
}

/** Coding-plan knob: BMCAST_CODE=flat-rs | lrc | hitchhiker picks
 *  the store tier's erasure code. Junk is fatal (exit 2) under the
 *  same corrupted-trajectory rule as the numeric knobs. */
inline store::ec::CodeKind
envCodeKind(const char *name, store::ec::CodeKind def)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return def;
    if (auto kind = store::ec::parseCodeKind(v))
        return *kind;
    std::cerr << "bad " << name << "=\"" << v
              << "\": unknown code (expected flat-rs | lrc | "
                 "hitchhiker)\n";
    std::exit(2);
}

/** Comma-separated unsigned list knob (BMCAST_SHARDS=1,2,4,8).
 *  Any malformed element is fatal (exit 2). */
inline std::vector<unsigned>
envUnsignedList(const char *name, std::vector<unsigned> def)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return def;
    std::vector<unsigned> out;
    const char *p = v;
    for (;;) {
        out.push_back(envParseOne(name, v, p));
        if (*p == '\0')
            break;
        if (*p != ',')
            envBad(name, v, "elements must be comma-separated");
        ++p;
        if (*p == '\0')
            envBad(name, v, "trailing comma");
    }
    return out;
}

/** One storm configuration's uniform result record. */
struct ScaleRecord
{
    unsigned nodes = 0;
    unsigned shards = 1;
    double wallMs = 0.0;
    std::uint64_t events = 0;
    double eventsPerSec = 0.0; ///< simulated events per wall second
    std::uint64_t fingerprint = 0; ///< sim-outcome fold (0 = n/a)
};

/** The record in its uniform JSON shape. */
inline std::string
scaleRecordJson(const ScaleRecord &r)
{
    std::ostringstream os;
    os << "{\"nodes\": " << r.nodes << ", \"shards\": " << r.shards
       << ", \"wall_ms\": " << r.wallMs
       << ", \"events\": " << r.events
       << ", \"events_per_sec\": " << r.eventsPerSec
       << ", \"fingerprint\": \"0x" << std::hex << r.fingerprint
       << std::dec << "\"}";
    return os.str();
}

/** The uniform `"records": [...]` JSON fragment (no trailing brace
 *  or comma — callers embed it in their bench-specific object). */
inline std::string
scaleRecordsJson(const std::vector<ScaleRecord> &rs,
                 const char *indent = "    ")
{
    std::ostringstream os;
    os << "\"records\": [\n";
    for (std::size_t i = 0; i < rs.size(); ++i) {
        os << indent << "  " << scaleRecordJson(rs[i])
           << (i + 1 < rs.size() ? "," : "") << "\n";
    }
    os << indent << "]";
    return os.str();
}

/** Wall-clock milliseconds since @p t0. */
inline double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** One run's uniform record; the event rate follows from the wall
 *  time. */
inline ScaleRecord
makeRecord(unsigned nodes, unsigned shards, double wallMs,
           std::uint64_t events, std::uint64_t fingerprint)
{
    ScaleRecord r;
    r.nodes = nodes;
    r.shards = shards;
    r.wallMs = wallMs;
    r.events = events;
    if (wallMs > 0.0)
        r.eventsPerSec = double(events) / (wallMs / 1e3);
    r.fingerprint = fingerprint;
    return r;
}

/** Print records as a table: shards, wall time, events, event rate
 *  and fingerprint. */
inline void
printRecords(const std::vector<ScaleRecord> &rs,
             std::ostream &os = std::cout)
{
    sim::Table t({"Shards", "Wall (ms)", "Events", "Events/s",
                  "Fingerprint"});
    for (const ScaleRecord &r : rs) {
        std::ostringstream fp;
        fp << "0x" << std::hex << r.fingerprint;
        t.addRow({std::to_string(r.shards), sim::Table::num(r.wallMs, 1),
                  std::to_string(r.events),
                  sim::Table::num(r.eventsPerSec / 1e6, 2) + "M",
                  fp.str()});
    }
    t.print(os);
}

/** A shard-count sweep: one result per count, each carrying its
 *  uniform record as `rec`. */
template <typename Out>
struct ShardSweep
{
    std::vector<Out> runs;
    bool identical = true; ///< every fingerprint equals the first
    bool pinned = true;    ///< the first equals the pin, if any
    bool ok() const { return identical && pinned; }

    /** Why the sweep failed ("" when it held). */
    std::string
    failure() const
    {
        if (!identical)
            return "fingerprints differ across shard counts";
        return pinned ? ""
                      : "fingerprint differs from the pinned smoke value";
    }

    std::vector<ScaleRecord>
    records() const
    {
        std::vector<ScaleRecord> rs;
        for (const Out &o : runs)
            rs.push_back(o.rec);
        return rs;
    }
};

/**
 * The determinism sweep of every sharded bench: @p run(shards) runs
 * the same configuration once per entry of @p shardCounts. The
 * simulated outcome must not depend on the shard count, so every
 * fingerprint must equal the first. A non-zero @p pin is the
 * fingerprint recorded for a smoke's default configuration: comparing
 * shard counts with each other cannot catch a change that shifts
 * every count the same way, the pin can.
 */
template <typename Run>
auto
sweepShards(const std::string &what,
            const std::vector<unsigned> &shardCounts, std::uint64_t pin,
            Run &&run)
{
    ShardSweep<std::decay_t<decltype(run(0u))>> s;
    for (unsigned n : shardCounts) {
        s.runs.push_back(run(n));
        s.identical = s.identical && s.runs.back().rec.fingerprint ==
                                         s.runs.front().rec.fingerprint;
    }
    const std::uint64_t fp = s.runs.front().rec.fingerprint;
    s.pinned = pin == 0 || fp == pin;
    if (!s.pinned)
        std::cout << what << ": fingerprint 0x" << std::hex << fp
                  << " differs from the pinned 0x" << pin << std::dec
                  << "\n";
    return s;
}
/// @}

/** Print a figure header. */
inline void
figureHeader(const std::string &title)
{
    std::cout << "\n==========================================="
                 "=====================\n"
              << title << "\n"
              << "============================================"
                 "====================\n";
}

} // namespace bench

#endif // BENCH_HARNESS_HH
