/**
 * @file
 * Ablation (paper §6, revisited by the netmed tier): serving nodes on
 * a shared NIC while neighbors deploy.
 *
 * The paper's prototype dedicates a NIC to the VMM; §6 argues a
 * shared NIC is possible but costs guest latency and jitter. The
 * netmed tier is that shared-NIC path, built properly: shadow rings,
 * an exitless doorbell page + sidecore poll loop, per-guest token
 * buckets and deficit-round-robin weights, and a congestion-
 * controller serving lane. This bench runs a fleet of serving cells
 * (one per rack on a sim::ShardGroup) and measures four NIC
 * configurations under the same load:
 *
 *  - dedicated:   the guest owns the NIC; the VMM uses the mgmt NIC
 *                 (the paper's design — the latency baseline);
 *  - trap:        mediated shadow rings, every doorbell VM-exits;
 *  - exitless:    shadow rings, doorbells in shared memory, a 4 µs
 *                 sidecore poll — no steady-state exits;
 *  - passthrough: the guest owns the real rings, the VMM keeps
 *                 software taps only.
 *
 * Per cell: a serving guest runs a closed-loop RPC workload against
 * a peer (YCSB-style request/response); two neighbor nodes deploy
 * continuously from the rack's AoE server through the congestion
 * controller's deployment lane; in the shadow-ring modes three
 * tenant guests share the serving NIC — one bucket-limited flooder
 * and a weight-1/weight-2 backlogged pair — and the serving guest's
 * TX draws through the controller's serving lane.
 *
 * Enforced by exit code:
 *  - exitless cuts guest-NIC-window VM exits >= 10x vs trap
 *    (measured with the same hw::IoBus intercept counters
 *    abl_exit_rate uses);
 *  - exitless serving p99 RTT stays within 25% of the dedicated-NIC
 *    baseline under the neighbor deploy storm;
 *  - the bucket tenant never exceeds its token budget, and neither
 *    weighted flooder is starved below its DRR weight;
 *  - shared-mode deploy goodput stays >= 90% of dedicated's;
 *  - the exitless run's result fingerprint is identical across
 *    shard counts (1/2/4/8 by default) and, under `--smoke`, equal
 *    to the recorded one.
 *
 * Emits BENCH_shared_nic.json (uniform ScaleRecords per run).
 * Knobs: BMCAST_NODES (serving cells), BMCAST_TENANTS (guests per
 * shared NIC), BMCAST_SHARDS (determinism sweep); `--smoke` shrinks
 * everything for the bench-smoke ctest label and the TSan CI job.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "aoe/initiator.hh"
#include "aoe/protocol.hh"
#include "aoe/server.hh"
#include "baselines/kvm.hh"
#include "bench/harness.hh"
#include "bench/region.hh"
#include "cloud/congestion.hh"
#include "hw/e1000_driver.hh"
#include "hw/machine.hh"
#include "hw/nic_doorbell.hh"
#include "netmed/net_mediation_core.hh"
#include "simcore/table.hh"

using namespace bench;

namespace {

enum class NicCfg { Dedicated, Trap, Exitless, Passthrough };

const char *
cfgName(NicCfg c)
{
    switch (c) {
    case NicCfg::Dedicated:
        return "dedicated";
    case NicCfg::Trap:
        return "trap";
    case NicCfg::Exitless:
        return "exitless";
    case NicCfg::Passthrough:
        return "passthrough";
    }
    return "?";
}

bool
isShadow(NicCfg c)
{
    return c == NicCfg::Trap || c == NicCfg::Exitless;
}

struct RunParams
{
    NicCfg cfg = NicCfg::Exitless;
    unsigned racks = 8;
    unsigned tenants = 4; ///< guests on the shared NIC (shadow modes)
    unsigned neighbors = 2;
    unsigned rounds = 1200; ///< serving RPCs per cell
    unsigned shards = 1;
};

// Timeline: flood phase first (QoS gates), then a clean serving
// window so the RTT gate measures mediation overhead under the
// neighbor storm, not self-inflicted co-guest queueing.
constexpr sim::Tick kFloodAt = 50 * sim::kMs;
constexpr sim::Tick kFloodEnd = 150 * sim::kMs;
constexpr sim::Tick kServeAt = 400 * sim::kMs;
constexpr sim::Tick kHardEnd = 10 * sim::kSec;
constexpr sim::Tick kWindow = sim::kMs;   ///< shard window
constexpr sim::Tick kChunk = 50 * sim::kMs;

constexpr net::MacAddr kCellGuestMac = 0x525400000010ULL;
constexpr net::MacAddr kCellMgmtMac = 0x525400000011ULL;
constexpr net::MacAddr kPeerMac = 0x42;
constexpr net::MacAddr kTenantMacBase = 0x5254000000A0ULL;
constexpr net::MacAddr kNeighborMacBase = 0x60;
/** Virtual guest-NIC windows (0xFEB00000 is the AHCI ABAR). */
constexpr sim::Addr kVirtNicBase = 0xFEC00000;
constexpr std::uint16_t kServeEther = 0x88B5;
constexpr std::uint16_t kFloodEther = 0x88B6;

constexpr double kBucketBps = 16e6;
constexpr sim::Bytes kBucketBurst = 16 * sim::kKiB;
constexpr unsigned kWeightBacklog = 1200;

/** One serving cell: a rack-local LAN, an AoE server, one mediated
 *  serving machine, tenant flooders, and deploying neighbors. */
struct Cell
{
    Cell(sim::EventQueue &eq_, unsigned rack_, const RunParams &rp_)
        : eq(eq_), rack(rack_), rp(rp_),
          lan(eq, "lan" + std::to_string(rack), 4 * sim::kUs,
              static_cast<unsigned>(1000 + rack)),
          rng(sim::Rng::seedForShard("abl_shared_nic.serve", 1, rack))
    {
        sport = &lan.attach(kServerMac,
                            net::PortConfig{1e9, 9000, 0.0});
        aoe::ServerParams sp;
        sp.workers = 8;
        server = std::make_unique<aoe::AoeServer>(
            eq, n("srv"), *sport, sp);
        imgSectors = (4 * sim::kGiB) / sim::kSectorSize;
        server->addTarget(0, 0, imgSectors, kImageBase);

        hw::MachineConfig mc;
        mc.name = n("cell");
        mc.seed = 100 + rack;
        machine = std::make_unique<hw::Machine>(
            eq, mc, lan, kCellGuestMac, lan, kCellMgmtMac);

        cloud::CongestionParams cp;
        cp.enabled = true;
        cp.linkShare = 0.6;   // deployment lane: 600 Mb/s
        cp.tenantShare = 0.5; // per-neighbor cap inside the lane
        cp.rackLinkBps = 1e9;
        cp.servingShare = 0.3; // serving lane the netmed tier draws on
        ctl = std::make_unique<cloud::CongestionController>(cp, 1);

        vmmArena = std::make_unique<hw::MemArena>(0x78000000,
                                                  128 * sim::kMiB);
        buildNicPath();
        buildVmmPath();
        buildPeerAndNeighbors();
        scheduleLoad();
    }

    std::string
    n(const char *what) const
    {
        return std::string(what) + std::to_string(rack);
    }

    void
    buildNicPath()
    {
        if (rp.cfg != NicCfg::Dedicated) {
            netmed::MedMode mode =
                rp.cfg == NicCfg::Trap ? netmed::MedMode::Trap
                : rp.cfg == NicCfg::Exitless
                    ? netmed::MedMode::Exitless
                    : netmed::MedMode::Passthrough;
            core = std::make_unique<netmed::NetMediationCore>(
                eq, n("netmed"), machine->bus(), machine->mem(),
                machine->guestNic(), *vmmArena, mode,
                aoe::kEtherType);
            netmed::NetMediationCore::GuestConfig g0;
            g0.qos.weight = 4; // serving guest outranks flooders
            if (mode == netmed::MedMode::Exitless) {
                g0.doorbell =
                    vmmArena->alloc(hw::nicdb::kPageSize, 64);
                g0.intc = &machine->intc();
                g0.irqVector = hw::kGuestNicIrq;
            }
            core->addGuest(g0);
            if (isShadow(rp.cfg)) {
                for (unsigned t = 1; t < rp.tenants; ++t) {
                    netmed::NetMediationCore::GuestConfig g;
                    g.windowBase =
                        kVirtNicBase +
                        sim::Addr(t - 1) * hw::e1000::kMmioSize;
                    g.mac = kTenantMacBase + t;
                    g.intc = &machine->intc();
                    g.irqVector = 16 + t;
                    if (t == 1) { // the bucket-limited flooder
                        g.qos.rateBps = kBucketBps;
                        g.qos.burstBytes = kBucketBurst;
                    } else {      // the weighted backlog pair (+spares)
                        g.qos.weight = t == 3 ? 2 : 1;
                    }
                    if (mode == netmed::MedMode::Exitless)
                        g.doorbell = vmmArena->alloc(
                            hw::nicdb::kPageSize, 64);
                    tenantCfgs.push_back(g);
                    tenantSlots.push_back(core->addGuest(g));
                }
                // Serving TX draws on the cluster serving lane.
                core->setGuestGate(
                    0, ctl->gateFor(0, 0, cloud::Traffic::Serving));
            }
            core->install();
        }

        servingDrv = std::make_unique<hw::E1000Driver>(
            eq, n("gdrv"), hw::BusView(machine->bus(), true),
            machine->guestNic(), machine->mem(), *nextArena(),
            hw::E1000Driver::Mode::Interrupt, &machine->intc(),
            hw::kGuestNicIrq);
        if (rp.cfg == NicCfg::Exitless)
            servingDrv->attachDoorbell(
                core->guestPort(0).doorbellPage());
        servingDrv->setRxHandler(
            [this](const net::Frame &f) { onReply(f); });

        for (std::size_t i = 0; i < tenantCfgs.size(); ++i) {
            auto d = std::make_unique<hw::E1000Driver>(
                eq, n("tdrv") + "." + std::to_string(i),
                hw::BusView(machine->bus(), true),
                tenantCfgs[i].windowBase, tenantCfgs[i].mac, 1500,
                machine->mem(), *nextArena(),
                hw::E1000Driver::Mode::Interrupt, &machine->intc(),
                tenantCfgs[i].irqVector);
            if (rp.cfg == NicCfg::Exitless)
                d->attachDoorbell(
                    core->guestPort(tenantSlots[i]).doorbellPage());
            tenantDrvs.push_back(std::move(d));
        }
    }

    void
    buildVmmPath()
    {
        // The VMM keeps a small control heartbeat (AoE reads) alive
        // the whole run: through the mediation tier in shared modes,
        // over the dedicated mgmt NIC otherwise.
        if (core) {
            hb = std::make_unique<aoe::AoeInitiator>(
                eq, n("hb"), *core, kServerMac);
        } else {
            mgmtDrv = std::make_unique<hw::E1000Driver>(
                eq, n("mnic"), hw::BusView(machine->bus(), false),
                machine->mgmtNic(), machine->mem(), *nextArena(),
                hw::E1000Driver::Mode::Polling);
            hb = std::make_unique<aoe::AoeInitiator>(
                eq, n("hb"), *mgmtDrv, kServerMac);
        }
    }

    void
    buildPeerAndNeighbors()
    {
        peer = &lan.attach(kPeerMac);
        peer->onReceive([this](const net::Frame &f) {
            if (f.etherType != kServeEther)
                return; // flood traffic terminates here
            net::Frame reply;
            reply.dst = f.src;
            reply.etherType = kServeEther;
            reply.payload = f.payload;
            peer->send(std::move(reply));
        });

        for (unsigned i = 0; i < rp.neighbors; ++i) {
            neighborPorts.push_back(&lan.attach(
                kNeighborMacBase + i,
                net::PortConfig{1e9, 9000, 0.0}));
            neighborEps.push_back(std::make_unique<net::PortEndpoint>(
                *neighborPorts.back()));
            neighborInits.push_back(
                std::make_unique<aoe::AoeInitiator>(
                    eq, n("dep") + "." + std::to_string(i),
                    *neighborEps.back(), kServerMac));
            neighborLba.push_back(i * 8192);
        }
    }

    void
    scheduleLoad()
    {
        eq.schedule(0, [this]() {
            pollLoop();
            hbLoop();
            for (unsigned i = 0; i < rp.neighbors; ++i)
                neighborLoop(i);
        });
        if (isShadow(rp.cfg) && rp.tenants >= 2) {
            eq.scheduleAt(kFloodAt, [this]() {
                bucketOffer();
                if (weightPairPresent()) {
                    for (unsigned t = 2; t < rp.tenants; ++t) {
                        std::uint8_t marker = t == 3 ? 0x22 : 0x11;
                        for (unsigned i = 0; i < kWeightBacklog; ++i)
                            sendFlood(*tenantDrvs[t - 1], marker);
                    }
                    weightCheck();
                }
            });
            eq.scheduleAt(kFloodEnd, [this]() {
                bucketBytes = static_cast<double>(
                    core->guestStats(tenantSlots[0]).txWireBytes);
            });
        }
        eq.scheduleAt(kServeAt, [this]() {
            exitsStart = nicWindowExits();
            ping();
        });
    }

    bool
    weightPairPresent() const
    {
        return isShadow(rp.cfg) && rp.tenants >= 4;
    }

    // --- periodic machinery -------------------------------------

    void
    pollLoop()
    {
        if (core)
            core->poll();
        if (mgmtDrv)
            mgmtDrv->poll();
        // The exitless sidecore spins tightly (that is the design:
        // burn a core, never exit); the other paths are interrupt-
        // or kick-driven and only need housekeeping.
        sim::Tick ival =
            rp.cfg == NicCfg::Exitless ? 4 * sim::kUs : 100 * sim::kUs;
        if (!done || eq.now() < kServeAt)
            eq.schedule(ival, [this]() { pollLoop(); });
    }

    void
    hbLoop()
    {
        if (done)
            return;
        hb->readSectors(64 + (hbSeq++ % 64) * 2, 2,
                        [](const auto &) {});
        eq.schedule(10 * sim::kMs, [this]() { hbLoop(); });
    }

    void
    neighborLoop(unsigned i)
    {
        if (done)
            return;
        const std::uint32_t sectors = 2048; // 1 MiB per fetch
        sim::Bytes bytes = sectors * sim::kSectorSize;
        sim::Tick at = ctl->admit(0, i, bytes, eq.now());
        eq.scheduleAt(std::max(at, eq.now()), [this, i, sectors,
                                               bytes]() {
            neighborInits[i]->readSectors(
                neighborLba[i], sectors,
                [this, i, sectors, bytes](const auto &) {
                    deployBytes += bytes;
                    neighborLba[i] = (neighborLba[i] + sectors) %
                                     (imgSectors - 2 * sectors);
                    neighborLoop(i);
                });
        });
    }

    // --- tenant load --------------------------------------------

    void
    sendFlood(hw::E1000Driver &drv, std::uint8_t marker)
    {
        net::Frame f;
        f.dst = kPeerMac;
        f.etherType = kFloodEther;
        f.payload.assign(1000, marker);
        drv.sendFrame(std::move(f));
    }

    void
    bucketOffer()
    {
        if (eq.now() >= kFloodEnd)
            return;
        // Offered ~26 Mb/s against a 16 Mb/s bucket.
        for (unsigned i = 0; i < 64; ++i)
            sendFlood(*tenantDrvs[0], 0xB1);
        eq.schedule(20 * sim::kMs, [this]() { bucketOffer(); });
    }

    void
    weightCheck()
    {
        // The DRR shares are only meaningful while both flooders are
        // backlogged: sample past the startup prefix, stop well
        // before the 1200-frame backlogs run dry.
        std::uint64_t p2 = core->guestStats(tenantSlots[2]).txFrames;
        if (weightPhase == 0 && p2 >= 300) {
            w1Start = core->guestStats(tenantSlots[1]).txWireBytes;
            w2Start = core->guestStats(tenantSlots[2]).txWireBytes;
            weightPhase = 1;
        }
        if (weightPhase == 1 && p2 >= 900) {
            w1Bytes = double(
                core->guestStats(tenantSlots[1]).txWireBytes -
                w1Start);
            w2Bytes = double(
                core->guestStats(tenantSlots[2]).txWireBytes -
                w2Start);
            weightPhase = 2;
            return;
        }
        if (weightPhase < 2)
            eq.schedule(500 * sim::kUs, [this]() { weightCheck(); });
    }

    // --- the serving workload -----------------------------------

    void
    ping()
    {
        issuedAt = eq.now();
        net::Frame f;
        f.dst = kPeerMac;
        f.etherType = kServeEther;
        f.payload.assign(1024, 0x5A);
        servingDrv->sendFrame(std::move(f));
    }

    void
    onReply(const net::Frame &f)
    {
        if (f.etherType != kServeEther || done)
            return;
        sim::Tick d = eq.now() - issuedAt;
        rttSumTicks += d;
        rttMaxTicks = std::max(rttMaxTicks, d);
        rttUs.push_back(sim::toMicros(d));
        if (rttUs.size() < rp.rounds) {
            eq.scheduleAt(eq.now() + sim::kMs +
                              rng.uniformInt(0, 400) * sim::kUs,
                          [this]() { ping(); });
        } else {
            complete();
        }
    }

    void
    complete()
    {
        done = true;
        doneAt = eq.now();
        exitsEnd = nicWindowExits();
        deployAtDone = deployBytes;
        fp = sim::fingerprintMix(fp, rttUs.size());
        fp = sim::fingerprintMix(fp, rttSumTicks);
        fp = sim::fingerprintMix(fp, rttMaxTicks);
        fp = sim::fingerprintMix(fp, doneAt);
        fp = sim::fingerprintMix(fp, exitsEnd - exitsStart);
        fp = sim::fingerprintMix(fp, deployAtDone);
        fp = sim::fingerprintMix(
            fp, static_cast<std::uint64_t>(bucketBytes));
        if (core) {
            const auto &st = core->stats();
            fp = sim::fingerprintMix(fp, st.guestTx);
            fp = sim::fingerprintMix(fp, st.vmmTx);
            fp = sim::fingerprintMix(fp, st.vmmRx);
            fp = sim::fingerprintMix(fp, st.copies);
            fp = sim::fingerprintMix(fp, st.txThrottled);
            for (unsigned s : tenantSlots) {
                fp = sim::fingerprintMix(
                    fp, core->guestStats(s).txFrames);
                fp = sim::fingerprintMix(
                    fp, core->guestStats(s).txWireBytes);
            }
        } else {
            fp = sim::fingerprintMix(fp, servingDrv->framesSent());
        }
        fp = sim::fingerprintMix(fp, ctl->grantedBytes(0));
        fp = sim::fingerprintMix(
            fp, static_cast<std::uint64_t>(
                    ctl->throttleDelay(0, cloud::Traffic::Serving)));
    }

    std::uint64_t
    nicWindowExits() const
    {
        return machine->bus().interceptedIn(hw::IoSpace::Mmio,
                                            hw::kGuestNicMmio,
                                            hw::e1000::kMmioSize);
    }

    hw::MemArena *
    nextArena()
    {
        arenas.push_back(std::make_unique<hw::MemArena>(
            32 * sim::kMiB + sim::Addr(arenas.size()) * 16 * sim::kMiB,
            16 * sim::kMiB));
        return arenas.back().get();
    }

    sim::EventQueue &eq;
    unsigned rack;
    RunParams rp;
    net::Network lan;
    sim::Rng rng;
    net::Port *sport = nullptr;
    std::unique_ptr<aoe::AoeServer> server;
    sim::Lba imgSectors = 0;
    std::unique_ptr<hw::Machine> machine;
    std::unique_ptr<cloud::CongestionController> ctl;
    std::unique_ptr<hw::MemArena> vmmArena;
    std::vector<std::unique_ptr<hw::MemArena>> arenas;
    std::unique_ptr<netmed::NetMediationCore> core;
    std::unique_ptr<hw::E1000Driver> servingDrv;
    std::unique_ptr<hw::E1000Driver> mgmtDrv;
    std::vector<netmed::NetMediationCore::GuestConfig> tenantCfgs;
    std::vector<unsigned> tenantSlots;
    std::vector<std::unique_ptr<hw::E1000Driver>> tenantDrvs;
    std::unique_ptr<aoe::AoeInitiator> hb;
    net::Port *peer = nullptr;
    std::vector<net::Port *> neighborPorts;
    std::vector<std::unique_ptr<net::PortEndpoint>> neighborEps;
    std::vector<std::unique_ptr<aoe::AoeInitiator>> neighborInits;
    std::vector<sim::Lba> neighborLba;

    // Results (captured at the cell's own completion event, so they
    // are chunking- and shard-count-invariant).
    std::vector<double> rttUs;
    sim::Tick issuedAt = 0;
    std::uint64_t rttSumTicks = 0;
    sim::Tick rttMaxTicks = 0;
    bool done = false;
    sim::Tick doneAt = 0;
    std::uint64_t exitsStart = 0, exitsEnd = 0;
    sim::Bytes deployBytes = 0, deployAtDone = 0;
    double bucketBytes = 0.0;
    unsigned weightPhase = 0;
    std::uint64_t w1Start = 0, w2Start = 0;
    double w1Bytes = 0.0, w2Bytes = 0.0;
    std::uint64_t hbSeq = 0;
    std::uint64_t fp = 0x9E3779B97F4A7C15ULL;
};

struct ModeOut
{
    NicCfg cfg = NicCfg::Exitless;
    ScaleRecord rec;
    bool completed = true;
    double meanUs = 0.0, p99Us = 0.0;
    std::uint64_t exits = 0;
    double exitsPerRpc = 0.0;
    double deployMBps = 0.0;
    bool bucketOk = true;
    double bucketBytes = 0.0, bucketBudget = 0.0;
    bool weightMeasured = false;
    double weightRatioMin = 0.0, weightRatioMax = 0.0;
    double servingDelayUs = 0.0;
};

ModeOut
runMode(const RunParams &rp)
{
    // Cells never talk across racks: the region is only the sharded
    // kernel and its run loop here.
    Region region(rp.racks, rp.shards, kWindow, 1);
    std::vector<std::unique_ptr<Cell>> cells;
    for (unsigned r = 0; r < rp.racks; ++r)
        cells.push_back(std::make_unique<Cell>(region.queue(r), r, rp));

    auto t0 = std::chrono::steady_clock::now();
    region.runUntil(
        kHardEnd,
        [&cells]() {
            for (const auto &c : cells)
                if (!c->done)
                    return false;
            return true;
        },
        kChunk);

    const double wall_ms = msSince(t0);

    ModeOut o;
    o.cfg = rp.cfg;
    o.rec = makeRecord(rp.racks, rp.shards, wall_ms,
                       region.totalExecuted(), 0);

    sim::Distribution rtt;
    std::uint64_t fp = 0x243F6A8885A308D3ULL;
    std::uint64_t rpcs = 0;
    double deploySum = 0.0, servingDelay = 0.0;
    // Bucket budget over [kFloodAt, kFloodEnd): tokens accrued before
    // the phase are clipped to the burst, so the admissible wire
    // bytes are rate * window + burst + one in-flight frame's slack.
    o.bucketBudget =
        kBucketBps / 8.0 * sim::toSeconds(kFloodEnd - kFloodAt) +
        double(kBucketBurst) + 2.0 * 1538.0;
    bool first = true;
    bool weightAll = isShadow(rp.cfg) && rp.tenants >= 4;
    for (const auto &c : cells) {
        o.completed = o.completed && c->done;
        for (double s : c->rttUs)
            rtt.add(s);
        rpcs += c->rttUs.size();
        o.exits += c->exitsEnd - c->exitsStart;
        if (c->doneAt > 0)
            deploySum += sim::toMBps(c->deployAtDone, c->doneAt);
        servingDelay += sim::toMicros(
            c->ctl->throttleDelay(0, cloud::Traffic::Serving));
        if (isShadow(rp.cfg) && rp.tenants >= 2) {
            o.bucketBytes = std::max(o.bucketBytes, c->bucketBytes);
            o.bucketOk =
                o.bucketOk && c->bucketBytes <= o.bucketBudget &&
                c->bucketBytes >= 0.3 * o.bucketBudget;
        }
        if (c->weightPairPresent()) {
            if (c->weightPhase == 2 && c->w1Bytes > 0.0) {
                double ratio = c->w2Bytes / c->w1Bytes;
                if (first || ratio < o.weightRatioMin)
                    o.weightRatioMin = ratio;
                if (first || ratio > o.weightRatioMax)
                    o.weightRatioMax = ratio;
                first = false;
            } else {
                weightAll = false;
            }
        }
        fp = sim::fingerprintMix(fp, c->fp);
    }
    o.weightMeasured = weightAll && !first;
    o.rec.fingerprint = fp;
    o.meanUs = rtt.count() ? rtt.mean() : 0.0;
    o.p99Us = rtt.count() ? rtt.percentile(99) : 0.0;
    o.exitsPerRpc = rpcs ? double(o.exits) / double(rpcs) : 0.0;
    o.deployMBps = deploySum / double(rp.racks);
    o.servingDelayUs = servingDelay;
    return o;
}

std::string
modeJson(const ModeOut &o)
{
    std::ostringstream js;
    js << "{\n"
       << "      \"completed\": " << (o.completed ? "true" : "false")
       << ",\n"
       << "      \"rtt_mean_us\": " << sim::Table::num(o.meanUs, 2)
       << ",\n"
       << "      \"rtt_p99_us\": " << sim::Table::num(o.p99Us, 2)
       << ",\n"
       << "      \"nic_window_exits\": " << o.exits << ",\n"
       << "      \"exits_per_rpc\": "
       << sim::Table::num(o.exitsPerRpc, 3) << ",\n"
       << "      \"deploy_mbps_per_cell\": "
       << sim::Table::num(o.deployMBps, 1) << ",\n"
       << "      \"serving_lane_delay_us\": "
       << sim::Table::num(o.servingDelayUs, 1) << ",\n";
    if (o.weightMeasured)
        js << "      \"weight_ratio_min\": "
           << sim::Table::num(o.weightRatioMin, 3) << ",\n"
           << "      \"weight_ratio_max\": "
           << sim::Table::num(o.weightRatioMax, 3) << ",\n";
    js << "      \"bucket_wire_bytes\": "
       << sim::Table::num(o.bucketBytes, 0) << ",\n"
       << "      \"record\": " << scaleRecordJson(o.rec) << "\n"
       << "    }";
    return js.str();
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

    RunParams base;
    base.racks = envUnsigned("BMCAST_NODES", smoke ? 2 : 8);
    base.tenants = envUnsigned("BMCAST_TENANTS", 4);
    base.rounds = smoke ? 300 : 1200;
    sim::fatalIf(base.racks == 0, "BMCAST_NODES must be positive");
    sim::fatalIf(base.tenants < 2,
                 "BMCAST_TENANTS must be at least 2");

    std::vector<unsigned> shard_counts;
    if (smoke)
        shard_counts = {1, std::min(2u, base.racks)};
    else
        shard_counts = envUnsignedList("BMCAST_SHARDS", {1, 2, 4, 8});
    std::vector<unsigned> sweep;
    for (unsigned s : shard_counts) {
        unsigned c = std::min(s, base.racks);
        if (std::find(sweep.begin(), sweep.end(), c) == sweep.end())
            sweep.push_back(c);
    }

    figureHeader("Ablation (paper §6, netmed): shared-NIC serving "
                 "cells under a neighbor deploy storm (" +
                 std::to_string(base.racks) + " cells, " +
                 std::to_string(base.tenants) + " tenants" +
                 (smoke ? ", smoke" : "") + ")");

    auto modeRun = [&base](NicCfg cfg, unsigned shards) {
        RunParams rp = base;
        rp.cfg = cfg;
        rp.shards = shards;
        if (!isShadow(cfg))
            rp.tenants = 1; // single guest owns the data path
        return runMode(rp);
    };

    // --- determinism sweep: exitless across shard counts, pinned to
    // the smoke fingerprint recorded for the default configuration
    // (2 cells, 4 tenants) ---
    const auto det = sweepShards(
        "exitless", sweep,
        smoke && base.racks == 2 && base.tenants == 4
            ? 0xaa2435d5cb137eebULL
            : 0,
        [&](unsigned s) { return modeRun(NicCfg::Exitless, s); });

    // --- mode sweep at the first shard count ---
    std::vector<ModeOut> modes;
    for (NicCfg cfg : {NicCfg::Dedicated, NicCfg::Trap,
                       NicCfg::Exitless, NicCfg::Passthrough})
        modes.push_back(cfg == NicCfg::Exitless ? det.runs[0]
                                                : modeRun(cfg, sweep[0]));
    const ModeOut &ded = modes[0];
    const ModeOut &trap = modes[1];
    const ModeOut &exitless = modes[2];
    const ModeOut &pass = modes[3];

    // --- the KVM/ELI analytic comparison rows (§5): same serving
    // path, plus the per-interrupt software cost that never goes
    // away under a conventional VMM. Two interrupts per RPC. ---
    baselines::KvmConfig kvm;
    double kvmEliP99 =
        trap.p99Us + 2.0 * double(kvm.interruptExtraEli) / 1e3;
    double kvmNoEliP99 =
        trap.p99Us + 2.0 * double(kvm.interruptExtraNoEli) / 1e3;

    sim::Table t({"Configuration", "RTT mean (us)", "RTT p99 (us)",
                  "NIC-window exits", "Exits/RPC",
                  "Deploy MB/s/cell"});
    for (const ModeOut &o : modes)
        t.addRow({cfgName(o.cfg), sim::Table::num(o.meanUs, 1),
                  sim::Table::num(o.p99Us, 1),
                  std::to_string(o.exits),
                  sim::Table::num(o.exitsPerRpc, 2),
                  sim::Table::num(o.deployMBps, 1)});
    t.addRow({"kvm+eli (analytic)", "-",
              sim::Table::num(kvmEliP99, 1), "-", "-", "-"});
    t.addRow({"kvm no-eli (analytic)", "-",
              sim::Table::num(kvmNoEliP99, 1), "-", "-", "-"});
    t.print(std::cout);

    // --- gates ---
    bool ok = true;
    std::string why;
    auto gate = [&](bool cond, const std::string &msg) {
        if (!cond) {
            ok = false;
            if (why.empty())
                why = msg;
        }
    };
    for (const ModeOut &o : modes)
        gate(o.completed, std::string(cfgName(o.cfg)) +
                              ": serving rounds never completed");
    gate(exitless.exits * 10 <= trap.exits,
         "exitless did not cut NIC-window exits 10x (" +
             std::to_string(exitless.exits) + " vs " +
             std::to_string(trap.exits) + ")");
    gate(trap.exits > 0, "trap mode recorded no exits");
    double p99Ratio = ded.p99Us > 0.0 ? exitless.p99Us / ded.p99Us
                                      : 0.0;
    gate(p99Ratio > 0.0 && p99Ratio <= 1.25,
         "exitless serving p99 " + sim::Table::num(p99Ratio, 3) +
             "x dedicated (gate <= 1.25)");
    gate(trap.bucketOk && exitless.bucketOk,
         "a tenant exceeded (or never used) its token bucket");
    if (base.tenants >= 4) {
        gate(trap.weightMeasured && exitless.weightMeasured,
             "weighted-share phase never measured");
        for (const ModeOut *o :
             std::initializer_list<const ModeOut *>{&trap,
                                                    &exitless}) {
            gate(o->weightRatioMin >= 1.3,
                 std::string(cfgName(o->cfg)) +
                     ": weight-2 flooder starved (ratio " +
                     sim::Table::num(o->weightRatioMin, 3) + ")");
            gate(o->weightRatioMax <= 3.2,
                 std::string(cfgName(o->cfg)) +
                     ": weight-1 flooder starved (ratio " +
                     sim::Table::num(o->weightRatioMax, 3) + ")");
        }
    }
    double goodput = ded.deployMBps > 0.0
                         ? exitless.deployMBps / ded.deployMBps
                         : 0.0;
    gate(goodput >= 0.9, "shared-mode deploy goodput ratio " +
                             sim::Table::num(goodput, 3) + " < 0.9");
    gate(det.identical, "fingerprints differ across shard counts");
    gate(det.pinned, "exitless fingerprint differs from the pinned "
                     "smoke value");

    std::cout << "\nexit cut: trap " << trap.exits << " -> exitless "
              << exitless.exits << " NIC-window exits (gate >= 10x)\n"
              << "serving p99: exitless "
              << sim::Table::num(exitless.p99Us, 1) << " us vs dedicated "
              << sim::Table::num(ded.p99Us, 1) << " us (ratio "
              << sim::Table::num(p99Ratio, 3) << ", gate <= 1.25); "
              << "passthrough " << sim::Table::num(pass.p99Us, 1)
              << " us\n"
              << "deploy goodput ratio (exitless/dedicated): "
              << sim::Table::num(goodput, 3) << " (gate >= 0.9)\n";
    if (base.tenants >= 4)
        std::cout << "DRR weight-2/weight-1 share ratio: ["
                  << sim::Table::num(exitless.weightRatioMin, 2)
                  << ", "
                  << sim::Table::num(exitless.weightRatioMax, 2)
                  << "] (gate within [1.3, 3.2])\n";
    std::cout << "\n--- determinism sweep (exitless) ---\n";
    printRecords(det.records());

    std::ofstream json("BENCH_shared_nic.json");
    json << "{\n  \"bench\": \"abl_shared_nic\",\n"
         << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
         << "  \"cells\": " << base.racks << ",\n"
         << "  \"tenants\": " << base.tenants << ",\n"
         << "  \"neighbors\": " << base.neighbors << ",\n"
         << "  \"rounds_per_cell\": " << base.rounds << ",\n"
         << "  \"modes\": {\n";
    for (std::size_t i = 0; i < modes.size(); ++i)
        json << "    \"" << cfgName(modes[i].cfg)
             << "\": " << modeJson(modes[i])
             << (i + 1 < modes.size() ? "," : "") << "\n";
    json << "  },\n"
         << "  \"kvm_eli_p99_us_analytic\": "
         << sim::Table::num(kvmEliP99, 2) << ",\n"
         << "  \"kvm_noeli_p99_us_analytic\": "
         << sim::Table::num(kvmNoEliP99, 2) << ",\n"
         << "  \"gates\": {\n"
         << "    \"exit_cut_10x\": "
         << (exitless.exits * 10 <= trap.exits ? "true" : "false")
         << ",\n"
         << "    \"p99_ratio\": " << sim::Table::num(p99Ratio, 4)
         << ",\n"
         << "    \"deploy_goodput_ratio\": "
         << sim::Table::num(goodput, 4) << ",\n"
         << "    \"deterministic_across_shards\": "
         << (det.identical ? "true" : "false") << ",\n"
         << "    \"all\": " << (ok ? "true" : "false") << "\n"
         << "  },\n"
         << "  " << scaleRecordsJson(det.records(), "  ") << "\n"
         << "}\n";
    json.close();
    std::cout << "\nwrote BENCH_shared_nic.json\n";

    if (!ok)
        std::cout << "SHARED-NIC GATE FAILED: " << why << "\n";
    return ok ? 0 : 1;
}
