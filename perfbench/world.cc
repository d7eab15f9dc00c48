#include "world.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <set>

#include "bench/harness.hh"
#include "phases.hh"
#include "workloads/fio.hh"
#include "workloads/ycsb.hh"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** splitmix64: the benchmark's own input generator. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
    double uniform(double a, double b) { return a + (b - a) * unit(); }
    double exp(double mean) { return -mean * std::log(1.0 - unit()); }
    unsigned below(unsigned n) { return static_cast<unsigned>(next() % n); }

  private:
    std::uint64_t s_;
};

sim::Tick
ticks(double seconds)
{
    return static_cast<sim::Tick>(
        std::llround(seconds * static_cast<double>(sim::kSec)));
}

/** Host-time guard on one iteration: a pathological input fails the
 *  run instead of hanging it. */
constexpr double kHostLimitS = 150.0;
/** Granularity of the settle/bare-metal checks between runUntil
 *  calls. */
constexpr sim::Tick kSlice = 10 * sim::kMs;
/** Guest I/O addresses whole 64 KiB slots; no two in-flight ops of a
 *  lease touch the same slot, so every read has one right answer. */
constexpr std::uint32_t kSlotSectors = 128;
/** Data-region slots per node (io_during_deploy writes). */
constexpr std::uint32_t kDataSlots = 256;

/**
 * The paper's 32 GiB image and its calibrated boot trace
 * (bench/harness.hh; EXPERIMENTS.md, "Calibration summary"), shrunk
 * by this one factor so a run takes seconds. Image and boot shrink
 * alike, so the paper's ratio of boot work to copy work holds; fixed
 * latencies (VMM boot, seeks, round trips) do not shrink.
 */
constexpr unsigned kScale = 256;

sim::Bytes
scaledImageBytes()
{
    return bench::kImageSectors * sim::kSectorSize / kScale;
}

/** The boot trace scaled like the image: fewer bytes, reads and CPU
 *  work; reads keep their size and their sequential share. */
guest::BootTrace
scaledBoot()
{
    guest::BootTrace b = bench::paperBootTrace();
    b.loaderBytes /= kScale;
    b.kernelBytes /= kScale;
    b.numReads = (b.numReads + kScale / 2) / kScale;
    b.cpuTotal /= kScale;
    b.regionBytes /= kScale;
    return b;
}

/**
 * The guest I/O stream, built from the paper's own probes and the
 * region's calibrated moderation threshold T (ops/s): every op is
 * ioping's 4 KiB (Fig. 11), the read share is YCSB's (Fig. 5), and
 * open-loop bursts arrive at 4T, enough to trip the background
 * copy's moderation (paper section 5.6), with a mean rate of T/2 so
 * the copy is never suspended for good. A burst carries T ops on
 * average.
 */
IoShape
pacedIo(IoShape::Mode mode, double threshold)
{
    IoShape s;
    s.mode = mode;
    s.opSectors = static_cast<std::uint32_t>(
        workloads::IopingParams{}.blockBytes / sim::kSectorSize);
    s.writeFrac = 1.0 - workloads::YcsbParams{}.readFraction;
    s.burstRate = 4.0 * threshold;
    s.burstOps = static_cast<unsigned>(std::lround(threshold));
    const double off = s.burstOps / (threshold / 2.0) -
                       s.burstOps / s.burstRate;
    s.offMinS = 0.75 * off;
    s.offMaxS = 1.25 * off;
    return s;
}

} // namespace

bool
parseWorkload(const std::string &name, Workload &out)
{
    for (Workload w : {Workload::DeployStorm, Workload::IoDuringDeploy,
                       Workload::ElasticChurn})
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    return false;
}

const char *
workloadName(Workload w)
{
    switch (w) {
    case Workload::DeployStorm:
        return "deploy_storm";
    case Workload::IoDuringDeploy:
        return "io_during_deploy";
    case Workload::ElasticChurn:
        return "elastic_churn";
    }
    return "?";
}

namespace {

/** Scenarios pooled per run: enough that every lease timing has a
 *  tail percentile with ten samples beyond it, and that the pooled
 *  medians move by only a few percent from seed to seed. */
unsigned
scenarioCount(Workload w)
{
    switch (w) {
    case Workload::DeployStorm:
        return 12;
    case Workload::IoDuringDeploy:
        return 20;
    case Workload::ElasticChurn:
        return 8;
    }
    return 1;
}

Plan
makePlan(Workload w, std::uint64_t seed, unsigned scenario)
{
    Plan p;
    Rng r(seed * 0x2545F4914F6CDD1DULL + 0x100 * scenario +
          static_cast<unsigned>(w));
    p.imageBase = r.next() | 1;
    p.cfg.machineTemplate.seed = r.next() >> 1;
    p.cfg.guestTemplate.seed = r.next() >> 1;
    p.ioSeed = r.next();
    p.imageBytes = scaledImageBytes();
    p.cfg.guestTemplate.boot = scaledBoot();
    const double threshold = p.cfg.vmm.moderation.guestIoFreqThreshold;

    switch (w) {
    case Workload::DeployStorm: {
        // Open-loop burst: every lease at t=0, one shared flat image,
        // store tier (flat RS), topology and congestion on. The seed
        // servers serve the shared image mostly from page cache.
        // Twelve machines: at sixteen about a quarter of the storms
        // fall into a slow mode of AoE retransmissions.
        p.cfg.machines = 12;
        p.cfg.racks = 4;
        p.cfg.server.workers = 8;
        p.cfg.server.cacheHitRate = 0.9;
        p.cfg.store.enabled = true;
        p.cfg.topology.racks = 4;
        p.cfg.congestion.enabled = true;
        p.deadlineS = 600.0;
        for (unsigned i = 0; i < p.cfg.machines; ++i) {
            LeaseSpec l;
            l.tenant = 1 + i % 4;
            p.leases.push_back(l);
        }
        break;
    }
    case Workload::IoDuringDeploy: {
        // The default region (single image server), one rack;
        // guests run I/O from serving to bare metal.
        p.cfg.machines = 4;
        p.deadlineS = 900.0;
        p.io = pacedIo(IoShape::Mode::UntilBareMetal, threshold);
        for (unsigned i = 0; i < p.cfg.machines; ++i)
            p.leases.push_back(LeaseSpec{});
        break;
    }
    case Workload::ElasticChurn: {
        p.cfg.machines = 8;
        p.cfg.racks = 4;
        p.cfg.store.enabled = true;
        p.cfg.store.code = store::ec::CodeKind::Lrc;
        // LRC 4+2+2 spans 8 members; spares must exist for repair.
        p.cfg.store.seedServers = 10;
        p.cfg.store.repair.enabled = true;
        p.cfg.topology.racks = 4;
        p.cfg.congestion.enabled = true;
        p.cfg.congestion.scavengerShare = 0.1;
        p.cfg.controlPlane.scrubTime = 2 * sim::kSec;
        p.deadlineS = 1800.0;
        p.io = pacedIo(IoShape::Mode::DuringHold, threshold);
        p.crashServer = r.below(p.cfg.store.seedServers);
        p.crashAtS = 6.0;
        // Poisson arrivals at two rates: a flash crowd of one and a
        // half times the pool within a quarter second fills the
        // admission queue;
        // the slow stream after it rarely queues and leaves slots
        // free for migrations. Tenants, QoS classes and the overlay
        // and migration picks are stratified (fixed shares, seeded
        // order) so scenarios differ in timing, not in how much of
        // each kind of work they carry.
        const unsigned wave = 12, n = 40;
        const unsigned phase = r.below(4);
        double t = 0.0;
        for (unsigned i = 0; i < n; ++i) {
            LeaseSpec l;
            t += r.exp(i < wave ? 0.02 : 6.0);
            l.atS = t;
            l.tenant = 1 + (i + phase) % 4;
            const unsigned q = (i + phase) % 5;
            l.qos = q == 0   ? cloud::QosClass::Critical
                    : q == 4 ? cloud::QosClass::Scavenger
                             : cloud::QosClass::Standard;
            l.holdS = r.uniform(3.0, 5.0);
            l.migrate = i >= wave && (i + phase) % 2 == 0;
            l.toOverlay = (i + phase) % 4 == 1;
            l.overlayDelayS = r.uniform(0.5, 3.0);
            l.overlayHoldS = r.uniform(3.0, 5.0);
            p.leases.push_back(l);
        }
        break;
    }
    }
    return p;
}

} // namespace

std::vector<Plan>
makePlans(Workload w, std::uint64_t seed)
{
    std::vector<Plan> plans;
    for (unsigned k = 0; k < scenarioCount(w); ++k)
        plans.push_back(makePlan(w, seed, k));
    return plans;
}

namespace {

/** One lease the benchmark tracks (flat or overlay re-lease). */
struct Rec
{
    std::size_t idx = 0;
    LeaseSpec spec;
    std::string image;
    cloud::Lease *lease = nullptr;

    bool bmSeen = false;
    /** Deployment milestones, read when bare metal is first seen. */
    Milestones ms;
    bool holdOver = false;
    bool releaseAsked = false;

    // Guest I/O stream.
    std::unique_ptr<Rng> rng;
    unsigned burstLeft = 0;
    unsigned inflight = 0;
    std::vector<std::uint8_t> slotBusy;
    std::vector<std::uint8_t> dataWritten;
    hw::DiskStore shadow; ///< this tenant's completed writes

    // Live migration.
    bool migStarted = false;
    bool migDone = false;
    sim::Tick nextMigTry = 0;
};

class World
{
  public:
    World(const Plan &plan, Probes &spans)
        : plan_(plan), spans_(spans),
          sectors_(plan.imageBytes / sim::kSectorSize)
    {
    }

    IterResult run();
    /** Build the region and register its images; host seconds. */
    double timedSetup();

  private:
    using Scope = Probes::Scope;

    void setup();
    void submit(Rec &rec);
    void observe();
    bool settled() const;
    void onBareMetal(Rec &rec, bmcast::Instance &inst);
    void tryMigrate(Rec &rec, bmcast::Instance &inst);
    void release(Rec &rec, bmcast::Instance &inst);
    bool verifyDisk(Rec &rec, bmcast::Instance &inst, bool atBareMetal);
    void startIo(Rec &rec);
    void ioTick(Rec &rec, sim::Tick due);
    bool ioActive(Rec &rec);
    void issueOp(Rec &rec, sim::Tick due);
    std::uint64_t expectedToken(const Rec &rec, sim::Lba lba) const;
    void noteGuest(bmcast::Instance &inst);
    void collect(IterResult &out);
    void error(std::string what);

    const Plan &plan_;
    Probes &spans_;
    const sim::Lba sectors_;

    // Declared before the Cloud so the Cloud is destroyed first.
    sim::EventQueue eq_;
    std::unique_ptr<bmcast::Cloud> cloud_;

    std::vector<std::unique_ptr<Rec>> recs_;
    /** Expected content of every image, by name. */
    std::map<std::string, hw::DiskStore> refs_;
    unsigned pendingSubmits_ = 0;
    std::set<hw::Machine *> machines_;
    /** Last read block-driver counters per guest object. */
    std::map<guest::GuestOs *, std::pair<std::uint64_t, sim::Tick>>
        guests_;

    sim::Tick crashAt_ = 0;
    bool crashed_ = false;
    bool healed_ = false;
    sim::Tick healAt_ = 0;

    std::vector<double> ioLatMs_;
    std::uint64_t ioAttempted_ = 0;
    std::uint64_t ioMismatches_ = 0;
    std::uint64_t verifyAttempted_ = 0;
    std::uint64_t verifyFailed_ = 0;
    std::uint64_t migAttempted_ = 0;
    std::uint64_t migSkipped_ = 0;
    double verifyHostS_ = 0.0;
    std::vector<std::string> errors_;
};

void
World::error(std::string what)
{
    if (errors_.size() < 20)
        errors_.push_back(std::move(what));
}

void
World::setup()
{
    {
        Scope s(&spans_, "cloud.Cloud", "cloud");
        cloud_ = std::make_unique<bmcast::Cloud>(eq_, "region",
                                                 plan_.cfg);
    }
    {
        Scope s(&spans_, "cloud.addImage", "cloud");
        cloud_->addImage("golden", plan_.imageBytes, plan_.imageBase);
    }
    hw::DiskStore ref;
    ref.write(0, sectors_, plan_.imageBase);
    refs_.emplace("golden", std::move(ref));
}

double
World::timedSetup()
{
    auto t0 = Clock::now();
    setup();
    return secondsSince(t0);
}

void
World::submit(Rec &rec)
{
    cloud::LeaseRequest rq;
    rq.image = rec.image;
    rq.tenant = rec.spec.tenant;
    rq.qos = rec.spec.qos;
    Scope s(&spans_, "cloud.submitLease", "cloud");
    rec.lease = cloud_->submitLease(
        std::move(rq), [this, r = &rec](bmcast::Instance &) {
            if (plan_.io.mode == IoShape::Mode::UntilBareMetal)
                startIo(*r);
        });
}

IterResult
World::run()
{
    IterResult out;
    out.setupS = timedSetup();

    const auto k0 = eq_.counters();
    auto t1 = Clock::now();
    for (std::size_t i = 0; i < plan_.leases.size(); ++i) {
        auto rec = std::make_unique<Rec>();
        rec->idx = i;
        rec->spec = plan_.leases[i];
        rec->image = "golden";
        Rec *r = rec.get();
        recs_.push_back(std::move(rec));
        if (r->spec.atS <= 0.0)
            submit(*r);
        else {
            ++pendingSubmits_;
            eq_.scheduleAt(ticks(r->spec.atS), [this, r]() {
                --pendingSubmits_;
                submit(*r);
            });
        }
    }
    if (plan_.crashAtS >= 0.0) {
        crashAt_ = ticks(plan_.crashAtS);
        eq_.scheduleAt(crashAt_, [this]() {
            Scope s(&spans_, "aoe.AoeServer.crash", "aoe");
            cloud_->seedServer(plan_.crashServer).crash();
            crashed_ = true;
        });
    }

    const sim::Tick deadline = ticks(plan_.deadlineS);
    while (true) {
        {
            Scope s(&spans_, "sim.runUntil", "simcore");
            eq_.runUntil(eq_.now() + kSlice);
        }
        observe();
        if (settled())
            break;
        if (eq_.now() >= deadline) {
            error("deadline reached before the workload settled");
            break;
        }
        if (secondsSince(t1) > kHostLimitS) {
            error("host-time limit reached before the workload settled");
            break;
        }
    }
    out.wallS = secondsSince(t1) - verifyHostS_;
    const auto &k1 = eq_.counters();
    const std::uint64_t events = k1.executed - k0.executed;
    out.nsPerEvent = events ? static_cast<double>(k1.wallNs - k0.wallNs) /
                                  static_cast<double>(events)
                            : 0.0;
    collect(out);
    auto &c = out.sums;
    c["events"] = static_cast<double>(events);
    c["scheduled"] = static_cast<double>(k1.scheduled - k0.scheduled);
    c["cancelled"] = static_cast<double>(k1.cancelled - k0.cancelled);
    c["tombstones"] =
        static_cast<double>(k1.tombstonesPopped - k0.tombstonesPopped);
    c["max.peak_pending"] = static_cast<double>(k1.peakPending);
    c["spilled_callbacks"] =
        static_cast<double>(k1.spilledCallbacks - k0.spilledCallbacks);
    out.errors = errors_;
    return out;
}

void
World::noteGuest(bmcast::Instance &inst)
{
    guest::BlockDriver &blk = inst.guest().blk();
    guests_[&inst.guest()] = {blk.opsCompleted(), blk.totalLatency()};
}

void
World::observe()
{
    // Index loop: release() may append overlay re-leases.
    for (std::size_t i = 0; i < recs_.size(); ++i) {
        Rec &rec = *recs_[i];
        if (!rec.lease || rec.lease->terminal() ||
            rec.lease->state() == cloud::LeaseState::Releasing)
            continue;
        bmcast::Instance *inst = cloud_->instanceFor(*rec.lease);
        if (!inst)
            continue;
        machines_.insert(&inst->machine());
        noteGuest(*inst);
        if (!rec.bmSeen && inst->deployer().bareMetalReached())
            onBareMetal(rec, *inst);
        if (!rec.bmSeen)
            continue;
        // A copy that beats the guest's boot reaches bare metal
        // first; the boot milestone follows on the same node.
        if (rec.ms.guestBootDone == 0 && !rec.migStarted)
            rec.ms.guestBootDone =
                inst->deployer().timeline().guestBootDone;

        if (rec.spec.migrate && !rec.migStarted && !rec.holdOver &&
            eq_.now() >= rec.nextMigTry)
            tryMigrate(rec, *inst);
        if (rec.migStarted && !rec.migDone && inst->migration() &&
            inst->migration()->finished())
            rec.migDone = true;

        // An aborted migration finishes before the source node is
        // de-virtualized again; the lease stays Migrating until then.
        if (rec.holdOver && !rec.releaseAsked && rec.inflight == 0 &&
            (!rec.migStarted || rec.migDone) &&
            rec.lease->state() != cloud::LeaseState::Migrating)
            release(rec, *inst);
    }
    if (crashed_ && !healed_) {
        store::RepairScheduler *rs = cloud_->repairScheduler();
        if (!rs || (rs->idle() && rs->allHealthy())) {
            healed_ = true;
            healAt_ = eq_.now();
        }
    }
}

bool
World::settled() const
{
    if (pendingSubmits_ > 0)
        return false;
    for (const auto &r : recs_) {
        if (!r->lease)
            return false;
        if (r->lease->state() == cloud::LeaseState::Rejected)
            continue;
        if (!r->bmSeen || r->inflight > 0)
            return false;
        if (r->spec.holdS >= 0.0 && !r->lease->terminal())
            return false;
    }
    return plan_.crashAtS < 0.0 || healed_;
}

void
World::onBareMetal(Rec &rec, bmcast::Instance &inst)
{
    rec.bmSeen = true;
    const auto &tl = inst.deployer().timeline();
    rec.ms = {rec.lease->submittedAt(), rec.lease->placedAt(),
              tl.powerOn,       tl.firmwareDone,
              tl.vmmReady,      tl.guestBootDone,
              tl.copyComplete,  tl.bareMetal};
    if (!verifyDisk(rec, inst, true))
        error("lease " + std::to_string(rec.lease->id()) +
              ": disk differs from image '" + rec.image +
              "' at bare metal");
    if (rec.spec.holdS < 0.0)
        return;
    const sim::Tick bm = tl.bareMetal;
    const sim::Tick end = std::max(eq_.now(), bm + ticks(rec.spec.holdS));
    eq_.scheduleAt(end, [r = &rec]() { r->holdOver = true; });
    if (rec.spec.migrate)
        rec.nextMigTry = bm + sim::kSec;
    if (plan_.io.mode == IoShape::Mode::DuringHold)
        startIo(rec);
}

void
World::tryMigrate(Rec &rec, bmcast::Instance &inst)
{
    if (rec.lease->state() == cloud::LeaseState::Serving &&
        cloud_->freeMachines() > 0) {
        for (unsigned slot = 0; slot < plan_.cfg.machines; ++slot) {
            if (slot == rec.lease->slot())
                continue;
            cloud::MigrateReject rj;
            {
                Scope s(&spans_, "cloud.migrate", "cloud");
                rj = cloud_->migrate(inst, slot);
            }
            if (rj == cloud::MigrateReject::None) {
                rec.migStarted = true;
                ++migAttempted_;
                return;
            }
        }
    }
    rec.nextMigTry = eq_.now() + 500 * sim::kMs;
}

void
World::release(Rec &rec, bmcast::Instance &inst)
{
    rec.releaseAsked = true;
    if (rec.spec.migrate && !rec.migStarted)
        ++migSkipped_;
    noteGuest(inst);
    if (!verifyDisk(rec, inst, false))
        error("lease " + std::to_string(rec.lease->id()) +
              ": disk lost tenant writes before release");
    if (!rec.spec.toOverlay) {
        Scope s(&spans_, "cloud.releaseLease", "cloud");
        cloud_->releaseLease(*rec.lease);
        return;
    }
    // The overlay holds the image plus this tenant's writes.
    const std::string name = "overlay" + std::to_string(rec.idx);
    hw::DiskStore ref = refs_.at(rec.image);
    rec.shadow.forEachBase(0, sectors_,
                           [&ref](sim::Lba lba, std::uint64_t n,
                                  std::uint64_t base) {
                               if (base)
                                   ref.write(lba, n, base);
                           });
    refs_.emplace(name, std::move(ref));
    {
        Scope s(&spans_, "cloud.releaseToOverlay", "cloud");
        cloud_->releaseToOverlay(inst, name);
    }
    auto child = std::make_unique<Rec>();
    child->idx = recs_.size();
    child->image = name;
    child->spec.tenant = rec.spec.tenant;
    child->spec.qos = rec.spec.qos;
    child->spec.holdS = rec.spec.overlayHoldS;
    Rec *c = child.get();
    recs_.push_back(std::move(child));
    ++pendingSubmits_;
    eq_.schedule(ticks(rec.spec.overlayDelayS), [this, c]() {
        --pendingSubmits_;
        submit(*c);
    });
}

bool
World::verifyDisk(Rec &rec, bmcast::Instance &inst, bool atBareMetal)
{
    auto t0 = Clock::now();
    Scope s(&spans_, "verify.disk", "verify");
    ++verifyAttempted_;
    const hw::DiskStore &disk = inst.machine().disk().store();
    bool ok = true;
    if (atBareMetal) {
        if (store::StoreFabric *f = cloud_->storeFabric())
            ok = f->catalog().verifyDisk(rec.image, disk);
        else
            ok = disk.rangeHasBase(0, sectors_, plan_.imageBase);
    }
    // Independent check: the image as the benchmark built it, plus
    // every write this tenant's guest completed.
    hw::DiskStore expect = refs_.at(rec.image);
    rec.shadow.forEachBase(0, sectors_,
                           [&expect](sim::Lba lba, std::uint64_t n,
                                     std::uint64_t base) {
                               if (base)
                                   expect.write(lba, n, base);
                           });
    expect.forEachBase(0, sectors_,
                       [&](sim::Lba lba, std::uint64_t n,
                           std::uint64_t base) {
                           if (!disk.rangeHasBase(lba, n, base))
                               ok = false;
                       });
    if (!ok)
        ++verifyFailed_;
    verifyHostS_ += secondsSince(t0);
    return ok;
}

void
World::startIo(Rec &rec)
{
    rec.rng = std::make_unique<Rng>(plan_.ioSeed ^
                                    (0x9E3779B97F4A7C15ULL * (rec.idx + 1)));
    rec.slotBusy.assign(
        plan_.io.mode == IoShape::Mode::DuringHold
            ? static_cast<std::size_t>(sectors_ / kSlotSectors)
            : kDataSlots,
        0);
    rec.dataWritten.assign(kDataSlots, 0);
    rec.burstLeft = 1 + rec.rng->below(2 * plan_.io.burstOps);
    ioTick(rec, eq_.now());
}

bool
World::ioActive(Rec &rec)
{
    if (rec.lease->state() == cloud::LeaseState::Releasing ||
        rec.lease->terminal())
        return false;
    if (plan_.io.mode == IoShape::Mode::UntilBareMetal) {
        bmcast::Instance *inst = cloud_->instanceFor(*rec.lease);
        return !inst->deployer().bareMetalReached();
    }
    return !rec.holdOver;
}

void
World::ioTick(Rec &rec, sim::Tick due)
{
    if (!ioActive(rec))
        return;
    issueOp(rec, due);
    Rng &r = *rec.rng;
    sim::Tick next;
    if (rec.burstLeft > 0) {
        --rec.burstLeft;
        next = due + ticks(r.exp(1.0 / plan_.io.burstRate));
    } else {
        rec.burstLeft = 1 + r.below(2 * plan_.io.burstOps);
        next = due + ticks(r.uniform(plan_.io.offMinS, plan_.io.offMaxS));
    }
    eq_.scheduleAt(next, [this, r = &rec, next]() { ioTick(*r, next); });
}

std::uint64_t
World::expectedToken(const Rec &rec, sim::Lba lba) const
{
    if (std::uint64_t b = rec.shadow.baseAt(lba))
        return hw::sectorToken(b, lba);
    return refs_.at(rec.image).tokenAt(lba);
}

void
World::issueOp(Rec &rec, sim::Tick due)
{
    Rng &r = *rec.rng;
    const bool hold = plan_.io.mode == IoShape::Mode::DuringHold;
    const bool write = r.unit() < plan_.io.writeFrac;
    const std::uint32_t count = plan_.io.opSectors;
    const std::uint32_t offset =
        count * r.below((kSlotSectors - count) / count + 1);

    // Pick a slot no in-flight op of this lease touches.
    sim::Lba lba = 0;
    std::size_t slot = 0;
    bool busyTracked = true;
    if (hold) {
        slot = r.below(static_cast<unsigned>(rec.slotBusy.size()));
        lba = static_cast<sim::Lba>(slot) * kSlotSectors;
    } else {
        // Data region right after the image; reads of the image use
        // this node's own stripe (no working-set sharing).
        const sim::Lba dataStart = sectors_;
        std::vector<std::size_t> written;
        if (!write)
            for (std::size_t i = 0; i < kDataSlots; ++i)
                if (rec.dataWritten[i] && !rec.slotBusy[i])
                    written.push_back(i);
        if (write || (!written.empty() && r.unit() < 0.15)) {
            slot = write ? r.below(kDataSlots)
                         : written[r.below(static_cast<unsigned>(
                               written.size()))];
            lba = dataStart + static_cast<sim::Lba>(slot) * kSlotSectors;
        } else {
            busyTracked = false;
            const sim::Lba stripe =
                sectors_ / static_cast<sim::Lba>(plan_.leases.size());
            const auto slots = static_cast<unsigned>(stripe / kSlotSectors);
            lba = static_cast<sim::Lba>(rec.idx) * stripe +
                  static_cast<sim::Lba>(r.below(slots)) * kSlotSectors;
        }
    }
    if (busyTracked && rec.slotBusy[slot])
        return; // a conflicting op is in flight: this one is not sent
    lba += offset;

    bmcast::Instance *inst = cloud_->instanceFor(*rec.lease);
    guest::BlockDriver &blk = inst->guest().blk();
    ++ioAttempted_;
    ++rec.inflight;
    if (busyTracked)
        rec.slotBusy[slot] = 1;
    if (write) {
        const std::uint64_t base = r.next() | 1;
        Scope s(&spans_, "guest.blk.write", "guest");
        blk.write(lba, count, base,
                  [this, rp = &rec, lba, count, base, slot, due, hold]() {
                      rp->shadow.write(lba, count, base);
                      rp->slotBusy[slot] = 0;
                      if (!hold)
                          rp->dataWritten[slot] = 1;
                      --rp->inflight;
                      ioLatMs_.push_back(
                          sim::toSeconds(eq_.now() - due) * 1e3);
                  });
        return;
    }
    Scope s(&spans_, "guest.blk.read", "guest");
    blk.read(lba, count,
             [this, rp = &rec, lba, count, slot, due, busyTracked](
                 const std::vector<std::uint64_t> &tokens) {
                 bool ok = tokens.size() == count;
                 for (std::uint32_t i = 0; ok && i < count; ++i)
                     ok = tokens[i] == expectedToken(*rp, lba + i);
                 if (!ok) {
                     ++ioMismatches_;
                     error("guest read at lba " + std::to_string(lba) +
                           " returned content that is neither the "
                           "image nor the guest's own writes");
                 }
                 if (busyTracked)
                     rp->slotBusy[slot] = 0;
                 --rp->inflight;
                 ioLatMs_.push_back(sim::toSeconds(eq_.now() - due) * 1e3);
             });
}

void
World::collect(IterResult &out)
{
    auto &c = out.sums;
    auto &smp = out.samples;
    // Keys exist even when nothing was sampled, so every scenario
    // contributes the same shape to the fingerprint.
    for (const char *k : {"serve_s", "baremetal_s", "admission_wait_s",
                          "guest_io_ms", "migration_downtime_ms",
                          "repair_heal_s"})
        smp[k];
    std::uint64_t leaseFailed = 0;
    Parts partSum{};

    for (const auto &rp : recs_) {
        const Rec &rec = *rp;
        cloud::Lease *l = rec.lease;
        if (!l || l->state() == cloud::LeaseState::Rejected) {
            ++leaseFailed;
            continue;
        }
        bmcast::Instance *inst = cloud_->instanceFor(*l);
        // A lease fails when it never serves or never reaches bare
        // metal before the deadline.
        if (!inst || l->servingAt() == 0 ||
            !inst->deployer().bareMetalReached())
            ++leaseFailed;
        if (l->servingAt() != 0)
            smp["serve_s"].push_back(
                sim::toSeconds(l->servingAt() - l->submittedAt()));
        if (l->state() != cloud::LeaseState::Queued)
            smp["admission_wait_s"].push_back(
                sim::toSeconds(l->admissionLatency()));
        if (!inst)
            continue;
        bmcast::BmcastDeployer &dep = inst->deployer();
        const auto &tl = dep.timeline();
        bmcast::Vmm &vmm = dep.vmm();
        machines_.insert(&vmm.machine());
        c["leases"] += 1;
        c["boot_read_bytes"] += inst->guest().bootReadBytes();
        if (rec.bmSeen) {
            const Milestones &ms = rec.ms;
            c["bm_leases"] += 1;
            c["deployed_bytes"] += plan_.imageBytes;
            smp["baremetal_s"].push_back(
                sim::toSeconds(ms.bareMetal - ms.submitted));
            if (const char *why = checkMilestones(ms)) {
                error("lease " + std::to_string(l->id()) +
                      ": deployment milestones out of order: " + why);
            } else {
                if (copyBeforeBoot(ms))
                    c["copy_before_boot"] += 1;
                const Parts parts = splitPhases(ms);
                sim::Tick t = ms.submitted;
                for (std::size_t i = 0; i < kNumParts; ++i) {
                    partSum[i] += parts[i];
                    spans_.phase(kPartNames[i], l->id(), t, t + parts[i]);
                    t += parts[i];
                }
                c["bm_ticks"] += ms.bareMetal - ms.submitted;
                if (l->releasedAt())
                    spans_.phase("held", l->id(), t, l->releasedAt());
            }
        }
        if (tl.vmmReady == 0)
            continue; // the VMM never reached its deployment phase
        aoe::AoeInitiator &ini = vmm.initiator();
        c["aoe_requests"] += ini.requestsIssued();
        c["aoe_retx"] += ini.retransmissions();
        c["aoe_terminal_errors"] += ini.terminalErrors();
        c["aoe_rtt_ticks"] += ini.rttEstimate();
        c["aoe_sessions"] += 1;
        if (store::ChunkStreamer *st = vmm.streamer()) {
            c["seed_fetches"] += st->seedFetches();
            c["peer_hits"] += st->peerHits();
            c["reconstructions"] += st->reconstructions();
            c["source_failures"] += st->sourceFailures();
            c["no_source_stalls"] += st->noSourceStalls();
            c["store_gate_waits"] += st->gateWaits();
        }
        const bmcast::MediatorStats &md = vmm.mediator().stats();
        c["redirected_reads"] += md.redirectedReads;
        c["redirected_sectors"] += md.redirectedSectors;
        c["mixed_redirects"] += md.mixedRedirects;
        c["vmm_ops"] += md.vmmOps;
        c["queued_guest_writes"] += md.queuedGuestWrites;
        c["dummy_restarts"] += md.dummyRestarts;
        bmcast::BackgroundCopy &bc = vmm.backgroundCopy();
        c["copy_bytes"] += bc.bytesWritten();
        c["copy_skipped_blocks"] += bc.blocksSkipped();
        c["copy_suspensions"] += bc.suspensions();
        c["copy_gate_waits"] += bc.gateWaits();
        c["copy_degrades"] += bc.degradeEvents();
        c["failovers"] += vmm.failovers();
        c["fetch_errors"] += vmm.fetchErrors();
        if (migrate::MigrationManager *mg = inst->migration()) {
            const migrate::MigrateStats &s = mg->stats();
            c["mig_rounds"] += s.rounds;
            c["mig_bytes_shipped"] += s.bytesShipped;
            c["mig_final_bytes"] += s.finalBytes;
            c["mig_forced_stops"] += s.forcedStop ? 1 : 0;
            if (s.aborted || !mg->finished())
                c["mig_aborted"] += 1;
            else
                smp["migration_downtime_ms"].push_back(
                    sim::toSeconds(s.downtime) * 1e3);
        }
    }
    for (std::size_t i = 0; i < kNumParts; ++i)
        c[std::string("part_ticks.") + kPartNames[i]] =
            static_cast<double>(partSum[i]);
    smp["guest_io_ms"] = ioLatMs_;
    if (healed_)
        smp["repair_heal_s"].push_back(sim::toSeconds(healAt_ - crashAt_));
    // Simulated machine- and server-time the busy fractions divide by.
    const auto span = static_cast<double>(eq_.now());
    c["machine_span_ticks"] = span * static_cast<double>(machines_.size());
    c["seed_span_ticks"] = span * static_cast<double>(cloud_->seedServerCount());

    // hw: every machine any lease ran on.
    for (hw::Machine *mc : machines_) {
        c["timer_exits"] += mc->vmx().exits(hw::ExitReason::PreemptionTimer);
        c["io_exits"] += mc->vmx().exits(hw::ExitReason::PioAccess) +
                         mc->vmx().exits(hw::ExitReason::MmioAccess);
        c["vmm_stolen_ticks"] += mc->vmx().stolenCpuTime();
        c["disk_busy_ticks"] += mc->disk().busyTime();
        c["disk_seeks"] += mc->disk().seeks();
        c["disk_cache_hits"] += mc->disk().cacheHits();
        c["disk_media_retries"] += mc->disk().mediaRetries();
        c["wire_bytes"] += mc->mgmtNic().port().bytesSentOnWire() +
                           mc->guestNic().port().bytesSentOnWire();
        c["frames_dropped"] += mc->mgmtNic().port().framesDropped() +
                               mc->guestNic().port().framesDropped();
    }

    // net and aoe: the region's LAN and seed servers.
    net::Network &lan = cloud_->network();
    for (std::size_t i = 0; i < cloud_->seedServerCount(); ++i) {
        aoe::AoeServer &srv = cloud_->seedServer(static_cast<unsigned>(i));
        c["seed_bytes"] += srv.dataBytesOut();
        c["seed_worker_busy_ticks"] +=
            srv.workerBusyTime() / std::max(1u, srv.params().workers);
        if (net::Port *port = lan.findPort(cloud_->seedMacs()[i])) {
            c["wire_bytes"] += port->bytesSentOnWire();
            c["frames_dropped"] += port->framesDropped();
        }
    }
    if (net::Topology *topo = cloud_->topology())
        for (unsigned rk = 0; rk < plan_.cfg.racks; ++rk)
            c["uplink_frames"] += topo->uplinkFrames(rk);
    c["frames_forwarded"] += lan.framesForwarded();
    c["uplink_drops"] += lan.uplinkDrops();

    // store
    if (store::StoreFabric *f = cloud_->storeFabric()) {
        c["dedup_hits"] += f->chunkStore().dedupHits();
        c["unique_chunks"] += f->chunkStore().uniqueChunks();
    }
    if (store::RepairScheduler *rs = cloud_->repairScheduler()) {
        c["repair_jobs"] += rs->stats().jobsCompleted;
        c["repair_wire_bytes"] += rs->stats().wireBytes;
        c["repair_repaired_bytes"] += rs->stats().repairedBytes;
    }

    // cloud
    cloud::ControlPlane &cp = cloud_->plane();
    for (auto v : cp.stats().rejected)
        c["rejected"] += v;
    c["max.queue_peak"] = cp.queuePeakDepth();
    if (cloud::CongestionController *cc = cloud_->congestion())
        for (unsigned rk = 0; rk < plan_.cfg.racks; ++rk) {
            c["throttle_ticks"] += cc->throttleDelay(rk);
            c["grants"] += cc->grants(rk);
            c["scavenger_delay_ticks"] += cc->scavengerDelay(rk);
        }

    // guest
    for (const auto &[g, v] : guests_) {
        c["blk_ops"] += v.first;
        c["blk_latency_ticks"] += v.second;
    }

    // migrate
    c["mig_started"] += migAttempted_;
    c["mig_skipped"] += migSkipped_;

    // Failures over operations attempted: leases, guest I/Os,
    // migrations and disk verifications.
    std::uint64_t ioLost = 0;
    for (const auto &rp : recs_)
        ioLost += rp->inflight;
    c["ops_attempted"] += recs_.size() + ioAttempted_ + migAttempted_ +
                          verifyAttempted_;
    c["ops_failed"] += leaseFailed + ioLost + ioMismatches_ +
                       c["mig_aborted"] + verifyFailed_;
    if (ioMismatches_ || verifyFailed_)
        error("correctness gate failed");
}

} // namespace

std::uint64_t
simFingerprint(const IterResult &r)
{
    std::map<std::string, double> all = r.sums;
    for (const auto &[k, v] : r.samples) {
        all["n." + k] = static_cast<double>(v.size());
        for (std::size_t i = 0; i < v.size(); ++i)
            all[k + "." + std::to_string(i)] = v[i];
    }
    return fingerprint(all);
}

Summary
summarize(const std::vector<const IterResult *> &results)
{
    std::map<std::string, double> c;
    std::map<std::string, std::vector<double>> smp;
    for (const IterResult *r : results) {
        for (const auto &[k, v] : r->sums)
            c[k] = k.rfind("max.", 0) == 0 ? std::max(c[k], v) : c[k] + v;
        for (const auto &[k, v] : r->samples)
            smp[k].insert(smp[k].end(), v.begin(), v.end());
    }
    Summary out;
    auto &m = out.sim;
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    auto timing = [&](const std::string &p50, const std::string &tl,
                      const std::vector<double> &v) {
        m[p50] = median(v);
        if (!tl.empty()) {
            out.tails[tl] = tail(v);
            m[tl] = out.tails[tl].value;
        }
    };
    timing("serve_p50_s", "serve_tail_s", smp["serve_s"]);
    timing("baremetal_p50_s", "baremetal_tail_s", smp["baremetal_s"]);
    timing("guest_io_p50_ms", "guest_io_tail_ms", smp["guest_io_ms"]);
    timing("migration_downtime_p50_ms", "", smp["migration_downtime_ms"]);
    timing("admission_wait_p50_s", "admission_wait_tail_s",
           smp["admission_wait_s"]);
    timing("repair_heal_s", "", smp["repair_heal_s"]);

    const double gib = c["deployed_bytes"] / sim::kGiB;
    m["seed_bytes_per_gib"] = ratio(c["seed_bytes"], gib);
    m["failed_frac"] = ratio(c["ops_failed"], c["ops_attempted"]);
    out.attempted = static_cast<std::uint64_t>(c["ops_attempted"]);
    out.failed = static_cast<std::uint64_t>(c["ops_failed"]);

    // simcore
    m["events"] = c["events"];
    m["events_per_gib"] = ratio(c["events"], gib);
    m["cancel_frac"] = ratio(c["cancelled"], c["scheduled"]);
    m["tombstones"] = c["tombstones"];
    m["peak_pending"] = c["max.peak_pending"];
    m["spilled_callbacks"] = c["spilled_callbacks"];

    // hw
    m["timer_exits"] = c["timer_exits"];
    m["timer_event_frac"] = ratio(c["timer_exits"], c["events"]);
    m["io_exits"] = c["io_exits"];
    m["vmm_stolen_cpu_s"] = sim::toSeconds(c["vmm_stolen_ticks"]);
    m["disk_busy_frac"] =
        ratio(c["disk_busy_ticks"], c["machine_span_ticks"]);
    for (const char *k : {"disk_seeks", "disk_cache_hits",
                          "disk_media_retries", "frames_forwarded",
                          "wire_bytes", "frames_dropped", "uplink_frames",
                          "uplink_drops", "aoe_requests",
                          "aoe_terminal_errors"})
        m[k] = c[k];

    // aoe
    m["aoe_retx_frac"] = ratio(c["aoe_retx"], c["aoe_requests"]);
    m["aoe_rtt_ema_us"] =
        ratio(sim::toSeconds(c["aoe_rtt_ticks"]) * 1e6, c["aoe_sessions"]);
    m["aoe_server_busy_frac"] =
        ratio(c["seed_worker_busy_ticks"], c["seed_span_ticks"]);
    m["aoe_server_bytes_out"] = c["seed_bytes"];

    // store
    for (const char *k : {"seed_fetches", "peer_hits", "reconstructions",
                          "source_failures", "no_source_stalls",
                          "store_gate_waits", "dedup_hits",
                          "unique_chunks", "repair_jobs",
                          "repair_wire_bytes"})
        m[k] = c[k];
    m["peer_hit_frac"] =
        ratio(c["peer_hits"], c["peer_hits"] + c["seed_fetches"]);
    m["repair_useful_frac"] =
        ratio(c["repair_repaired_bytes"], c["repair_wire_bytes"]);

    // bmcast: the phase split, as means over bare-metal leases; the
    // parts sum to baremetal_mean_s.
    for (std::size_t i = 0; i < kNumParts; ++i)
        m[std::string(kPartNames[i]) + "_s"] = ratio(
            sim::toSeconds(c[std::string("part_ticks.") + kPartNames[i]]),
            c["bm_leases"]);
    m["baremetal_mean_s"] =
        ratio(sim::toSeconds(c["bm_ticks"]), c["bm_leases"]);
    m["copy_before_boot_frac"] =
        ratio(c["copy_before_boot"], c["bm_leases"]);
    for (const char *k :
         {"redirected_reads", "redirected_sectors", "mixed_redirects",
          "vmm_ops", "queued_guest_writes", "dummy_restarts", "copy_bytes",
          "copy_skipped_blocks", "copy_suspensions", "copy_gate_waits",
          "copy_degrades", "failovers", "fetch_errors"})
        m[k] = c[k];

    // cloud
    m["queue_peak"] = c["max.queue_peak"];
    m["rejected"] = c["rejected"];
    m["throttle_s"] = sim::toSeconds(c["throttle_ticks"]);
    m["grants"] = c["grants"];
    m["scavenger_delay_s"] = sim::toSeconds(c["scavenger_delay_ticks"]);

    // guest
    m["boot_read_mib"] =
        ratio(c["boot_read_bytes"] / sim::kMiB, c["leases"]);
    m["blk_ops"] = c["blk_ops"];
    m["blk_mean_us"] =
        ratio(sim::toSeconds(c["blk_latency_ticks"]) * 1e6, c["blk_ops"]);

    // migrate
    for (const char *k : {"mig_started", "mig_skipped", "mig_rounds",
                          "mig_bytes_shipped", "mig_final_bytes",
                          "mig_forced_stops", "mig_aborted"})
        m[k] = c[k];
    return out;
}

IterResult
runIteration(const Plan &plan, Probes &spans)
{
    World w(plan, spans);
    return w.run();
}

double
setupSeconds(const Plan &plan)
{
    Probes off;
    World w(plan, off);
    return w.timedSetup();
}

} // namespace perfbench
