#include "bmcast/vmm.hh"

#include <utility>

#include "aoe/protocol.hh"
#include "bmcast/ahci_mediator.hh"
#include "bmcast/ide_mediator.hh"
#include "bmcast/nvme_mediator.hh"
#include "hw/disk_store.hh"
#include "simcore/logging.hh"

namespace bmcast {

namespace {

/** Preemption-timer polling interval (§4.1: estimated from recent
 *  RTT and I/O latency; this is the default). */
constexpr sim::Tick kPollInterval = 100 * sim::kUs;

/** Reserved on-disk region (block bitmap + dummy sector) size. */
constexpr std::uint32_t kReservedDiskSectors = 2048;

/**
 * Deployment-phase cost profile (paper §5.2): TLB miss rate up to
 * 5x, miss latency 2x under nested paging; ~6% total CPU (5%
 * deployment threads, polling included, + 1% VMM core).
 */
constexpr double kTlbMissRateMult = 5.0;
constexpr double kTlbMissLatencyMult = 2.0;
constexpr double kDeployCpuWork = 0.05;
constexpr double kCoreCpuWork = 0.01;
/** BMcast's own cache footprint is small. */
constexpr double kCachePollution = 0.01;
/** RDMA latency overhead while deploying (§5.5.3: <1%). */
constexpr double kRdmaOverheadDeploy = 0.008;

} // namespace

Vmm::Vmm(sim::EventQueue &eq, std::string name, hw::Machine &machine,
         std::vector<net::MacAddr> server_macs,
         sim::Lba image_sectors, VmmParams params,
         bool vmxoff_supported)
    : sim::SimObject(eq, std::move(name)),
      machine_(machine), serverMacs(std::move(server_macs)),
      imageSectors(image_sectors), params_(params),
      vmxoffSupported(vmxoff_supported), obsTrack_(this->name())
{
    sim::fatalIf(serverMacs.empty(), "VMM needs >= 1 AoE server");
    sim::Lba total = machine_.disk().capacitySectors();
    sim::fatalIf(imageSectors + kReservedDiskSectors > total,
                 "image does not fit the local disk");
    bitmapHome = total - kReservedDiskSectors;
    dummy = total - 1;
}

sim::Tick
Vmm::phaseEnteredAt(Phase p) const
{
    return phaseAt[static_cast<std::size_t>(p)];
}

void
Vmm::noteMilestone(const char *what, double value)
{
    if (!obs::armed())
        return;
    obs::Tracer &t = obs::tracer();
    t.milestone(obsTrack_.id(t), what, now(), value);
}

void
Vmm::enterPhase(Phase p, const char *milestone)
{
    phase_ = p;
    phaseAt[static_cast<std::size_t>(p)] = now();
    noteMilestone(milestone);
}

hw::VirtProfile
Vmm::deployProfile() const
{
    hw::VirtProfile p;
    p.name = "bmcast-deploy";
    p.virtualized = true;
    p.nestedPaging = true;
    p.vmmCpuSteal = kDeployCpuWork + kCoreCpuWork;
    p.tlbMissRateMult = kTlbMissRateMult;
    p.tlbMissLatencyMult = kTlbMissLatencyMult;
    p.cachePollutionFactor = kCachePollution;
    p.rdmaLatencyOverhead = kRdmaOverheadDeploy;
    // Interrupts are NOT virtualized (mediators poll instead), so no
    // per-interrupt or per-I/O software cost is added.
    return p;
}

void
Vmm::netboot(std::function<void()> ready)
{
    if (halted)
        return; // powered off while the firmware was still booting
    sim::panicIfNot(phase_ == Phase::Off, "VMM booted twice");
    readyCb = std::move(ready);
    enterPhase(Phase::Initialization, "vmm.phase.initialization");
    sim::inform(name(), ": network boot (minimized image, parallel "
                        "init)");
    schedule(params_.bootTime, [this]() { installVmm(); });
}

void
Vmm::installVmm()
{
    if (halted)
        return; // powered off during the netboot delay
    // Reserve our memory by manipulating the BIOS map (§3.4).
    machine_.firmware().reserve(kReservedBase, kReservedBytes);
    arena = std::make_unique<hw::MemArena>(kReservedBase, kReservedBytes);

    // Only the dedicated management NIC is initialized by the VMM
    // (§3.1); polling mode, interrupts masked (§4.3).
    hw::BusView vmm_view(machine_.bus(), /*guestContext=*/false);
    nicDriver = std::make_unique<hw::E1000Driver>(
        eventQueue(), name() + ".nic", vmm_view, machine_.mgmtNic(),
        machine_.mem(), *arena, hw::E1000Driver::Mode::Polling);
    aoe::InitiatorParams aoe_params;
    aoe_params.major = params_.aoeMajor;
    aoe_params.maxRetries = params_.aoeMaxRetries;
    aoe_params.seed = machine_.config().seed;
    const bool store_on =
        storeSpec_.fabric && storeSpec_.fabric->params().enabled;
    if (store_on)
        aoe_params.shardMinTimeout =
            storeSpec_.fabric->params().shardMinTimeout;
    aoe_ = std::make_unique<aoe::AoeInitiator>(
        eventQueue(), name() + ".aoe", *nicDriver,
        serverMacs[serverIdx], aoe_params);
    // Terminal fetch errors: slow the background copy down, tell the
    // observer, fail over to the next server if one exists, and keep
    // every request alive — the bitmap guarantees an eventual resume
    // even if the sole server only comes back much later.
    aoe_->setErrorHandler([this](const aoe::DeployError &err) {
        ++numFetchErrors;
        noteMilestone("vmm.fetch_error",
                      static_cast<double>(numFetchErrors));
        if (copy)
            copy->noteFetchTrouble();
        if (deployErrorCb)
            deployErrorCb(err);
        if (serverIdx + 1 < serverMacs.size()) {
            ++serverIdx;
            ++numFailovers;
            sim::warn(name(), ": AoE server ", err.server,
                      " unresponsive; failing over to server #",
                      serverIdx);
            aoe_->retarget(serverMacs[serverIdx]);
            noteMilestone("vmm.failover",
                          static_cast<double>(serverIdx));
        }
        return aoe::ErrorAction::Retry;
    });

    if (store_on) {
        streamer_ = std::make_unique<store::ChunkStreamer>(
            eventQueue(), name() + ".stream", *aoe_,
            *storeSpec_.fabric, storeSpec_.image, storeSpec_.peerMac,
            imageSectors);
    }

    sim::Lba total = machine_.disk().capacitySectors();
    bitmap_ = std::make_unique<BlockBitmap>(total);
    // Only the image region deploys; everything beyond it (incl. the
    // reserved region) is considered local-only.
    bitmap_->markFilled(imageSectors, total - imageSectors);

    MediatorServices svc;
    svc.bitmap = bitmap_.get();
    svc.reservedBase = bitmapHome;
    svc.reservedEnd = total;
    svc.dummyLba = dummy;
    svc.fetchRemote = [this](sim::Lba lba, std::uint32_t count,
                             std::function<void(
                                 const std::vector<std::uint64_t> &)>
                                 done) {
        if (streamer_) {
            streamer_->fetch(lba, count, std::move(done));
            return;
        }
        // Copy-on-read demand fetches are deployment traffic too: on
        // the legacy path they book the same congestion lane as the
        // background copy, so the lane's rate bounds *all* image
        // bytes a rack pulls — one burst in flight per lane, never a
        // demand burst stacked on a copy burst. (The store path
        // charges once, inside the streamer.)
        if (gate_) {
            sim::Tick start =
                gate_(sim::Bytes(count) * sim::kSectorSize, now());
            if (start > now()) {
                schedule(start - now(),
                         [this, lba, count,
                          done = std::move(done)]() mutable {
                             if (halted)
                                 return;
                             aoe_->readSectors(lba, count,
                                               std::move(done));
                         });
                return;
            }
        }
        aoe_->readSectors(lba, count, std::move(done));
    };
    svc.stashFetched = [this](sim::Lba lba, std::uint32_t count,
                              const std::vector<std::uint64_t> &t) {
        if (copy)
            copy->stashFetched(lba, count, t);
    };
    svc.onGuestIo = [this]() {
        if (copy)
            copy->noteGuestIo();
    };
    // Guest writes poison store chunks (the pristine image content
    // is gone, so stop offering them as a peer source) and feed the
    // migration write hook. Both taps indirect through members —
    // MediatorServices is copied by value into the mediator, and the
    // hook may be (un)set long after install. With neither armed the
    // forwarder is inert: no events, no simulated time.
    svc.onGuestWriteRange = [this](sim::Lba lba,
                                   std::uint32_t count) {
        if (streamer_)
            streamer_->notePoisoned(lba, count);
        if (guestWriteHook)
            guestWriteHook(lba, count);
    };

    if (machine_.storageKind() == hw::StorageKind::Ide) {
        frontEnd_ = std::make_unique<IdeMediator>(
            eventQueue(), name() + ".medi", machine_.bus(),
            machine_.mem(), *arena, svc);
    } else if (machine_.storageKind() == hw::StorageKind::Ahci) {
        frontEnd_ = std::make_unique<AhciMediator>(
            eventQueue(), name() + ".medi", machine_.bus(),
            machine_.mem(), *arena, svc);
    } else {
        frontEnd_ = std::make_unique<NvmeMediator>(
            eventQueue(), name() + ".medi", machine_.bus(),
            machine_.mem(), *arena, svc);
    }

    // On the store path, background-copy fetch boundaries stay on
    // chunk edges so the streamer's pieces cover whole chunks
    // (peer-source registration needs complete chunks to land).
    copy = std::make_unique<BackgroundCopy>(
        eventQueue(), name() + ".copy", params_, mediator(), *bitmap_,
        [this](sim::Lba lba, std::uint32_t count,
               std::function<void(const std::vector<std::uint64_t> &)>
                   done) {
            if (streamer_)
                streamer_->fetch(lba, count, std::move(done),
                                 /*background=*/true);
            else
                aoe_->readSectors(lba, count, std::move(done));
        },
        imageSectors, streamer_ ? store::kChunkSectors : 0,
        [this]() { requestDevirtualization(); });
    if (gate_) {
        // One gate, one charge point per fetch: the streamer shapes
        // pieces on the store path; on the legacy path the retriever
        // shapes background blocks and fetchRemote (above) shapes
        // demand reads against the same lane.
        if (streamer_)
            streamer_->setRateGate(gate_);
        else
            copy->setRateGate(gate_);
    }
    if (streamer_) {
        // Pristine image content landing locally makes this node a
        // peer source for the covered chunks.
        copy->addWriteObserver(
            [this](sim::Lba lba, std::uint32_t count) {
                streamer_->noteLocalWrite(lba, count);
            });
        // Take chunks another node of the wave is already fetching
        // last: by then a peer usually holds them. The legacy path
        // has one server and no peers, so it keeps the plain pick.
        copy->setPickFilter([this](sim::Lba unit) {
            return !streamer_->claimedElsewhere(unit);
        });
    }

    enterMediation();

    // Resume an interrupted deployment if the reserved region holds
    // a bitmap (§3.3).
    tryRestoreBitmap([this](bool restored) {
        if (restored) {
            sim::inform(name(),
                        ": resumed deployment from saved bitmap (",
                        bitmap_->filledCount(), " sectors filled)");
        }
        enterPhase(Phase::Deployment, "vmm.phase.deployment");
        copy->start();
        armPeriodicBitmapSave();
        if (readyCb)
            readyCb();
    });
}

void
Vmm::enterMediation()
{
    // VMXON with nested paging on every CPU; memory is identity-
    // mapped, the VMM region unmapped from the guest. The mediator
    // install paths resync from live controller state (doorbell
    // readback on NVMe, shadow seeding on AHCI), so this is also the
    // way back in under a running bare-metal guest.
    for (unsigned c = 0; c < machine_.cores(); ++c)
        machine_.vmx().vmxon(c);
    frontEnd_->install();
    machine_.setProfile(deployProfile());

    // Poll loop on the VT-x preemption timer (§4.1); runs until the
    // bare-metal phase is reached.
    machine_.vmx().startPreemptionTimer(
        kPollInterval, [this]() {
            if (halted)
                return false;
            pollLoop();
            return phase_ != Phase::BareMetal;
        });
}

void
Vmm::leaveMediation(std::function<void()> done)
{
    // Nested paging off per CPU at independent times: identity
    // mapping means no cross-CPU TLB consistency problem (§3.4).
    cpusDevirtualized = 0;
    auto fin = std::make_shared<std::function<void()>>(std::move(done));
    for (unsigned c = 0; c < machine_.cores(); ++c) {
        schedule(sim::Tick(c) * 50 * sim::kUs, [this, c, fin]() {
            if (halted)
                return;
            machine_.vmx().disableNestedPaging(c);
            if (++cpusDevirtualized < machine_.cores())
                return;
            // The guest kept running while the CPUs switched and may
            // have issued I/O meanwhile; interposition is removed
            // only at a consistent hardware state (§3.1).
            whenQuiescent([this, fin]() {
                frontEnd_->uninstall();
                sim::panicIfNot(!machine_.bus().anyInterceptActive(),
                                "intercepts remain after de-virtualization");
                machine_.clearProfile();
                enterPhase(Phase::BareMetal, "vmm.phase.bare_metal");
                sim::inform(name(), ": de-virtualized; guest on bare metal");
                (*fin)();
            });
        });
    }
}

void
Vmm::whenQuiescent(std::function<void()> fn)
{
    if (halted)
        return;
    if (!mediator().quiescent()) {
        mediator().setQuiesceCallback(
            [this, fn = std::move(fn)]() mutable {
                whenQuiescent(std::move(fn));
            });
        return;
    }
    fn();
}

void
Vmm::pollLoop()
{
    nicDriver->poll();
    mediator().poll();
    if (devirtRequested && !devirtStarted)
        tryDevirtualize();
}

void
Vmm::powerOff()
{
    if (halted)
        return;
    halted = true;
    if (phase_ == Phase::Off)
        return; // nothing installed yet; netboot checks halted
    if (copy)
        copy->stop();
    if (streamer_)
        streamer_->shutdown();
    if (aoe_)
        aoe_->shutdown();
    if (frontEnd_)
        frontEnd_->powerOff();
    machine_.clearProfile();
    for (unsigned c = 0; c < machine_.cores(); ++c)
        machine_.vmx().vmxoff(c);
    phase_ = Phase::Off;
    noteMilestone("vmm.phase.off");
}

void
Vmm::requestDevirtualization()
{
    devirtRequested = true;
    retryDevirtualizeOnQuiesce();
}

void
Vmm::retryDevirtualizeOnQuiesce()
{
    // A never-idle guest quiesces only momentarily inside interrupt
    // acknowledgements; have the mediator call us at that instant.
    mediator().setQuiesceCallback([this]() {
        if (devirtRequested && !devirtStarted)
            tryDevirtualize();
    });
}

void
Vmm::tryDevirtualize()
{
    // Wait for a consistent hardware state (§3.1): no guest command,
    // redirection or VMM command in flight.
    if (!mediator().quiescent() || bitmapSaveInFlight) {
        retryDevirtualizeOnQuiesce();
        return;
    }
    if (devirtStarted)
        return;
    devirtStarted = true;
    enterPhase(Phase::Devirtualization, "vmm.phase.devirtualization");
    copy->stop();

    // Persist the final bitmap, then leave mediation.
    persistBitmap([this]() {
        leaveMediation([this]() {
            // The deployment network stack is done: cancel any
            // straggling AoE request (e.g. a retriever prefetch that
            // lost the race with the final write) — nothing will poll
            // the NIC after this.
            if (streamer_)
                streamer_->shutdown();
            aoe_->shutdown();
            // Without VMXOFF, VMX stays on: only CPUID (unconditional,
            // rare) causes exits (§5.5.2) — zero measurable overhead.
            if (vmxoffSupported) {
                for (unsigned c = 0; c < machine_.cores(); ++c)
                    machine_.vmx().vmxoff(c);
            }
            if (auto cb = std::exchange(bareMetalCb, nullptr))
                cb();
        });
    });
}

void
Vmm::persistBitmap(std::function<void()> done)
{
    if (phase_ == Phase::BareMetal) {
        done();
        return;
    }
    if (bitmapSaveInFlight) {
        // One save at a time — but completing the caller now would
        // confirm durability of a token that was never written
        // (migration's stop-and-copy handoff waits on this). Park
        // the request; once the in-flight save lands, a fresh save
        // of the *newest* state runs and only then completes it.
        pendingSaves_.push_back(std::move(done));
        return;
    }
    bitmapSaveInFlight = true;
    std::uint64_t token = bitmap_->serializeToken();
    persistBitmapAttempt(token, std::move(done));
}

void
Vmm::persistBitmapAttempt(std::uint64_t token, std::function<void()> done)
{
    if (halted)
        return;
    bool ok = mediator().vmmWrite(bitmapHome, 1, token,
                                  [this, done]() {
                                      bitmapSaveInFlight = false;
                                      done();
                                      if (pendingSaves_.empty())
                                          return;
                                      auto waiters =
                                          std::move(pendingSaves_);
                                      pendingSaves_.clear();
                                      persistBitmap(
                                          [waiters =
                                               std::move(waiters)]() {
                                              for (const auto &w :
                                                   waiters)
                                                  w();
                                          });
                                  });
    if (!ok)
        schedule(2 * sim::kMs, [this, token, done = std::move(done)]() {
            persistBitmapAttempt(token, done);
        });
}

void
Vmm::armPeriodicBitmapSave()
{
    // Periodic save during the deployment phase (§3.3: the VMM
    // saves the bitmap on the local disk for shutdown/reboot). The
    // timer cancels itself once the deployment phase is over.
    bitmapSaveTimer = schedulePeriodic(10 * sim::kSec, [this]() {
        if (halted || phase_ != Phase::Deployment) {
            eventQueue().cancel(bitmapSaveTimer);
            return;
        }
        persistBitmap([] {});
    });
}

void
Vmm::saveBitmapNow(std::function<void()> done)
{
    persistBitmap(std::move(done));
}

void
Vmm::revirtualize(std::function<bool()> guest_idle,
                  std::function<void()> ready)
{
    sim::panicIfNot(phase_ == Phase::BareMetal && !halted,
                    "revirtualize needs a bare-metal machine");
    // The mediator install paths demand a guest-quiescent instant —
    // no command queued or in flight. The guest keeps running; poll
    // for the next such instant.
    if (!guest_idle()) {
        schedule(kPollInterval,
                 [this, guest_idle = std::move(guest_idle),
                  ready = std::move(ready)]() mutable {
                     if (phase_ != Phase::BareMetal || halted)
                         return; // powered off (or re-virtualized)
                     revirtualize(std::move(guest_idle),
                                  std::move(ready));
                 });
        return;
    }

    // Nested paging back on, per CPU, and the poll loop re-armed;
    // identity mapping means the guest never notices (§3.4, reversed).
    enterMediation();
    devirtRequested = false;
    devirtStarted = false;
    enterPhase(Phase::Revirtualized, "vmm.phase.revirtualized");
    sim::inform(name(), ": re-virtualized under the running guest");
    ready();
}

void
Vmm::devirtualizeAgain(std::function<void()> on_done)
{
    sim::panicIfNot(phase_ == Phase::Revirtualized,
                    "devirtualizeAgain outside Revirtualized");
    whenQuiescent([this, on_done = std::move(on_done)]() mutable {
        enterPhase(Phase::Devirtualization,
                   "vmm.phase.devirtualization");
        leaveMediation(std::move(on_done));
    });
}

void
Vmm::tryRestoreBitmap(std::function<void(bool)> done)
{
    bool ok = mediator().vmmRead(
        bitmapHome, 1,
        [this, done](const std::vector<std::uint64_t> &tokens) {
            bool restored = false;
            if (!tokens.empty() && tokens[0] != 0) {
                std::uint64_t base =
                    hw::baseFromToken(tokens[0], bitmapHome);
                restored = bitmap_->restoreFromToken(base);
            }
            done(restored);
        });
    if (!ok)
        schedule(2 * sim::kMs, [this, done = std::move(done)]() {
            tryRestoreBitmap(done);
        });
}

} // namespace bmcast
