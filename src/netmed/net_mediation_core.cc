#include "netmed/net_mediation_core.hh"

#include <algorithm>

#include "simcore/logging.hh"

namespace netmed {

namespace {

/** DRR quantum: one max-size standard frame per weight unit. */
constexpr sim::Bytes kQuantum = 1522;

/** Default nic.ring_stall duration when the plan sets none. */
constexpr sim::Tick kDefaultStall = 500 * sim::kUs;

} // namespace

const char *
medModeName(MedMode mode)
{
    switch (mode) {
      case MedMode::Trap:
        return "trap";
      case MedMode::Exitless:
        return "exitless";
      case MedMode::Passthrough:
        return "passthrough";
    }
    return "unknown";
}

NetMediationCore::NetMediationCore(sim::EventQueue &eq,
                                   std::string name, hw::IoBus &bus_,
                                   hw::PhysMem &mem_,
                                   hw::E1000Nic &nic,
                                   hw::MemArena &vmm_arena,
                                   MedMode mode, std::uint16_t vmm_et)
    : sim::SimObject(eq, std::move(name)), bus(bus_), mem(mem_),
      nic_(nic), mode_(mode), vmmEtherType(vmm_et),
      track_(this->name())
{
    if (mode_ != MedMode::Passthrough)
        ringPort = std::make_unique<E1000RingPort>(bus, mem, nic_,
                                                   vmm_arena, mode_);
}

unsigned
NetMediationCore::addGuest(const GuestConfig &cfg_in)
{
    sim::panicIfNot(!installed_, name(),
                    ": guests must be added before install");
    GuestConfig cfg = cfg_in;
    if (cfg.windowBase == 0)
        cfg.windowBase = nic_.mmioBase();
    bool virtualWindow = cfg.windowBase != nic_.mmioBase();
    if (!virtualWindow) {
        for (const Slot &s : slots_)
            sim::fatalIf(s.cfg.windowBase == nic_.mmioBase(),
                         name(), ": two guests on the real window");
    }
    if (mode_ == MedMode::Passthrough) {
        sim::fatalIf(virtualWindow || !slots_.empty(),
                     name(),
                     ": passthrough supports one guest on the real "
                     "rings");
    }

    Slot s;
    s.cfg = cfg;
    s.tokens = static_cast<double>(cfg.qos.burstBytes);
    s.lastRefill = now();
    if (mode_ != MedMode::Passthrough) {
        s.port = std::make_unique<E1000GuestPort>(
            name() + ".guest" + std::to_string(slots_.size()), bus,
            mem, cfg.windowBase, virtualWindow, mode_, cfg.doorbell,
            cfg.intc, cfg.irqVector);
    }
    slots_.push_back(std::move(s));
    return static_cast<unsigned>(slots_.size() - 1);
}

void
NetMediationCore::setGuestQos(unsigned slot, const GuestQos &qos)
{
    Slot &s = slots_.at(slot);
    refill(s, now());
    s.cfg.qos = qos;
    s.tokens = std::min(s.tokens,
                        static_cast<double>(qos.burstBytes));
}

void
NetMediationCore::setGuestGate(unsigned slot, sim::RateGate gate)
{
    Slot &s = slots_.at(slot);
    s.gate = std::move(gate);
    s.gateCharged = false;
}

void
NetMediationCore::installTaps()
{
    nic_.setTxTap([this](const net::Frame &f, sim::Tick tnow) {
        Slot &s = slots_.front();
        sim::Bytes wire = f.wireSize();
        refill(s, tnow);
        sim::Tick ready = tnow;
        const GuestQos &qos = s.cfg.qos;
        if (qos.rateBps > 0.0) {
            // The bucket may go negative: that debt is the pacing
            // delay of everything already admitted.
            if (s.tokens < static_cast<double>(wire)) {
                double debt = static_cast<double>(wire) - s.tokens;
                ready = tnow + static_cast<sim::Tick>(
                                   debt * 8.0 / qos.rateBps * 1e9);
            }
            s.tokens -= static_cast<double>(wire);
        }
        if (s.gate) {
            sim::Tick g = s.gate(wire, tnow);
            ready = std::max(ready, g);
        }
        ++s.gstats.txFrames;
        s.gstats.txWireBytes += wire;
        if (ready > tnow)
            ++stats_.txThrottled;
        ++stats_.guestTx;
        return ready;
    });
    nic_.setRxTap([this](const net::Frame &f) {
        if (f.etherType != vmmEtherType)
            return false;
        ++stats_.vmmRx;
        if (vmmRxH)
            vmmRxH(f);
        return true;
    });
}

void
NetMediationCore::install()
{
    sim::panicIfNot(!installed_, name(), ": installed twice");
    if (mode_ == MedMode::Passthrough) {
        sim::panicIfNot(slots_.size() == 1, name(),
                        ": passthrough needs exactly one guest");
        installTaps();
        installed_ = true;
        return;
    }
    ringPort->take();
    for (Slot &s : slots_) {
        s.port->attach(GuestPortHooks{
            [this]() { pumpGuests(); },
            [this]() { syncGuestRx(); },
        });
    }
    installed_ = true;
}

void
NetMediationCore::uninstall()
{
    sim::panicIfNot(installed_, name(), ": not installed");
    if (mode_ == MedMode::Passthrough) {
        nic_.setTxTap(nullptr);
        nic_.setRxTap(nullptr);
        installed_ = false;
        return;
    }
    // Drain the shadow rings: deliver everything received, pump
    // every frame guests have queued (folding in un-polled exitless
    // doorbells first), and reclaim completions.
    if (mode_ == MedMode::Exitless) {
        for (Slot &s : slots_)
            s.port->syncDoorbell();
    }
    stallUntil = 0;
    drainRx();
    pumpGuests();
    ringPort->reapTx();

    // Hand the device to the guest on the real window (if any). Its
    // TX tail is set to its *head*: every frame it queued has already
    // been pumped through the shadow path.
    GuestRingState gr{};
    for (Slot &s : slots_) {
        if (s.cfg.windowBase == nic_.mmioBase()) {
            gr = s.port->rings();
            gr.tdt = gr.tdh;
        }
    }
    for (Slot &s : slots_)
        s.port->detach();
    ringPort->release(gr);
    installed_ = false;
}

void
NetMediationCore::powerOff()
{
    if (!installed_)
        return;
    if (mode_ == MedMode::Passthrough) {
        nic_.setTxTap(nullptr);
        nic_.setRxTap(nullptr);
    } else {
        for (Slot &s : slots_)
            s.port->detach();
    }
    installed_ = false;
}

net::MacAddr
NetMediationCore::localMac() const
{
    return nic_.port().mac();
}

sim::Bytes
NetMediationCore::mtu() const
{
    return nic_.port().config().mtu;
}

void
NetMediationCore::sendFrame(net::Frame frame)
{
    frame.src = localMac();
    if (mode_ == MedMode::Passthrough) {
        // The side door: the VMM's frames never touch the guest's
        // rings; pacing applies only to the guest (the tap is on the
        // descriptor path).
        ++stats_.vmmTx;
        nic_.port().send(std::move(frame));
        return;
    }
    if (!installed_) {
        sim::warn(name(), ": VMM frame dropped (not installed)");
        return;
    }
    ringPort->reapTx();
    if (!ringPort->txPush(frame)) {
        sim::warn(name(), ": shadow TX ring full; frame dropped");
        return;
    }
    ++stats_.vmmTx;
}

void
NetMediationCore::refill(Slot &s, sim::Tick t)
{
    const GuestQos &qos = s.cfg.qos;
    if (qos.rateBps > 0.0 && t > s.lastRefill) {
        double dt = static_cast<double>(t - s.lastRefill);
        s.tokens = std::min(
            static_cast<double>(qos.burstBytes),
            s.tokens + qos.rateBps / 8.0 * dt / 1e9);
    }
    s.lastRefill = t;
}

bool
NetMediationCore::deferTx(Slot &s)
{
    if (!s.deferred) {
        s.deferred = true;
        ++stats_.txThrottled;
    }
    return false;
}

bool
NetMediationCore::admitTx(Slot &s, sim::Bytes wire)
{
    refill(s, now());
    const GuestQos &qos = s.cfg.qos;
    if (qos.rateBps > 0.0 &&
        s.tokens < static_cast<double>(wire))
        return deferTx(s);
    if (s.gate) {
        if (!s.gateCharged) {
            // Gates book on call: charge exactly once per frame.
            s.gateReadyAt = s.gate(wire, now());
            s.gateCharged = true;
        }
        if (now() < s.gateReadyAt)
            return deferTx(s);
    }
    if (qos.rateBps > 0.0)
        s.tokens -= static_cast<double>(wire);
    s.gateCharged = false;
    s.deferred = false;
    return true;
}

void
NetMediationCore::tryDeliver(unsigned idx, const net::Frame &frame)
{
    Slot &s = slots_[idx];
    if (faults && faults->anyActive() &&
        faults->shouldFire(sim::FaultSite::NicFrameDrop, idx)) {
        ++stats_.injectedDrops;
        return;
    }
    if (s.port->deliverRx(frame)) { // false: guest not ready, dropped
        ++stats_.guestRx;
        ++stats_.copies;
        ++s.gstats.rxFrames;
        s.rxPosted = true;
    }
}

void
NetMediationCore::deliver(const net::Frame &frame)
{
    if (frame.dst == net::kBroadcastMac) {
        for (unsigned i = 0; i < slots_.size(); ++i)
            tryDeliver(i, frame);
        return;
    }
    int catchAll = -1;
    for (unsigned i = 0; i < slots_.size(); ++i) {
        if (slots_[i].cfg.mac != 0 && slots_[i].cfg.mac == frame.dst) {
            tryDeliver(i, frame);
            return;
        }
        if (slots_[i].cfg.mac == 0 && catchAll < 0)
            catchAll = static_cast<int>(i);
    }
    if (catchAll >= 0) // otherwise no guest claims the frame
        tryDeliver(static_cast<unsigned>(catchAll), frame);
}

void
NetMediationCore::drainRx()
{
    net::Frame f;
    while (ringPort->rxPop(f)) {
        // Demultiplex: the VMM's ether type (AoE deployment traffic)
        // peels off first; everything else belongs to some guest.
        if (f.etherType == vmmEtherType) {
            ++stats_.vmmRx;
            if (vmmRxH)
                vmmRxH(f);
            continue;
        }
        deliver(f);
    }
    for (Slot &s : slots_) {
        if (s.rxPosted) {
            s.port->postRxCause();
            s.rxPosted = false;
        }
    }
}

void
NetMediationCore::pumpGuests()
{
    if (now() < stallUntil)
        return;
    ringPort->reapTx();
    // Deficit round robin with a rotation cursor that persists across
    // calls. This is load-bearing: the pump runs on every doorbell and
    // poll, usually with only a slot or two free in the shadow ring —
    // restarting the rotation (and re-granting quanta) each call would
    // degenerate into strict round robin where the lowest-index
    // backlogged guest wins every freed slot and weights stop meaning
    // anything. Instead each guest is granted its quantum once per
    // rotation visit, and wire-side backpressure suspends the visit
    // in place (deficit and cursor intact) to resume on the next call.
    unsigned sinceProgress = 0;
    while (sinceProgress < slots_.size()) {
        unsigned i = rrNext_;
        Slot &s = slots_[i];
        sim::Bytes wire = s.port->peekTxWire();
        if (wire == 0) {
            // Empty queue forfeits its deficit (standard DRR).
            s.deficit = 0.0;
            s.visited = false;
            rrNext_ = (rrNext_ + 1) % slots_.size();
            ++sinceProgress;
            continue;
        }
        unsigned w = std::max(1u, s.cfg.qos.weight);
        if (!s.visited) {
            s.deficit = std::min(s.deficit + double(kQuantum) * w,
                                 2.0 * double(kQuantum) * w);
            s.visited = true;
        }
        bool pushed = false;
        while (wire != 0 && s.deficit >= double(wire)) {
            if (ringPort->txFree() == 0) {
                ringPort->reapTx();
                if (ringPort->txFree() == 0)
                    goto done; // backpressure: resume this visit later
            }
            if (!admitTx(s, wire))
                break;
            net::Frame f;
            if (!s.port->takeTx(f))
                break;
            s.deficit -= double(wire);
            ++s.gstats.txFrames;
            s.gstats.txWireBytes += wire;
            if (faults && faults->anyActive() &&
                faults->shouldFire(sim::FaultSite::NicFrameDrop, i)) {
                ++stats_.injectedDrops;
            } else {
                ringPort->txPush(f);
                ++stats_.guestTx;
                ++stats_.copies;
            }
            s.txPosted = true;
            pushed = true;
            wire = s.port->peekTxWire();
        }
        s.visited = false;
        rrNext_ = (rrNext_ + 1) % slots_.size();
        sinceProgress = pushed ? 0 : sinceProgress + 1;
    }
done:
    for (Slot &s : slots_) {
        if (s.txPosted) {
            s.port->postTxCause();
            s.txPosted = false;
        }
    }
}

void
NetMediationCore::syncGuestRx()
{
    if (!installed_ || mode_ == MedMode::Passthrough)
        return;
    if (now() < stallUntil)
        return; // service frozen by nic.ring_stall
    obs::ScopedSpan span(track_, "netmed", "rx_sync", now());
    drainRx();
}

void
NetMediationCore::poll()
{
    if (!installed_)
        return;
    ++stats_.polls;
    if (now() < stallUntil)
        return;
    if (faults && faults->anyActive() &&
        faults->shouldFire(sim::FaultSite::NicRingStall)) {
        stallUntil =
            now() + faults->magnitude(sim::FaultSite::NicRingStall,
                                      kDefaultStall);
        ++stats_.ringStalls;
        return;
    }
    if (mode_ == MedMode::Passthrough)
        return; // the taps do the work inline
    std::uint64_t before = stats_.guestRx + stats_.vmmRx +
                           stats_.guestTx;
    ringPort->reapTx();
    if (mode_ == MedMode::Exitless) {
        for (Slot &s : slots_)
            s.port->syncDoorbell();
    }
    drainRx();
    pumpGuests();
    if (obs::armed() &&
        stats_.guestRx + stats_.vmmRx + stats_.guestTx != before) {
        obs::Tracer &t = obs::tracer();
        t.instant(track_.id(t), "netmed", "poll", now());
    }
}

const GuestStats &
NetMediationCore::guestStats(unsigned slot) const
{
    return slots_.at(slot).gstats;
}

E1000GuestPort &
NetMediationCore::guestPort(unsigned slot)
{
    sim::panicIfNot(slots_.at(slot).port != nullptr, name(),
                    ": passthrough guests have no port");
    return *slots_.at(slot).port;
}

} // namespace netmed
