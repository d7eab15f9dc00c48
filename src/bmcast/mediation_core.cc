#include "bmcast/mediation_core.hh"

#include <algorithm>

#include "obs/registry.hh"
#include "simcore/logging.hh"

namespace bmcast {

void
publishMediatorStats(obs::Registry &reg, const std::string &label,
                     const MediatorStats &s)
{
    reg.counter("mediator.pt_reads", label).set(s.passthroughReads);
    reg.counter("mediator.pt_writes", label).set(s.passthroughWrites);
    reg.counter("mediator.redirected_reads", label)
        .set(s.redirectedReads);
    reg.counter("mediator.redirected_sectors", label)
        .set(s.redirectedSectors);
    reg.counter("mediator.mixed_redirects", label)
        .set(s.mixedRedirects);
    reg.counter("mediator.vmm_ops", label).set(s.vmmOps);
    reg.counter("mediator.queued_guest_writes", label)
        .set(s.queuedGuestWrites);
    reg.counter("mediator.reserved_conversions", label)
        .set(s.reservedConversions);
    reg.counter("mediator.dummy_restarts", label)
        .set(s.dummyRestarts);
}

MediationCore::MediationCore(std::string name_, hw::PhysMem &mem_,
                             ControllerPort &port_,
                             MediatorServices services,
                             sim::Addr bounce_buffer,
                             std::uint32_t bounce_sectors)
    : name(std::move(name_)), mem(mem_), port(port_),
      svc(std::move(services)), bounceBuffer(bounce_buffer),
      bounceSectors(bounce_sectors), obsTrack_(name)
{
    sim::panicIfNot(svc.bitmap != nullptr, "mediator needs a bitmap");
}

bool
MediationCore::onGuestWrite(std::uint32_t key, sim::Lba lba,
                            std::uint32_t count)
{
    bool overlaps_reserved =
        lba < svc.reservedEnd && svc.reservedBase < lba + count;
    if (overlaps_reserved) {
        // Protect the bitmap home: convert the write to a dummy
        // read (§3.3); the data is dropped.
        ++stats_.reservedConversions;
        sim::warn(name, ": guest write into reserved region dropped");
        queueRedirect(key, lba, count, /*zero_fill=*/true,
                      /*dropped_write=*/true, nullptr);
        return false;
    }
    // Guest data is the freshest: mark at issue time so the
    // background writer can never claim these blocks (§3.3).
    svc.bitmap->markFilled(lba, count);
    if (svc.onGuestWriteRange)
        svc.onGuestWriteRange(lba, count);
    ++stats_.passthroughWrites;
    if (svc.onGuestIo)
        svc.onGuestIo();
    return true;
}

bool
MediationCore::onGuestRead(std::uint32_t key, sim::Lba lba,
                           std::uint32_t count, const SgProvider &sg)
{
    if (svc.onGuestIo)
        svc.onGuestIo();
    bool overlaps_reserved =
        lba < svc.reservedEnd && svc.reservedBase < lba + count;
    if (overlaps_reserved) {
        // Reserved-region reads return zeros; nothing to fetch.
        ++stats_.reservedConversions;
        queueRedirect(key, lba, count, /*zero_fill=*/true,
                      /*dropped_write=*/false, sg);
        return false;
    }
    if (svc.bitmap->isFilled(lba, count)) {
        ++stats_.passthroughReads;
        return true;
    }
    queueRedirect(key, lba, count, /*zero_fill=*/false,
                  /*dropped_write=*/false, sg);
    return false;
}

void
MediationCore::queueGuestWrite(sim::Addr addr, std::uint64_t value)
{
    queuedWrites.emplace_back(addr, value);
    ++stats_.queuedGuestWrites;
}

void
MediationCore::queueRedirect(std::uint32_t key, sim::Lba lba,
                             std::uint32_t count, bool zero_fill,
                             bool dropped_write, const SgProvider &sg)
{
    ++stats_.redirectedReads;
    Redirect r;
    r.key = key;
    r.lba = lba;
    r.count = count;
    r.zeroFill = zero_fill;
    r.droppedWrite = dropped_write;
    r.obsId = ++obsSeq_;
    if (!dropped_write && sg)
        r.guestSg = sg();
    if (obs::armed()) {
        obs::Tracer &t = obs::tracer();
        t.asyncBegin(obsTrack_.id(t), "mediator", "redirect",
                     r.obsId, obs::now());
    }
    redirects.push_back(std::move(r));
}

void
MediationCore::beginRedirects()
{
    if (redirects.empty())
        return;
    if (port.deviceBusy()) {
        state_ = State::Draining;
        return;
    }
    state_ = State::Redirecting;
    port.takeDevice();

    Redirect &r = redirects.front();
    r.tokens.assign(r.count, 0);
    if (r.droppedWrite || r.zeroFill) {
        finishRedirectDataPhase();
        return;
    }

    // FILLED sub-ranges must come from the local disk (the server's
    // copy may be stale if the guest overwrote them). First
    // allocation-free pass: derive them as the complement of the
    // EMPTY ranges and fix the fetch count before any fetch can
    // complete.
    std::size_t numFetches = 0;
    sim::Lba pos = r.lba;
    svc.bitmap->forEachEmpty(r.lba, r.count,
                             [&](sim::Lba s, sim::Lba e) {
                                 if (s > pos)
                                     r.localRanges.emplace_back(pos, s);
                                 pos = e;
                                 ++numFetches;
                             });
    if (pos < r.lba + r.count)
        r.localRanges.emplace_back(pos, r.lba + r.count);
    if (!r.localRanges.empty())
        ++stats_.mixedRedirects;

    r.fetchesPending = numFetches;
    if (numFetches > 0 && !firstFetchNoted_) {
        firstFetchNoted_ = true;
        if (obs::armed()) {
            obs::Tracer &t = obs::tracer();
            t.milestone(obsTrack_.id(t), "cor.first_fetch",
                        obs::now());
        }
    }
    // Second pass issues the remote fetches.
    svc.bitmap->forEachEmpty(
        r.lba, r.count, [&](sim::Lba s, sim::Lba e) {
            auto n = static_cast<std::uint32_t>(e - s);
            stats_.redirectedSectors += n;
            sim::Lba seg = s;
            svc.fetchRemote(
                seg, n,
                [this, seg,
                 n](const std::vector<std::uint64_t> &tokens) {
                    if (redirects.empty() ||
                        state_ != State::Redirecting)
                        return; // stale (cannot normally happen)
                    Redirect &cur = redirects.front();
                    std::copy(tokens.begin(), tokens.end(),
                              cur.tokens.begin() + (seg - cur.lba));
                    if (svc.stashFetched)
                        svc.stashFetched(seg, n, tokens);
                    --cur.fetchesPending;
                    advanceRedirect();
                });
        });
    advanceRedirect();
}

void
MediationCore::advanceRedirect()
{
    if (redirects.empty() || state_ != State::Redirecting)
        return;
    Redirect &r = redirects.front();

    if (!r.localInFlight && r.nextLocal < r.localRanges.size()) {
        auto [s, e] = r.localRanges[r.nextLocal];
        r.localInFlight = true;
        VmmOp op;
        op.isWrite = false;
        op.lba = s;
        op.count = static_cast<std::uint32_t>(e - s);
        op.internal = true;
        op.readDone = [this,
                       s](const std::vector<std::uint64_t> &tokens) {
            if (redirects.empty())
                return;
            Redirect &cur = redirects.front();
            std::copy(tokens.begin(), tokens.end(),
                      cur.tokens.begin() + (s - cur.lba));
            cur.localInFlight = false;
            ++cur.nextLocal;
            advanceRedirect();
        };
        startVmmOp(std::move(op));
        return;
    }

    if (r.fetchesPending == 0 && !r.localInFlight &&
        r.nextLocal == r.localRanges.size() && !r.dataPhaseStarted) {
        finishRedirectDataPhase();
    }
}

void
MediationCore::finishRedirectDataPhase()
{
    Redirect &r = redirects.front();
    r.dataPhaseStarted = true;

    if (!r.droppedWrite) {
        // Act as a virtual DMA controller: place the tokens in the
        // guest's buffers exactly where its scatter list points
        // (§3.2 step 3).
        std::uint32_t i = 0;
        for (const hw::SgEntry &e : r.guestSg) {
            for (sim::Bytes off = 0; off < e.bytes && i < r.count;
                 off += sim::kSectorSize, ++i)
                mem.write64(e.addr + off, r.tokens[i]);
            if (i >= r.count)
                break;
        }
    }
    issueDummyRestart();
}

void
MediationCore::issueDummyRestart()
{
    // Restart the blocked access as a one-sector read of the dummy
    // sector so the *device* raises the completion interrupt (§3.2
    // step 4).
    ++stats_.dummyRestarts;
    RestartMode mode = port.issueDummyRestart(redirects.front().key);
    if (mode == RestartMode::Polled) {
        state_ = State::Restarting;
        return;
    }
    onRestartComplete();
}

void
MediationCore::onRestartComplete()
{
    port.onRestartRetired(redirects.front().key);
    if (obs::armed()) {
        obs::Tracer &t = obs::tracer();
        t.asyncEnd(obsTrack_.id(t), "mediator", "redirect",
                   redirects.front().obsId, obs::now());
    }
    redirects.pop_front();

    if (!redirects.empty()) {
        // Device is idle (the dummy just completed): serve the next
        // withheld command immediately.
        state_ = State::Passthrough;
        beginRedirects();
        return;
    }

    // Hand the device back to the guest.
    port.restoreDevice();
    state_ = State::Passthrough;
    replayQueuedWrites();
}

bool
MediationCore::canStartVmmOp() const
{
    return state_ == State::Passthrough && !vmmOp &&
           redirects.empty() && queuedWrites.empty() &&
           !port.guestBusy();
}

void
MediationCore::maybeStartPending()
{
    if (!canStartVmmOp())
        return;
    if (pendingOp) {
        VmmOp op = std::move(*pendingOp);
        pendingOp.reset();
        state_ = State::VmmActive;
        startVmmOp(std::move(op));
        return;
    }
    if (quiescent() && quiesceCb) {
        auto cb = std::move(quiesceCb);
        quiesceCb = nullptr;
        cb();
    }
}

void
MediationCore::startVmmOp(VmmOp op)
{
    sim::panicIfNot(!vmmOp, "overlapping VMM ops on mediator");
    sim::panicIfNot(op.count <= bounceSectors,
                    "VMM op exceeds bounce buffer");
    op.obsId = ++obsSeq_;
    if (obs::armed()) {
        obs::Tracer &t = obs::tracer();
        t.asyncBegin(obsTrack_.id(t), "mediator",
                     op.internal ? "local_read"
                     : op.isWrite ? "vmm_write"
                                  : "vmm_read",
                     op.obsId, obs::now());
    }
    vmmOp = std::make_unique<VmmOp>(std::move(op));
    vmmOpOnDevice = true;

    if (vmmOp->isWrite)
        hw::fillTokenBuffer(mem, bounceBuffer, vmmOp->lba,
                            vmmOp->count, vmmOp->contentBase);
    // The port suppresses the device interrupt: completion is
    // detected by polling (§3.2).
    port.issueVmmCommand(vmmOp->isWrite, vmmOp->lba, vmmOp->count);
}

void
MediationCore::checkVmmOpCompletion()
{
    if (!vmmOpOnDevice)
        return;
    if (!port.vmmCommandDone())
        return;

    std::unique_ptr<VmmOp> op = std::move(vmmOp);
    vmmOpOnDevice = false;
    if (obs::armed()) {
        obs::Tracer &t = obs::tracer();
        t.asyncEnd(obsTrack_.id(t), "mediator",
                   op->internal ? "local_read"
                   : op->isWrite ? "vmm_write"
                                 : "vmm_read",
                   op->obsId, obs::now());
    }

    std::vector<std::uint64_t> tokens;
    if (!op->isWrite) {
        tokens.resize(op->count);
        for (std::uint32_t i = 0; i < op->count; ++i)
            tokens[i] = hw::bufferTokenAt(mem, bounceBuffer, i);
    }

    if (op->internal) {
        // Redirection's local segment: remain in Redirecting.
        if (op->readDone)
            op->readDone(tokens);
        return;
    }

    ++stats_.vmmOps;
    port.releaseAfterVmmOp();
    state_ = State::Passthrough;
    replayQueuedWrites();
    if (op->isWrite) {
        if (op->writeDone)
            op->writeDone();
    } else if (op->readDone) {
        op->readDone(tokens);
    }
    maybeStartPending();
}

void
MediationCore::replayQueuedWrites()
{
    // Send queued requests to the device in order (§3.2). Replaying
    // through the front-end's intercept path means a queued command
    // can itself start a new redirection, in which case the
    // remainder stays queued.
    while (!queuedWrites.empty() && state_ == State::Passthrough) {
        auto [addr, value] = queuedWrites.front();
        queuedWrites.pop_front();
        port.replayGuestWrite(addr, value);
    }
}

void
MediationCore::poll()
{
    checkVmmOpCompletion();

    if (state_ == State::Draining && !port.deviceBusy()) {
        state_ = State::Passthrough;
        beginRedirects();
        return;
    }
    if (state_ == State::Restarting && port.restartDone()) {
        onRestartComplete();
        return;
    }
    maybeStartPending();
}

bool
MediationCore::vmmWrite(sim::Lba lba, std::uint32_t count,
                        std::uint64_t content_base,
                        std::function<void()> done)
{
    VmmOp op;
    op.isWrite = true;
    op.lba = lba;
    op.count = count;
    op.contentBase = content_base;
    op.writeDone = std::move(done);
    return submit(std::move(op));
}

bool
MediationCore::vmmRead(
    sim::Lba lba, std::uint32_t count,
    std::function<void(const std::vector<std::uint64_t> &)> done)
{
    VmmOp op;
    op.isWrite = false;
    op.lba = lba;
    op.count = count;
    op.readDone = std::move(done);
    return submit(std::move(op));
}

bool
MediationCore::submit(VmmOp op)
{
    if (canStartVmmOp()) {
        state_ = State::VmmActive;
        startVmmOp(std::move(op));
        return true;
    }
    if (!pendingOp) {
        pendingOp = std::make_unique<VmmOp>(std::move(op));
        return true;
    }
    return false;
}

bool
MediationCore::vmmOpActive() const
{
    return vmmOp != nullptr || pendingOp != nullptr;
}

bool
MediationCore::quiescent() const
{
    return state_ == State::Passthrough && !vmmOp && !pendingOp &&
           redirects.empty() && queuedWrites.empty() &&
           !port.guestBusy();
}

void
MediationCore::warmDummy()
{
    // Pull the dummy sector into the drive cache so redirection
    // restarts are cheap from the first use.
    VmmOp op;
    op.isWrite = false;
    op.lba = svc.dummyLba;
    op.count = 1;
    op.readDone = [](const std::vector<std::uint64_t> &) {};
    state_ = State::VmmActive;
    startVmmOp(std::move(op));
}

void
MediationCore::reset()
{
    // Drop all in-flight mediation state; the machine is going down.
    queuedWrites.clear();
    redirects.clear();
    vmmOp.reset();
    pendingOp.reset();
    vmmOpOnDevice = false;
    state_ = State::Passthrough;
}

} // namespace bmcast
