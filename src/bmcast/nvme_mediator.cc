#include "bmcast/nvme_mediator.hh"

#include "hw/dma.hh"
#include "simcore/logging.hh"

namespace bmcast {

using namespace hw::nvme;
using hw::IoSpace;

NvmeMediator::NvmeMediator(sim::EventQueue &eq, std::string name,
                           hw::IoBus &bus_, hw::PhysMem &mem_,
                           hw::MemArena &vmm_arena,
                           MediatorServices services)
    : MediatorFrontEnd(eq, std::move(name)),
      bus(bus_), vmmView(bus_, /*guestContext=*/false), mem(mem_),
      sq0(vmm_arena.alloc(sim::Bytes(kVmmQueueDepth) * kSqEntrySize,
                          4096)),
      cq0(vmm_arena.alloc(sim::Bytes(kVmmQueueDepth) * kCqEntrySize,
                          4096)),
      medBuffer(vmm_arena.alloc(
          sim::Bytes(kMedBufferSectors) * sim::kSectorSize, 4096)),
      dummyBuffer(vmm_arena.alloc(sim::kSectorSize, 512))
{
    buildCore(mem_, std::move(services), medBuffer, kMedBufferSectors);
}

void
NvmeMediator::install()
{
    sim::panicIfNot(!installed, "mediator installed twice");
    bus.intercept(IoSpace::Mmio, kBase, kSize, this);
    installed = true;

    // (Re)create queue pair 0 for the VMM — programming the depth
    // resets the pair — with its interrupt vector masked: VMM command
    // completions are polled, never delivered (§3.2). Queue pair 1 is
    // left untouched so a live guest keeps working across install.
    vmmView.write(IoSpace::Mmio, kBase + sqBaseReg(0),
                  static_cast<std::uint32_t>(sq0), 4);
    vmmView.write(IoSpace::Mmio, kBase + cqBaseReg(0),
                  static_cast<std::uint32_t>(cq0), 4);
    vmmView.write(IoSpace::Mmio, kBase + qDepthReg(0), kVmmQueueDepth,
                  4);
    vmmView.write(IoSpace::Mmio, kBase + kIntms, 1u << 0, 4);
    vmmView.write(IoSpace::Mmio, kBase + kCc, kCcEn, 4);

    mem.fill(cq0, 0, sim::Bytes(kVmmQueueDepth) * kCqEntrySize);
    sq0Tail = cq0Head = 0;
    cq0Phase = 1;

    // Pick up an already-programmed guest queue pair (re-install) and
    // resynchronize interpretation state from the device's queue-state
    // readback. Install happens while the guest is quiescent, so every
    // prior submission has completed and been acknowledged.
    sq1Base = static_cast<sim::Addr>(
        vmmView.read(IoSpace::Mmio, kBase + sqBaseReg(1), 4));
    cq1Base = static_cast<sim::Addr>(
        vmmView.read(IoSpace::Mmio, kBase + cqBaseReg(1), 4));
    q1Depth = static_cast<std::uint32_t>(
        vmmView.read(IoSpace::Mmio, kBase + qDepthReg(1), 4));
    guestTail = procTail = static_cast<std::uint32_t>(
        vmmView.read(IoSpace::Mmio, kBase + sqTailDb(1), 4));
    auto cqState = static_cast<std::uint32_t>(
        vmmView.read(IoSpace::Mmio, kBase + cqHeadDb(1), 4));
    medCqIdx = cqState & 0xFFFF;
    medCqPhase = cqState >> 31;
    outstandingOnDevice = 0;

    core().warmDummy();
}

void
NvmeMediator::uninstall()
{
    sim::panicIfNot(core().quiescent(),
                    "de-virtualizing a non-quiescent NVMe mediator");
    bus.removeIntercept(IoSpace::Mmio, kBase, kSize);
    installed = false;
}

void
NvmeMediator::powerOff()
{
    if (!installed)
        return;
    bus.removeIntercept(IoSpace::Mmio, kBase, kSize);
    installed = false;
    core().reset();
    guestTail = procTail = 0;
    outstandingOnDevice = 0;
    medCqIdx = 0;
    medCqPhase = 1;
}

bool
NvmeMediator::interceptRead(sim::Addr addr, unsigned size,
                            std::uint64_t &value)
{
    // Nothing to hide: completions are consumed from queue memory,
    // and the VMM's activity is confined to queue pair 0, whose
    // interrupt vector is masked.
    (void)addr;
    (void)size;
    (void)value;
    return false;
}

bool
NvmeMediator::interceptWrite(sim::Addr addr, std::uint64_t value,
                             unsigned size)
{
    (void)size;
    auto v = static_cast<std::uint32_t>(value);
    sim::Addr off = addr - kBase;

    if (core().state() == MediationCore::State::VmmActive) {
        // Exclusive VMM window: everything is queued (§3.2).
        core().queueGuestWrite(addr, v);
        return true;
    }

    // Snoop the guest's queue-pair-1 configuration (interpretation);
    // the writes still reach the device.
    if (off == sqBaseReg(1)) {
        sq1Base = v;
        return false;
    }
    if (off == cqBaseReg(1)) {
        cq1Base = v;
        return false;
    }
    if (off == qDepthReg(1)) {
        q1Depth = v;
        guestTail = procTail = 0;
        outstandingOnDevice = 0;
        medCqIdx = 0;
        medCqPhase = 1;
        return false;
    }

    if (off == sqTailDb(1)) {
        if (core().state() == MediationCore::State::Passthrough) {
            onGuestDoorbell(v);
            return true; // forwarding decided per entry
        }
        core().queueGuestWrite(addr, v);
        return true;
    }

    // CQ head-doorbell acknowledgements and anything else pass
    // through untouched: with VMM commands on their own queue pair,
    // there is no idle window to watch for.
    return false;
}

std::vector<hw::SgEntry>
NvmeMediator::guestSg(std::uint32_t index) const
{
    sim::Addr sqe = sq1Base + sim::Addr(index) * kSqEntrySize;
    sim::Addr prp1 = mem.read64(sqe + kSqePrp1);
    auto count = std::uint32_t(mem.read16(sqe + kSqeNlb)) + 1;
    return {hw::SgEntry{prp1, sim::Bytes(count) * sim::kSectorSize}};
}

void
NvmeMediator::onGuestDoorbell(std::uint32_t new_tail)
{
    guestTail = q1Depth ? new_tail % q1Depth : 0;
    scanSubmissions();
}

void
NvmeMediator::scanSubmissions()
{
    std::uint32_t forwarded = 0;
    while (procTail != guestTail) {
        sim::Addr sqe = sq1Base + sim::Addr(procTail) * kSqEntrySize;
        bool is_write = mem.read8(sqe + kSqeOpcode) == kOpWrite;
        sim::Lba lba = mem.read64(sqe + kSqeSlba);
        auto count = std::uint32_t(mem.read16(sqe + kSqeNlb)) + 1;

        bool fwd;
        if (is_write) {
            fwd = core().onGuestWrite(procTail, lba, count);
        } else {
            fwd = core().onGuestRead(procTail, lba, count,
                                   [this, idx = procTail]() {
                                       return guestSg(idx);
                                   });
        }
        if (!fwd) {
            // Withheld: the queue is consumed in order, so procTail
            // (and everything after it) waits for the redirect.
            break;
        }
        procTail = (procTail + 1) % q1Depth;
        ++forwarded;
    }

    if (forwarded) {
        outstandingOnDevice += forwarded;
        vmmView.write(IoSpace::Mmio, kBase + sqTailDb(1), procTail, 4);
    }
    if (core().hasPendingRedirects() &&
        core().state() == MediationCore::State::Passthrough)
        core().beginRedirects();
}

void
NvmeMediator::scanGuestCq()
{
    if (q1Depth == 0)
        return;
    while (outstandingOnDevice > 0) {
        sim::Addr cqe = cq1Base + sim::Addr(medCqIdx) * kCqEntrySize;
        std::uint16_t status = mem.read16(cqe + kCqeStatus);
        if ((status & 1) != medCqPhase)
            break;
        medCqIdx = (medCqIdx + 1) % q1Depth;
        if (medCqIdx == 0)
            medCqPhase ^= 1;
        --outstandingOnDevice;
    }
}

RestartMode
NvmeMediator::issueDummyRestart(std::uint32_t key)
{
    // Rewrite the withheld entry in place: same CID, one-sector read
    // of the dummy sector into the mediator's buffer (§3.2 step 4).
    // The guest's data is already in its PRP buffer via virtual DMA.
    sim::Addr sqe = sq1Base + sim::Addr(key) * kSqEntrySize;
    mem.write8(sqe + kSqeOpcode, kOpRead);
    mem.write64(sqe + kSqePrp1, dummyBuffer);
    mem.write64(sqe + kSqeSlba, core().services().dummyLba);
    mem.write16(sqe + kSqeNlb, 0);

    ++outstandingOnDevice;
    vmmView.write(IoSpace::Mmio, kBase + sqTailDb(1),
                  (key + 1) % q1Depth, 4);
    return RestartMode::Polled;
}

void
NvmeMediator::onRestartRetired(std::uint32_t key)
{
    procTail = (key + 1) % q1Depth;
    // Resume decoding entries held up behind the withheld one; a new
    // withhold queues the next redirect before the core checks for
    // more work.
    scanSubmissions();
}

void
NvmeMediator::issueVmmCommand(bool is_write, sim::Lba lba,
                              std::uint32_t count)
{
    sim::Addr sqe = sq0 + sim::Addr(sq0Tail) * kSqEntrySize;
    mem.fill(sqe, 0, kSqEntrySize);
    mem.write8(sqe + kSqeOpcode, is_write ? kOpWrite : kOpRead);
    mem.write16(sqe + kSqeCid, vmmCid++);
    mem.write64(sqe + kSqePrp1, medBuffer);
    mem.write64(sqe + kSqeSlba, lba);
    mem.write16(sqe + kSqeNlb, static_cast<std::uint16_t>(count - 1));

    sq0Tail = (sq0Tail + 1) % kVmmQueueDepth;
    vmmView.write(IoSpace::Mmio, kBase + sqTailDb(0), sq0Tail, 4);
}

bool
NvmeMediator::vmmCommandDone()
{
    sim::Addr cqe = cq0 + sim::Addr(cq0Head) * kCqEntrySize;
    std::uint16_t status = mem.read16(cqe + kCqeStatus);
    if ((status & 1) != cq0Phase)
        return false;
    cq0Head = (cq0Head + 1) % kVmmQueueDepth;
    if (cq0Head == 0)
        cq0Phase ^= 1;
    vmmView.write(IoSpace::Mmio, kBase + cqHeadDb(0), cq0Head, 4);
    return true;
}

void
NvmeMediator::replayGuestWrite(sim::Addr addr, std::uint64_t value)
{
    if (!interceptWrite(addr, value, 4))
        vmmView.write(IoSpace::Mmio, addr, value, 4);
}

} // namespace bmcast
