#include "bmcast/ahci_mediator.hh"

#include <algorithm>

#include "hw/dma.hh"
#include "simcore/logging.hh"

namespace bmcast {

using namespace hw::ahci;
using hw::IoSpace;

AhciMediator::AhciMediator(sim::EventQueue &eq, std::string name,
                           hw::IoBus &bus_, hw::PhysMem &mem_,
                           hw::MemArena &vmm_arena,
                           MediatorServices services)
    : MediatorFrontEnd(eq, std::move(name)),
      bus(bus_), vmmView(bus_, /*guestContext=*/false), mem(mem_),
      medCmdList(vmm_arena.alloc(kNumSlots * kCmdHeaderSize, 1024)),
      medTable(vmm_arena.alloc(kPrdtOffset + 64 * kPrdtEntrySize, 128)),
      medDummyTable(
          vmm_arena.alloc(kPrdtOffset + kPrdtEntrySize, 128)),
      medBuffer(vmm_arena.alloc(
          sim::Bytes(kMedBufferSectors) * sim::kSectorSize, 4096)),
      dummyBuffer(vmm_arena.alloc(sim::kSectorSize, 512))
{
    buildCore(mem_, std::move(services), medBuffer, kMedBufferSectors);
}

void
AhciMediator::install()
{
    sim::panicIfNot(!installed, "mediator installed twice");
    bus.intercept(IoSpace::Mmio, kAbar, kAbarSize, this);
    installed = true;
    // Seed the shadows from current hardware state in case the port
    // was already programmed (e.g. an already-running guest).
    shClb = static_cast<std::uint32_t>(
        vmmView.read(IoSpace::Mmio, kAbar + kPxClb, 4));
    shIe = static_cast<std::uint32_t>(
        vmmView.read(IoSpace::Mmio, kAbar + kPxIe, 4));
}

void
AhciMediator::uninstall()
{
    sim::panicIfNot(core().quiescent(),
                    "de-virtualizing a non-quiescent AHCI mediator");
    bus.removeIntercept(IoSpace::Mmio, kAbar, kAbarSize);
    installed = false;
}

void
AhciMediator::powerOff()
{
    if (!installed)
        return;
    bus.removeIntercept(IoSpace::Mmio, kAbar, kAbarSize);
    installed = false;
    core().reset();
    redirectBits = 0;
    guestIssued = 0;
}

std::uint32_t
AhciMediator::deviceCi()
{
    return static_cast<std::uint32_t>(
        vmmView.read(IoSpace::Mmio, kAbar + kPxCi, 4));
}

std::uint32_t
AhciMediator::guestVisibleCi()
{
    std::uint32_t queued_ci = 0;
    for (const auto &[addr, value] : core().queuedGuestWrites())
        if (addr == kAbar + kPxCi)
            queued_ci |= static_cast<std::uint32_t>(value);

    std::uint32_t visible;
    switch (core().state()) {
      case MediationCore::State::Passthrough:
      case MediationCore::State::Draining:
        visible = deviceCi() | redirectBits | queued_ci;
        break;
      case MediationCore::State::Redirecting:
        // Any device activity is the mediator's; hide it.
        visible = redirectBits | queued_ci;
        break;
      case MediationCore::State::Restarting:
        // The dummy command runs on the redirected slot number, so
        // the device's own CI bit stands in for the guest command;
        // other withheld slots still read busy.
        visible = deviceCi() |
                  (redirectBits & ~(1u << restartSlot)) | queued_ci;
        break;
      case MediationCore::State::VmmActive:
      default:
        visible = redirectBits | queued_ci;
        break;
    }
    // Observing a cleared bit is how the guest learns completion.
    std::uint32_t before = guestIssued;
    guestIssued &= visible;
    if (before != 0 && guestIssued == 0) {
        // The guest acknowledged its last outstanding command:
        // inject a waiting VMM command in the gap.
        core().maybeStartPending();
    }
    return visible;
}

bool
AhciMediator::interceptRead(sim::Addr addr, unsigned size,
                            std::uint64_t &value)
{
    (void)size;
    switch (addr - kAbar) {
      case kPxClb:
        value = shClb;
        return true;
      case kPxIe:
        value = shIe;
        return true;
      case kPxCi:
        value = guestVisibleCi();
        return true;
      case kPxTfd:
        if (core().state() == MediationCore::State::Redirecting ||
            core().state() == MediationCore::State::VmmActive) {
            value = 0x50; // DRDY: emulate an idle device (§3.2)
            return true;
        }
        return false;
      case kIs:
      case kPxIs:
        if (core().state() == MediationCore::State::VmmActive) {
            value = 0; // hide the VMM command's completion status
            return true;
        }
        return false;
      default:
        return false;
    }
}

bool
AhciMediator::interceptWrite(sim::Addr addr, std::uint64_t value,
                             unsigned size)
{
    (void)size;
    auto v = static_cast<std::uint32_t>(value);
    sim::Addr off = addr - kAbar;
    auto st = core().state();

    if (st == MediationCore::State::VmmActive) {
        // Exclusive VMM window: everything is queued (§3.2).
        core().queueGuestWrite(addr, v);
        return true;
    }

    bool guest_owns_port = st == MediationCore::State::Passthrough ||
                           st == MediationCore::State::Draining;
    switch (off) {
      case kPxClb:
        shClb = v & ~0x3FFu;
        // Only reaches the device while it holds the guest's list.
        return !guest_owns_port;
      case kPxIe:
        shIe = v;
        // Applied when the mediator restores the port.
        return !guest_owns_port;
      case kPxCi:
        if (st == MediationCore::State::Passthrough) {
            onGuestCiWrite(v);
            return true; // forwarding decided per slot
        }
        core().queueGuestWrite(addr, v);
        return true;
      default:
        return false;
    }
}

void
AhciMediator::decodeGuestSlot(unsigned slot, bool &is_write,
                              sim::Lba &lba,
                              std::uint32_t &count) const
{
    sim::Addr hdr = sim::Addr(shClb) + slot * kCmdHeaderSize;
    std::uint32_t dw0 = mem.read32(hdr);
    sim::Addr table = mem.read32(hdr + 8);
    is_write = (dw0 & kHdrWrite) != 0;

    sim::Addr cfis = table + kCfisOffset;
    lba = sim::Lba(mem.read8(cfis + kFisLba0)) |
          (sim::Lba(mem.read8(cfis + kFisLba1)) << 8) |
          (sim::Lba(mem.read8(cfis + kFisLba2)) << 16) |
          (sim::Lba(mem.read8(cfis + kFisLba3)) << 24) |
          (sim::Lba(mem.read8(cfis + kFisLba4)) << 32) |
          (sim::Lba(mem.read8(cfis + kFisLba5)) << 40);
    std::uint32_t c = mem.read8(cfis + kFisCount0) |
                      (std::uint32_t(mem.read8(cfis + kFisCount1))
                       << 8);
    count = c == 0 ? 65536u : c;
}

std::vector<hw::SgEntry>
AhciMediator::parseGuestSg(unsigned slot) const
{
    sim::Addr hdr = sim::Addr(shClb) + slot * kCmdHeaderSize;
    std::uint32_t dw0 = mem.read32(hdr);
    unsigned prdtl = dw0 >> kHdrPrdtlShift;
    sim::Addr table = mem.read32(hdr + 8);

    std::vector<hw::SgEntry> sg;
    sg.reserve(prdtl);
    sim::Addr entry = table + kPrdtOffset;
    for (unsigned i = 0; i < prdtl; ++i) {
        std::uint32_t dba = mem.read32(entry);
        std::uint32_t dw3 = mem.read32(entry + 12);
        sg.push_back(hw::SgEntry{dba, (dw3 & 0x3FFFFFu) + 1});
        entry += kPrdtEntrySize;
    }
    return sg;
}

void
AhciMediator::onGuestCiWrite(std::uint32_t bits)
{
    std::uint32_t forward = 0;
    for (unsigned slot = 0; slot < kNumSlots; ++slot) {
        if (!(bits & (1u << slot)))
            continue;
        bool is_write;
        sim::Lba lba;
        std::uint32_t count;
        decodeGuestSlot(slot, is_write, lba, count);

        bool fwd;
        if (is_write) {
            fwd = core().onGuestWrite(slot, lba, count);
        } else {
            fwd = core().onGuestRead(slot, lba, count, [this, slot]() {
                return parseGuestSg(slot);
            });
        }
        if (fwd)
            forward |= 1u << slot;
        else
            redirectBits |= 1u << slot;
    }

    if (forward) {
        guestIssued |= forward;
        vmmView.write(IoSpace::Mmio, kAbar + kPxCi, forward, 4);
    }
    if (core().hasPendingRedirects() &&
        core().state() == MediationCore::State::Passthrough)
        core().beginRedirects();
}

void
AhciMediator::takeDevice()
{
    // Take the device: swap in the mediator's command list.
    vmmView.write(IoSpace::Mmio, kAbar + kPxClb,
                  static_cast<std::uint32_t>(medCmdList), 4);
}

void
AhciMediator::restoreDevice()
{
    // Hand the port back to the guest.
    vmmView.write(IoSpace::Mmio, kAbar + kPxClb, shClb, 4);
}

void
AhciMediator::programCfis(sim::Addr table, bool is_write,
                          sim::Lba lba, std::uint32_t count)
{
    sim::Addr cfis = table + kCfisOffset;
    mem.fill(cfis, 0, kCfisSize);
    mem.write8(cfis + kFisType, kFisTypeH2d);
    mem.write8(cfis + kFisFlags, kFisFlagC);
    mem.write8(cfis + kFisCommand,
               is_write ? kFisCmdWriteDmaExt : kFisCmdReadDmaExt);
    mem.write8(cfis + kFisLba0, lba & 0xFF);
    mem.write8(cfis + kFisLba1, (lba >> 8) & 0xFF);
    mem.write8(cfis + kFisLba2, (lba >> 16) & 0xFF);
    mem.write8(cfis + kFisDevice, 0x40);
    mem.write8(cfis + kFisLba3, (lba >> 24) & 0xFF);
    mem.write8(cfis + kFisLba4, (lba >> 32) & 0xFF);
    mem.write8(cfis + kFisLba5, (lba >> 40) & 0xFF);
    mem.write8(cfis + kFisCount0, count & 0xFF);
    mem.write8(cfis + kFisCount1, (count >> 8) & 0xFF);
}

RestartMode
AhciMediator::issueDummyRestart(std::uint32_t key)
{
    restartSlot = key;

    // Dummy command table: one-sector read of the dummy sector into
    // the VMM's dummy buffer (§3.2 step 4).
    programCfis(medDummyTable, false, core().services().dummyLba, 1);
    sim::Addr prd = medDummyTable + kPrdtOffset;
    mem.write32(prd, static_cast<std::uint32_t>(dummyBuffer));
    mem.write32(prd + 4, 0);
    mem.write32(prd + 8, 0);
    mem.write32(prd + 12, sim::kSectorSize - 1);

    sim::Addr hdr =
        medCmdList + sim::Addr(restartSlot) * kCmdHeaderSize;
    mem.write32(hdr, 5u | (1u << kHdrPrdtlShift));
    mem.write32(hdr + 4, 0);
    mem.write32(hdr + 8, static_cast<std::uint32_t>(medDummyTable));
    mem.write32(hdr + 12, 0);

    // The completion interrupt must reach the guest: clear any
    // stale status from our local reads, then restore the guest's
    // interrupt enable before issuing.
    vmmView.write(IoSpace::Mmio, kAbar + kPxIs, ~0u, 4);
    vmmView.write(IoSpace::Mmio, kAbar + kIs, ~0u, 4);
    vmmView.write(IoSpace::Mmio, kAbar + kPxIe, shIe, 4);

    vmmView.write(IoSpace::Mmio, kAbar + kPxCi, 1u << restartSlot, 4);
    return RestartMode::Polled;
}

void
AhciMediator::issueVmmCommand(bool is_write, sim::Lba lba,
                              std::uint32_t count)
{
    // Interrupts for VMM commands are suppressed; completion is
    // polled (§3.2). The command list is the mediator's.
    vmmView.write(IoSpace::Mmio, kAbar + kPxIe, 0, 4);
    vmmView.write(IoSpace::Mmio, kAbar + kPxClb,
                  static_cast<std::uint32_t>(medCmdList), 4);

    // Before the guest driver initializes the HBA the port is not
    // started; the VMM's own pre-boot operations (bitmap restore,
    // periodic save) must start it. Harmless once the guest runs:
    // its own PxCMD writes pass through.
    auto pxcmd = static_cast<std::uint32_t>(
        vmmView.read(IoSpace::Mmio, kAbar + kPxCmd, 4));
    if (!(pxcmd & kCmdSt)) {
        vmmView.write(IoSpace::Mmio, kAbar + kGhc, kGhcAe, 4);
        vmmView.write(IoSpace::Mmio, kAbar + kPxCmd,
                      kCmdSt | kCmdFre, 4);
    }

    // Program slot 0 of the mediator's command list over the core's
    // bounce buffer.
    programCfis(medTable, is_write, lba, count);
    sim::Bytes total = sim::Bytes(count) * sim::kSectorSize;
    sim::Addr entry = medTable + kPrdtOffset;
    sim::Addr buf = medBuffer;
    unsigned prdtl = 0;
    while (total > 0) {
        sim::Bytes chunk = std::min<sim::Bytes>(total, 128 * 1024);
        mem.write32(entry, static_cast<std::uint32_t>(buf));
        mem.write32(entry + 4, 0);
        mem.write32(entry + 8, 0);
        mem.write32(entry + 12,
                    static_cast<std::uint32_t>(chunk - 1));
        total -= chunk;
        buf += chunk;
        entry += kPrdtEntrySize;
        ++prdtl;
    }

    std::uint32_t dw0 = 5u | (prdtl << kHdrPrdtlShift);
    if (is_write)
        dw0 |= kHdrWrite;
    mem.write32(medCmdList, dw0);
    mem.write32(medCmdList + 4, 0);
    mem.write32(medCmdList + 8, static_cast<std::uint32_t>(medTable));
    mem.write32(medCmdList + 12, 0);
    vmmView.write(IoSpace::Mmio, kAbar + kPxCi, 1u, 4);
}

bool
AhciMediator::vmmCommandDone()
{
    if (deviceCi() != 0)
        return false;

    // Clear the VMM command's completion status so it never leaks to
    // the guest, then restore the interrupt enable.
    vmmView.write(IoSpace::Mmio, kAbar + kPxIs, ~0u, 4);
    vmmView.write(IoSpace::Mmio, kAbar + kIs, ~0u, 4);
    vmmView.write(IoSpace::Mmio, kAbar + kPxIe, shIe, 4);
    return true;
}

void
AhciMediator::releaseAfterVmmOp()
{
    vmmView.write(IoSpace::Mmio, kAbar + kPxClb, shClb, 4);
}

void
AhciMediator::replayGuestWrite(sim::Addr addr, std::uint64_t value)
{
    if (!interceptWrite(addr, value, 4))
        vmmView.write(IoSpace::Mmio, addr, value, 4);
}

} // namespace bmcast
