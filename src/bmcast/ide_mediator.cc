#include "bmcast/ide_mediator.hh"

#include <algorithm>

#include "hw/dma.hh"
#include "simcore/logging.hh"

namespace bmcast {

using namespace hw::ide;
using hw::IoSpace;

IdeMediator::IdeMediator(sim::EventQueue &eq, std::string name,
                         hw::IoBus &bus_, hw::PhysMem &mem_,
                         hw::MemArena &vmm_arena,
                         MediatorServices services)
    : MediatorFrontEnd(eq, std::move(name)),
      bus(bus_), vmmView(bus_, /*guestContext=*/false), mem(mem_),
      vmmPrd(vmm_arena.alloc(64 * kPrdEntrySize, 64)),
      vmmBuffer(vmm_arena.alloc(
          sim::Bytes(kVmmBufferSectors) * sim::kSectorSize, 4096)),
      dummyPrd(vmm_arena.alloc(kPrdEntrySize, 64)),
      dummyBuffer(vmm_arena.alloc(sim::kSectorSize, 512))
{
    buildCore(mem_, std::move(services), vmmBuffer, kVmmBufferSectors);
    // The dummy PRD never changes: one sector into the dummy buffer.
    mem.write32(dummyPrd, static_cast<std::uint32_t>(dummyBuffer));
    mem.write16(dummyPrd + 4, sim::kSectorSize);
    mem.write16(dummyPrd + 6, kPrdEot);
}

void
IdeMediator::install()
{
    sim::panicIfNot(!installed, "mediator installed twice");
    bus.intercept(IoSpace::Pio, kPioBase, kPioSize, this);
    bus.intercept(IoSpace::Pio, kCtrlPort, 1, this);
    bus.intercept(IoSpace::Pio, kBmBase, kBmSize, this);
    installed = true;
    core().warmDummy();
}

void
IdeMediator::uninstall()
{
    sim::panicIfNot(core().quiescent(),
                    "de-virtualizing a non-quiescent IDE mediator");
    bus.removeIntercept(IoSpace::Pio, kPioBase, kPioSize);
    bus.removeIntercept(IoSpace::Pio, kCtrlPort, 1);
    bus.removeIntercept(IoSpace::Pio, kBmBase, kBmSize);
    installed = false;
}

void
IdeMediator::powerOff()
{
    if (!installed)
        return;
    bus.removeIntercept(IoSpace::Pio, kPioBase, kPioSize);
    bus.removeIntercept(IoSpace::Pio, kCtrlPort, 1);
    bus.removeIntercept(IoSpace::Pio, kBmBase, kBmSize);
    installed = false;
    core().reset();
    guestCmdActive = false;
}

sim::Lba
IdeMediator::shadowLba(bool ext) const
{
    if (ext) {
        return (sim::Lba(sh.lbaHigh[1]) << 40) |
               (sim::Lba(sh.lbaMid[1]) << 32) |
               (sim::Lba(sh.lbaLow[1]) << 24) |
               (sim::Lba(sh.lbaHigh[0]) << 16) |
               (sim::Lba(sh.lbaMid[0]) << 8) | sim::Lba(sh.lbaLow[0]);
    }
    return (sim::Lba(sh.device & 0x0F) << 24) |
           (sim::Lba(sh.lbaHigh[0]) << 16) |
           (sim::Lba(sh.lbaMid[0]) << 8) | sim::Lba(sh.lbaLow[0]);
}

std::uint32_t
IdeMediator::shadowCount(bool ext) const
{
    if (ext) {
        std::uint32_t c = (std::uint32_t(sh.sectorCount[1]) << 8) |
                          sh.sectorCount[0];
        return c == 0 ? 65536u : c;
    }
    std::uint32_t c = sh.sectorCount[0];
    return c == 0 ? 256u : c;
}

bool
IdeMediator::interceptWrite(sim::Addr addr, std::uint64_t value,
                            unsigned size)
{
    (void)size;

    if (core().state() != MediationCore::State::Passthrough) {
        // The device is owned by a redirection or a VMM command:
        // queue the guest's register writes for later replay (§3.2
        // I/O multiplexing).
        core().queueGuestWrite(addr, value);
        return true;
    }

    auto v8 = static_cast<std::uint8_t>(value);
    if (addr >= kPioBase && addr < kPioBase + kPioSize) {
        switch (addr - kPioBase) {
          case kSectorCount:
            sh.sectorCount[1] = sh.sectorCount[0];
            sh.sectorCount[0] = v8;
            return false;
          case kLbaLow:
            sh.lbaLow[1] = sh.lbaLow[0];
            sh.lbaLow[0] = v8;
            return false;
          case kLbaMid:
            sh.lbaMid[1] = sh.lbaMid[0];
            sh.lbaMid[0] = v8;
            return false;
          case kLbaHigh:
            sh.lbaHigh[1] = sh.lbaHigh[0];
            sh.lbaHigh[0] = v8;
            return false;
          case kDevice:
            sh.device = v8;
            return false;
          case kCmdStatus:
            // onGuestCommand() decides whether the command reaches
            // the device (passthrough) or is withheld (redirection /
            // reserved-region conversion).
            return !onGuestCommand(v8);
          default:
            return false;
        }
    }
    if (addr == kCtrlPort) {
        sh.devCtrl = v8;
        return false;
    }
    if (addr >= kBmBase && addr < kBmBase + kBmSize) {
        switch (addr - kBmBase) {
          case kBmCommand:
            sh.bmCommand = v8;
            return false;
          case kBmPrdtAddr:
            sh.bmPrdt = static_cast<std::uint32_t>(value);
            return false;
          default:
            return false;
        }
    }
    return false;
}

bool
IdeMediator::interceptRead(sim::Addr addr, unsigned size,
                           std::uint64_t &value)
{
    (void)size;
    bool is_status = addr == kPioBase + kCmdStatus;
    bool is_alt = addr == kCtrlPort;
    bool is_bm_status = addr == kBmBase + kBmStatus;

    if (core().state() == MediationCore::State::Redirecting) {
        // Emulate "busy" while we serve the read (§3.2: "device
        // mediators emulate the status information so that the guest
        // OS can determine that the device is busy").
        if (is_status || is_alt) {
            value = kStatusBsy;
            return true;
        }
        if (is_bm_status) {
            value = kBmStActive;
            return true;
        }
        return false;
    }

    if (core().state() == MediationCore::State::VmmActive) {
        // Emulate "idle" so the guest proceeds to issue its request,
        // which we queue (§3.2: "emulate the status of the device as
        // if the device is not busy").
        if (is_status || is_alt) {
            value = kStatusDrdy;
            return true;
        }
        if (is_bm_status) {
            value = 0;
            return true;
        }
        return false;
    }

    // Passthrough: observe the guest's status read to learn when its
    // command completed (interpretation), performing the read on its
    // behalf so INTRQ ack semantics are preserved exactly once.
    if (is_status) {
        value = vmmView.read(IoSpace::Pio, addr, 1);
        if (guestCmdActive && !(value & kStatusBsy)) {
            guestCmdActive = false;
            // The device just quiesced: inject a waiting VMM
            // command before the guest issues its next one.
            core().maybeStartPending();
        }
        return true;
    }
    return false;
}

bool
IdeMediator::onGuestCommand(std::uint8_t cmd)
{
    if (!isDmaCommand(cmd)) {
        // FLUSH/IDENTIFY and friends pass through untouched.
        guestCmdActive = true;
        return true;
    }

    bool ext = isExtCommand(cmd);
    sim::Lba lba = shadowLba(ext);
    std::uint32_t count = shadowCount(ext);

    bool forward;
    if (isWriteCommand(cmd)) {
        forward = core().onGuestWrite(0, lba, count);
    } else {
        forward = core().onGuestRead(0, lba, count, [this]() {
            return parseGuestPrdt(sh.bmPrdt);
        });
    }
    if (forward) {
        guestCmdActive = true;
        return true;
    }
    core().beginRedirects();
    return false;
}

void
IdeMediator::programTaskFile(sim::Lba lba, std::uint32_t count,
                             std::uint8_t cmd, sim::Addr prd,
                             std::uint8_t bm_dir)
{
    vmmView.write(IoSpace::Pio, kBmBase + kBmPrdtAddr,
                  static_cast<std::uint32_t>(prd), 4);
    vmmView.write(IoSpace::Pio, kBmBase + kBmCommand, bm_dir, 1);

    // LBA48 task file: high bytes first (they land in the "previous"
    // register slots), then low bytes.
    vmmView.write(IoSpace::Pio, kPioBase + kSectorCount,
                  (count >> 8) & 0xFF, 1);
    vmmView.write(IoSpace::Pio, kPioBase + kSectorCount, count & 0xFF,
                  1);
    vmmView.write(IoSpace::Pio, kPioBase + kLbaLow, (lba >> 24) & 0xFF,
                  1);
    vmmView.write(IoSpace::Pio, kPioBase + kLbaMid, (lba >> 32) & 0xFF,
                  1);
    vmmView.write(IoSpace::Pio, kPioBase + kLbaHigh,
                  (lba >> 40) & 0xFF, 1);
    vmmView.write(IoSpace::Pio, kPioBase + kLbaLow, lba & 0xFF, 1);
    vmmView.write(IoSpace::Pio, kPioBase + kLbaMid, (lba >> 8) & 0xFF,
                  1);
    vmmView.write(IoSpace::Pio, kPioBase + kLbaHigh,
                  (lba >> 16) & 0xFF, 1);
    vmmView.write(IoSpace::Pio, kPioBase + kDevice, kDeviceLbaMode, 1);
    vmmView.write(IoSpace::Pio, kPioBase + kCmdStatus, cmd, 1);
    vmmView.write(IoSpace::Pio, kBmBase + kBmCommand,
                  bm_dir | kBmCmdStart, 1);
}

RestartMode
IdeMediator::issueDummyRestart(std::uint32_t key)
{
    (void)key;
    vmmView.write(IoSpace::Pio, kCtrlPort, sh.devCtrl, 1);
    programTaskFile(core().services().dummyLba, 1, kCmdReadDmaExt,
                    dummyPrd, kBmCmdToMemory);
    guestCmdActive = true; // until the guest acks the interrupt
    return RestartMode::FireAndForget;
}

void
IdeMediator::issueVmmCommand(bool is_write, sim::Lba lba,
                             std::uint32_t count)
{
    // Suppress the device interrupt: completion is detected by
    // polling (§3.2: "device mediators temporarily disable
    // interrupts and detect completion of requests by polling").
    vmmView.write(IoSpace::Pio, kCtrlPort, sh.devCtrl | kCtrlNIen, 1);

    // Build the VMM PRD list (64 KiB elements).
    sim::Bytes total = sim::Bytes(count) * sim::kSectorSize;
    sim::Addr entry = vmmPrd;
    sim::Addr buf = vmmBuffer;
    while (total > 0) {
        sim::Bytes chunk = std::min<sim::Bytes>(total, 65536);
        mem.write32(entry, static_cast<std::uint32_t>(buf));
        mem.write16(entry + 4,
                    static_cast<std::uint16_t>(chunk == 65536 ? 0
                                                              : chunk));
        total -= chunk;
        buf += chunk;
        mem.write16(entry + 6, total == 0 ? kPrdEot : 0);
        entry += kPrdEntrySize;
    }

    programTaskFile(lba, count,
                    is_write ? kCmdWriteDmaExt : kCmdReadDmaExt,
                    vmmPrd, is_write ? 0 : kBmCmdToMemory);
}

bool
IdeMediator::vmmCommandDone()
{
    auto st = static_cast<std::uint8_t>(
        vmmView.read(IoSpace::Pio, kCtrlPort, 1));
    if (st & kStatusBsy)
        return false;
    auto bm = static_cast<std::uint8_t>(
        vmmView.read(IoSpace::Pio, kBmBase + kBmStatus, 1));
    if (!(bm & kBmStIrq))
        return false;

    // Stop the engine, clear the interrupt, restore the guest's
    // interrupt-enable intent.
    vmmView.write(IoSpace::Pio, kBmBase + kBmCommand, 0, 1);
    vmmView.write(IoSpace::Pio, kBmBase + kBmStatus,
                  kBmStIrq | kBmStError, 1);
    vmmView.write(IoSpace::Pio, kCtrlPort, sh.devCtrl, 1);
    return true;
}

void
IdeMediator::replayGuestWrite(sim::Addr addr, std::uint64_t value)
{
    if (!interceptWrite(addr, value, 1))
        vmmView.write(IoSpace::Pio, addr, value, 1);
}

std::vector<hw::SgEntry>
IdeMediator::parseGuestPrdt(std::uint32_t addr) const
{
    std::vector<hw::SgEntry> sg;
    sim::Addr entry = addr;
    for (int i = 0; i < 512; ++i) {
        std::uint32_t dba = mem.read32(entry);
        std::uint16_t count = mem.read16(entry + 4);
        std::uint16_t flags = mem.read16(entry + 6);
        sg.push_back(hw::SgEntry{dba, count == 0 ? 65536u : count});
        if (flags & kPrdEot)
            return sg;
        entry += kPrdEntrySize;
    }
    sim::panic("guest PRD table without EOT at ", addr);
}

} // namespace bmcast
