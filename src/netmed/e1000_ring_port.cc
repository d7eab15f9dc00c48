#include "netmed/e1000_ring_port.hh"

#include "simcore/logging.hh"

namespace netmed {

using namespace hw::e1000;
using hw::IoSpace;

E1000RingPort::E1000RingPort(hw::IoBus &bus, hw::PhysMem &mem_,
                             hw::E1000Nic &nic, hw::MemArena &vmm_arena,
                             MedMode mode_)
    : vmmView(bus, /*guestContext=*/false), mem(mem_), nic_(nic),
      mode(mode_)
{
    sTxRing = vmm_arena.alloc(kShadowSize * kDescSize, 128);
    sRxRing = vmm_arena.alloc(kShadowSize * kDescSize, 128);
    sTxBufs = vmm_arena.alloc(kShadowSize * kBufSize, 4096);
    sRxBufs = vmm_arena.alloc(kShadowSize * kBufSize, 4096);
}

void
E1000RingPort::take()
{
    sim::Addr base = nic_.mmioBase();
    sTxTail = sTxClean = sRxHead = 0;
    for (unsigned i = 0; i < kShadowSize; ++i) {
        sim::Addr d = sRxRing + i * kDescSize;
        mem.write64(d, sRxBufs + i * kBufSize);
        mem.write32(d + 8, 0);
        mem.write32(d + 12, 0);
    }
    for (unsigned i = 0; i < kShadowSize; ++i)
        mem.write8(sTxRing + i * kDescSize + 12, 0);
    vmmView.write(IoSpace::Mmio, base + kRdbal,
                  static_cast<std::uint32_t>(sRxRing), 4);
    vmmView.write(IoSpace::Mmio, base + kRdlen,
                  kShadowSize * kDescSize, 4);
    vmmView.write(IoSpace::Mmio, base + kRdh, 0, 4);
    vmmView.write(IoSpace::Mmio, base + kRdt, kShadowSize - 1, 4);
    vmmView.write(IoSpace::Mmio, base + kRctl, kRctlEn, 4);
    vmmView.write(IoSpace::Mmio, base + kTdbal,
                  static_cast<std::uint32_t>(sTxRing), 4);
    vmmView.write(IoSpace::Mmio, base + kTdlen,
                  kShadowSize * kDescSize, 4);
    vmmView.write(IoSpace::Mmio, base + kTdh, 0, 4);
    vmmView.write(IoSpace::Mmio, base + kTdt, 0, 4);
    vmmView.write(IoSpace::Mmio, base + kTctl, kTctlEn, 4);
    if (mode == MedMode::Trap) {
        // The physical interrupt stays armed: the device's IRQ drives
        // the guest's ISR, whose first (intercepted) ICR read is
        // where the core syncs the shadow rings.
        vmmView.write(IoSpace::Mmio, base + kIms,
                      kIcrTxdw | kIcrRxt0, 4);
    } else {
        // Exitless: the sidecore polls; no interrupts at the device.
        vmmView.write(IoSpace::Mmio, base + kImc, ~0u, 4);
    }
}

void
E1000RingPort::release(const GuestRingState &g)
{
    sim::Addr base = nic_.mmioBase();
    // The device transmits asynchronously; shadow descriptors queued
    // just before release (the uninstall drain) have not hit the wire
    // yet, and reprogramming the rings would orphan them. Hand those
    // frames to the port directly: [device TDH, shadow tail) is
    // exactly the un-transmitted window.
    auto tdh_now = static_cast<std::uint32_t>(
        vmmView.read(IoSpace::Mmio, base + kTdh, 4));
    while (tdh_now != sTxTail) {
        sim::Addr d = sTxRing + tdh_now * kDescSize;
        if (!(mem.read8(d + 12) & kDescDd)) {
            sim::Addr buf = mem.read64(d);
            std::uint16_t len = mem.read16(d + 8);
            std::uint16_t special = mem.read16(d + 14);
            net::Frame f;
            std::uint64_t dst = 0, src = 0;
            for (int i = 0; i < 6; ++i) {
                dst = (dst << 8) | mem.read8(buf + i);
                src = (src << 8) | mem.read8(buf + 6 + i);
            }
            f.dst = dst;
            f.src = src;
            f.etherType = static_cast<std::uint16_t>(
                (mem.read8(buf + 12) << 8) | mem.read8(buf + 13));
            f.payload.resize(len > 14 ? len - 14 : 0);
            if (!f.payload.empty())
                mem.read(buf + 14, f.payload.data(),
                         f.payload.size());
            f.padding = sim::Bytes(special) << 3;
            nic_.port().send(std::move(f));
        }
        tdh_now = (tdh_now + 1) % kShadowSize;
    }
    vmmView.write(IoSpace::Mmio, base + kRdbal, g.rdbal, 4);
    vmmView.write(IoSpace::Mmio, base + kRdlen, g.rdlen, 4);
    vmmView.write(IoSpace::Mmio, base + kRdh, g.rdh, 4);
    vmmView.write(IoSpace::Mmio, base + kRdt, g.rdt, 4);
    vmmView.write(IoSpace::Mmio, base + kRctl, g.rctl, 4);
    vmmView.write(IoSpace::Mmio, base + kTdbal, g.tdbal, 4);
    vmmView.write(IoSpace::Mmio, base + kTdlen, g.tdlen, 4);
    vmmView.write(IoSpace::Mmio, base + kTdh, g.tdh, 4);
    vmmView.write(IoSpace::Mmio, base + kTdt, g.tdt, 4);
    vmmView.write(IoSpace::Mmio, base + kTctl, g.tctl, 4);
    vmmView.write(IoSpace::Mmio, base + kIms, g.ims, 4);
}

void
E1000RingPort::reapTx()
{
    while (sTxClean != sTxTail) {
        sim::Addr d = sTxRing + sTxClean * kDescSize;
        if (!(mem.read8(d + 12) & kDescDd))
            break;
        sTxClean = (sTxClean + 1) % kShadowSize;
    }
}

unsigned
E1000RingPort::txFree()
{
    // Pure read: the core reaps explicitly (so reclaim counts land in
    // its stats); completions only appear between event callbacks.
    unsigned used = (sTxTail + kShadowSize - sTxClean) % kShadowSize;
    return kShadowSize - 1 - used;
}

bool
E1000RingPort::txPush(const net::Frame &frame)
{
    if (txFree() == 0)
        return false;
    sim::Addr buf = sTxBufs + sTxTail * kBufSize;
    sim::Bytes len = 14 + frame.payload.size();
    sim::panicIfNot(len <= kBufSize, "oversize frame in shadow ring");
    for (int i = 0; i < 6; ++i) {
        mem.write8(buf + i, static_cast<std::uint8_t>(
                                frame.dst >> (8 * (5 - i))));
        mem.write8(buf + 6 + i, static_cast<std::uint8_t>(
                                    frame.src >> (8 * (5 - i))));
    }
    mem.write8(buf + 12,
               static_cast<std::uint8_t>(frame.etherType >> 8));
    mem.write8(buf + 13, static_cast<std::uint8_t>(frame.etherType));
    if (!frame.payload.empty())
        mem.write(buf + 14, frame.payload.data(),
                  frame.payload.size());

    sim::Addr d = sTxRing + sTxTail * kDescSize;
    mem.write64(d, buf);
    mem.write16(d + 8, static_cast<std::uint16_t>(len));
    mem.write8(d + 11, kTxCmdEop | kTxCmdRs);
    mem.write8(d + 12, 0);
    mem.write16(d + 14,
                static_cast<std::uint16_t>(frame.padding >> 3));
    sTxTail = (sTxTail + 1) % kShadowSize;
    vmmView.write(IoSpace::Mmio, nic_.mmioBase() + kTdt, sTxTail, 4);
    return true;
}

bool
E1000RingPort::rxPop(net::Frame &frame)
{
    sim::Addr d = sRxRing + sRxHead * kDescSize;
    std::uint8_t st = mem.read8(d + 12);
    if (!(st & kDescDd))
        return false;
    sim::Addr buf = mem.read64(d);
    std::uint16_t len = mem.read16(d + 8);
    std::uint16_t special = mem.read16(d + 14);

    std::uint64_t dst = 0, src = 0;
    for (int i = 0; i < 6; ++i) {
        dst = (dst << 8) | mem.read8(buf + i);
        src = (src << 8) | mem.read8(buf + 6 + i);
    }
    frame.dst = dst;
    frame.src = src;
    frame.etherType = static_cast<std::uint16_t>(
        (mem.read8(buf + 12) << 8) | mem.read8(buf + 13));
    frame.payload.resize(len > 14 ? len - 14 : 0);
    if (!frame.payload.empty())
        mem.read(buf + 14, frame.payload.data(), frame.payload.size());
    frame.padding = sim::Bytes(special) << 3;

    // Return the shadow descriptor to hardware.
    mem.write8(d + 12, 0);
    vmmView.write(IoSpace::Mmio, nic_.mmioBase() + kRdt, sRxHead, 4);
    sRxHead = (sRxHead + 1) % kShadowSize;
    return true;
}

net::MacAddr
E1000RingPort::mac() const
{
    return nic_.port().mac();
}

sim::Bytes
E1000RingPort::mtu() const
{
    return nic_.port().config().mtu;
}

} // namespace netmed
