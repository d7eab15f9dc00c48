#include "hw/nic.hh"

#include "simcore/logging.hh"

namespace hw {

using namespace e1000;

double
nicModelSpeed(NicModel model)
{
    return model == NicModel::X540 ? 10e9 : 1e9;
}

E1000Nic::E1000Nic(sim::EventQueue &eq, std::string name,
                   IoBus &bus_, PhysMem &mem_, net::Port &port,
                   sim::Addr mmio_base, IrqLine irq_)
    : sim::SimObject(eq, std::move(name)),
      bus(bus_), mem(mem_), port_(port),
      base(mmio_base), irq(irq_)
{
    bus.addDevice(IoSpace::Mmio, base, kMmioSize,
                  IoDevice{this->name(),
                           [this](sim::Addr o, unsigned s) {
                               return mmioRead(o, s);
                           },
                           [this](sim::Addr o, std::uint64_t v,
                                  unsigned s) { mmioWrite(o, v, s); }});
    port_.onReceive([this](const net::Frame &f) { onFrame(f); });
}

std::uint64_t
E1000Nic::mmioRead(sim::Addr offset, unsigned size)
{
    (void)size;
    switch (offset) {
      case kCtrl:
        return 0;
      case kStatus:
        return 0x2; // link up
      case kIcr: {
        std::uint32_t v = icr;
        icr = 0; // read-to-clear
        return v;
      }
      case kIms:
        return ims;
      case kRctl:
        return rctl;
      case kTctl:
        return tctl;
      case kRdbal:
        return rdbal;
      case kRdlen:
        return rdlen;
      case kRdh:
        return rdh;
      case kRdt:
        return rdt;
      case kTdbal:
        return tdbal;
      case kTdlen:
        return tdlen;
      case kTdh:
        return tdh;
      case kTdt:
        return tdt;
      default:
        return 0;
    }
}

void
E1000Nic::mmioWrite(sim::Addr offset, std::uint64_t value,
                    unsigned size)
{
    (void)size;
    auto v = static_cast<std::uint32_t>(value);
    switch (offset) {
      case kIms:
        ims |= v;
        break;
      case kImc:
        ims &= ~v;
        break;
      case kRctl:
        rctl = v;
        break;
      case kTctl:
        tctl = v;
        break;
      case kRdbal:
        rdbal = v;
        break;
      case kRdlen:
        rdlen = v;
        break;
      case kRdh:
        rdh = v;
        break;
      case kRdt:
        rdt = v;
        break;
      case kTdbal:
        tdbal = v;
        break;
      case kTdlen:
        tdlen = v;
        break;
      case kTdh:
        tdh = v;
        break;
      case kTdt:
        tdt = v;
        if (tctl & kTctlEn)
            processTx();
        break;
      default:
        break;
    }
}

void
E1000Nic::processTx()
{
    if (txInProgress)
        return;
    unsigned count = tdlen / kDescSize;
    if (count == 0 || tdh == tdt)
        return;
    txInProgress = true;

    // Per-frame DMA/processing cost before the frame hits the wire.
    schedule(2 * sim::kUs, [this]() {
        txInProgress = false;
        unsigned count2 = tdlen / kDescSize;
        if (count2 == 0 || tdh == tdt)
            return;

        sim::Addr desc = sim::Addr(tdbal) + tdh * kDescSize;
        sim::Addr buf = mem.read64(desc);
        std::uint16_t length = mem.read16(desc + 8);
        std::uint8_t cmd = mem.read8(desc + 11);
        std::uint16_t special = mem.read16(desc + 14);

        // Parse the on-wire frame header from the buffer.
        net::Frame frame;
        std::uint64_t dst = 0, src = 0;
        for (int i = 0; i < 6; ++i) {
            dst = (dst << 8) | mem.read8(buf + i);
            src = (src << 8) | mem.read8(buf + 6 + i);
        }
        frame.dst = dst;
        frame.src = src;
        frame.etherType = static_cast<std::uint16_t>(
            (mem.read8(buf + 12) << 8) | mem.read8(buf + 13));
        frame.payload.resize(length > 14 ? length - 14 : 0);
        if (!frame.payload.empty())
            mem.read(buf + 14, frame.payload.data(),
                     frame.payload.size());
        // Out-of-band length extension (see net/frame.hh): elided bulk
        // payload bytes, carried in the descriptor's special field.
        frame.padding = sim::Bytes(special) << 3;

        auto finish = [this, desc, cmd, count2](net::Frame f) {
            port_.send(std::move(f));

            // Write back DD and advance head.
            mem.write8(desc + 12, static_cast<std::uint8_t>(
                                      mem.read8(desc + 12) |
                                      kDescDd));
            tdh = (tdh + 1) % count2;
            if (cmd & kTxCmdRs)
                raiseIrq(kIcrTxdw);
            processTx();
        };

        // Software-passthrough pacing: the tap books the frame on its
        // budget and the descriptor completes only once the frame may
        // hit the wire.
        if (txTap) {
            sim::Tick allowed = txTap(frame, now());
            if (allowed > now()) {
                txInProgress = true;
                schedule(allowed - now(),
                         [this, finish,
                          frame = std::move(frame)]() mutable {
                             txInProgress = false;
                             finish(std::move(frame));
                         });
                return;
            }
        }
        finish(std::move(frame));
    });
}

void
E1000Nic::onFrame(const net::Frame &frame)
{
    if (rxTap && rxTap(frame)) {
        // Steered away (the VMM's traffic); the rings never see it.
        return;
    }
    if (!(rctl & kRctlEn))
        return;
    unsigned count = rdlen / kDescSize;
    if (count == 0 || rdh == rdt) {
        // No receive descriptors available.
        return;
    }

    sim::Addr desc = sim::Addr(rdbal) + rdh * kDescSize;
    sim::Addr buf = mem.read64(desc);

    // Reassemble the wire header + payload into the buffer.
    for (int i = 0; i < 6; ++i) {
        mem.write8(buf + i,
                   static_cast<std::uint8_t>(frame.dst >>
                                             (8 * (5 - i))));
        mem.write8(buf + 6 + i,
                   static_cast<std::uint8_t>(frame.src >>
                                             (8 * (5 - i))));
    }
    mem.write8(buf + 12,
               static_cast<std::uint8_t>(frame.etherType >> 8));
    mem.write8(buf + 13, static_cast<std::uint8_t>(frame.etherType));
    if (!frame.payload.empty())
        mem.write(buf + 14, frame.payload.data(),
                  frame.payload.size());

    auto length =
        static_cast<std::uint16_t>(14 + frame.payload.size());
    mem.write16(desc + 8, length);
    mem.write8(desc + 12,
               static_cast<std::uint8_t>(kDescDd | kRxStEop));
    mem.write16(desc + 14,
                static_cast<std::uint16_t>(frame.padding >> 3));

    rdh = (rdh + 1) % count;
    raiseIrq(kIcrRxt0);
}

void
E1000Nic::raiseIrq(std::uint32_t cause)
{
    icr |= cause;
    if (ims & cause)
        irq.raise();
}

} // namespace hw
