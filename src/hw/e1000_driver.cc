#include "hw/e1000_driver.hh"

#include "hw/nic_doorbell.hh"
#include "simcore/logging.hh"

namespace hw {

using namespace e1000;

E1000Driver::E1000Driver(sim::EventQueue &eq, std::string name,
                         BusView view_, E1000Nic &nic_, PhysMem &mem_,
                         MemArena &arena, Mode mode_,
                         InterruptController *intc_p,
                         unsigned irq_vector)
    : E1000Driver(eq, std::move(name), view_, nic_.mmioBase(),
                  nic_.port().mac(), nic_.port().config().mtu, mem_,
                  arena, mode_, intc_p, irq_vector)
{
}

E1000Driver::E1000Driver(sim::EventQueue &eq, std::string name,
                         BusView view_, sim::Addr mmio_base,
                         net::MacAddr mac, sim::Bytes mtu,
                         PhysMem &mem_, MemArena &arena, Mode mode_,
                         InterruptController *intc_p,
                         unsigned irq_vector)
    : sim::SimObject(eq, std::move(name)),
      view(view_), mem(mem_), mode(mode_), base(mmio_base),
      mac_(mac), mtu_(mtu)
{
    txRing = arena.alloc(kRingSize * kDescSize, 128);
    rxRing = arena.alloc(kRingSize * kDescSize, 128);
    txBufs = arena.alloc(kRingSize * kBufSize, 4096);
    rxBufs = arena.alloc(kRingSize * kBufSize, 4096);
    initRings();

    if (mode == Mode::Interrupt) {
        sim::fatalIf(intc_p == nullptr,
                     "interrupt-mode driver needs a controller");
        intc = intc_p;
        irqVector = irq_vector;
        irqHandler = intc->registerHandler(
            irq_vector, [this]() { serviceIrq(); });
    }
}

E1000Driver::~E1000Driver()
{
    if (intc && irqHandler)
        intc->unregisterHandler(irqVector, irqHandler);
}

void
E1000Driver::attachDoorbell(sim::Addr page)
{
    dbPage = page;
    // Publish the current tails so the poller's mirrors line up with
    // the trapped setup writes that already happened.
    nicdb::init(mem, page, txTail, kRingSize - 1);
}

void
E1000Driver::initRings()
{
    // Receive ring: hand all but one descriptor to hardware.
    for (unsigned i = 0; i < kRingSize; ++i) {
        sim::Addr desc = rxRing + i * kDescSize;
        mem.write64(desc, rxBufs + i * kBufSize);
        mem.write32(desc + 8, 0);
        mem.write32(desc + 12, 0);
    }
    view.write(IoSpace::Mmio, base + kRdbal,
               static_cast<std::uint32_t>(rxRing), 4);
    view.write(IoSpace::Mmio, base + kRdlen, kRingSize * kDescSize, 4);
    view.write(IoSpace::Mmio, base + kRdh, 0, 4);
    view.write(IoSpace::Mmio, base + kRdt, kRingSize - 1, 4);
    view.write(IoSpace::Mmio, base + kRctl, kRctlEn, 4);

    view.write(IoSpace::Mmio, base + kTdbal,
               static_cast<std::uint32_t>(txRing), 4);
    view.write(IoSpace::Mmio, base + kTdlen, kRingSize * kDescSize, 4);
    view.write(IoSpace::Mmio, base + kTdh, 0, 4);
    view.write(IoSpace::Mmio, base + kTdt, 0, 4);
    view.write(IoSpace::Mmio, base + kTctl, kTctlEn, 4);

    if (mode == Mode::Interrupt) {
        view.write(IoSpace::Mmio, base + kIms, kIcrTxdw | kIcrRxt0, 4);
    } else {
        // Polling mode: mask everything (paper §4.3).
        view.write(IoSpace::Mmio, base + kImc, ~0u, 4);
    }
}

net::MacAddr
E1000Driver::localMac() const
{
    return mac_;
}

sim::Bytes
E1000Driver::mtu() const
{
    return mtu_;
}

void
E1000Driver::sendFrame(net::Frame frame)
{
    frame.src = localMac();
    txBacklog.push_back(std::move(frame));
    pumpTx();
}

void
E1000Driver::pumpTx()
{
    bool queued = false;
    while (!txBacklog.empty() && txFree > 1) {
        net::Frame f = std::move(txBacklog.front());
        txBacklog.pop_front();

        sim::Addr buf = txBufs + txTail * kBufSize;
        sim::Bytes len = 14 + f.payload.size();
        sim::panicIfNot(len <= kBufSize,
                        "frame exceeds driver buffer: ", len);

        for (int i = 0; i < 6; ++i) {
            mem.write8(buf + i, static_cast<std::uint8_t>(
                                    f.dst >> (8 * (5 - i))));
            mem.write8(buf + 6 + i, static_cast<std::uint8_t>(
                                        f.src >> (8 * (5 - i))));
        }
        mem.write8(buf + 12,
                   static_cast<std::uint8_t>(f.etherType >> 8));
        mem.write8(buf + 13, static_cast<std::uint8_t>(f.etherType));
        if (!f.payload.empty())
            mem.write(buf + 14, f.payload.data(), f.payload.size());

        sim::Addr desc = txRing + txTail * kDescSize;
        mem.write64(desc, buf);
        mem.write16(desc + 8, static_cast<std::uint16_t>(len));
        mem.write8(desc + 11, kTxCmdEop | kTxCmdRs);
        mem.write8(desc + 12, 0); // clear DD
        mem.write16(desc + 14,
                    static_cast<std::uint16_t>(f.padding >> 3));

        txTail = (txTail + 1) % kRingSize;
        --txFree;
        ++numTx;
        queued = true;
    }
    if (queued) {
        if (dbPage)
            nicdb::ringTx(mem, dbPage, txTail);
        else
            view.write(IoSpace::Mmio, base + kTdt, txTail, 4);
    }
}

unsigned
E1000Driver::poll()
{
    // Reclaim transmitted descriptors.
    while (txFree < kRingSize) {
        sim::Addr desc = txRing + txClean * kDescSize;
        if (!(mem.read8(desc + 12) & kDescDd))
            break;
        txClean = (txClean + 1) % kRingSize;
        ++txFree;
    }
    pumpTx();

    // Deliver received frames.
    unsigned delivered = 0;
    while (true) {
        sim::Addr desc = rxRing + rxHead * kDescSize;
        std::uint8_t st = mem.read8(desc + 12);
        if (!(st & kDescDd))
            break;

        sim::Addr buf = mem.read64(desc);
        std::uint16_t len = mem.read16(desc + 8);
        std::uint16_t special = mem.read16(desc + 14);

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
            mem.read(buf + 14, f.payload.data(), f.payload.size());
        f.padding = sim::Bytes(special) << 3;

        // Return the descriptor to hardware.
        mem.write8(desc + 12, 0);
        if (dbPage)
            nicdb::ringRx(mem, dbPage, rxHead);
        else
            view.write(IoSpace::Mmio, base + kRdt, rxHead, 4);
        rxHead = (rxHead + 1) % kRingSize;

        ++delivered;
        if (rx)
            rx(f);
    }
    return delivered;
}

void
E1000Driver::serviceIrq()
{
    // Read-to-clear the cause register, then service both directions.
    // On the exitless path the causes live in the doorbell page.
    if (dbPage)
        nicdb::takeCauses(mem, dbPage);
    else
        view.read(IoSpace::Mmio, base + kIcr, 4);
    poll();
}

} // namespace hw
