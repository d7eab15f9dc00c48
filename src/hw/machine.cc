#include "hw/machine.hh"

namespace hw {

Machine::Machine(sim::EventQueue &eq, MachineConfig config,
                 net::Network &lan, net::MacAddr guest_mac,
                 net::Network &mgmt_lan, net::MacAddr mgmt_mac,
                 IbFabric *ib_fabric)
    : sim::SimObject(eq, config.name),
      cfg(std::move(config)),
      mem_(cfg.memory),
      bus_(),
      intc_(eq, name() + ".intc",
            [this]() -> const VirtProfile & { return profile_; }),
      vmx_(eq, name() + ".vmx", cfg.cores),
      fw(eq, name() + ".fw", cfg.firmwareColdInit, cfg.memory),
      disk_(eq, name() + ".disk", cfg.disk, cfg.seed)
{
    bus_.setExitSink(&vmx_);

    if (cfg.storage == StorageKind::Ide) {
        ide_ = std::make_unique<IdeController>(
            eq, name() + ".ide", bus_, mem_, disk_,
            IrqLine(&intc_, ide::kIrqVector));
    } else if (cfg.storage == StorageKind::Ahci) {
        ahci_ = std::make_unique<AhciController>(
            eq, name() + ".ahci", bus_, mem_, disk_,
            IrqLine(&intc_, ahci::kIrqVector));
    } else {
        nvme_ = std::make_unique<NvmeController>(
            eq, name() + ".nvme", bus_, mem_, disk_,
            IrqLine(&intc_, nvme::kIrqVectorQ0),
            IrqLine(&intc_, nvme::kIrqVectorQ1));
    }

    net::PortConfig guest_port;
    guest_port.bitsPerSec = nicModelSpeed(cfg.guestNicModel);
    guest_port.mtu = 9000;
    net::Port &gport = lan.attach(guest_mac, guest_port);
    guestNic_ = std::make_unique<E1000Nic>(
        eq, name() + ".nic0", bus_, mem_, gport, kGuestNicMmio,
        IrqLine(&intc_, kGuestNicIrq));

    net::PortConfig mgmt_port;
    mgmt_port.bitsPerSec = nicModelSpeed(cfg.mgmtNicModel);
    mgmt_port.mtu = 9000;
    net::Port &mport = mgmt_lan.attach(mgmt_mac, mgmt_port);
    mgmtNic_ = std::make_unique<E1000Nic>(
        eq, name() + ".nic1", bus_, mem_, mport, kMgmtNicMmio,
        IrqLine(&intc_, kMgmtNicIrq));

    if (cfg.hasInfiniBand && ib_fabric) {
        hca_ = std::make_unique<IbHca>(
            eq, name() + ".hca", *ib_fabric, cfg.ibNodeId, cfg.ib,
            [this]() -> const VirtProfile & { return profile_; });
    }
}

} // namespace hw
