/**
 * @file
 * Composition of one simulated server (the paper's FUJITSU PRIMERGY
 * RX200 S6 class: 12 cores, 96 GB RAM, one SATA drive behind an IDE
 * or AHCI controller, two gigabit NICs — one dedicated to the VMM —
 * and an InfiniBand HCA).
 */

#ifndef HW_MACHINE_HH
#define HW_MACHINE_HH

#include <memory>
#include <string>

#include "hw/ahci_controller.hh"
#include "hw/disk.hh"
#include "hw/firmware.hh"
#include "hw/ib_hca.hh"
#include "hw/ide_controller.hh"
#include "hw/interrupts.hh"
#include "hw/io_bus.hh"
#include "hw/nic.hh"
#include "hw/nvme_controller.hh"
#include "hw/phys_mem.hh"
#include "hw/virt_profile.hh"
#include "hw/vmx.hh"
#include "net/network.hh"
#include "simcore/sim_object.hh"

namespace hw {

/** Which storage host controller the machine is built with. */
enum class StorageKind { Ide, Ahci, Nvme };

/** Machine configuration. */
struct MachineConfig
{
    std::string name = "node";
    unsigned cores = 12;
    sim::Bytes memory = 96 * sim::kGiB;
    StorageKind storage = StorageKind::Ahci;
    DiskParams disk;
    NicModel guestNicModel = NicModel::Pro1000;
    NicModel mgmtNicModel = NicModel::Pro1000;
    /** Server firmware cold-init time (paper §5.1: 133 s). */
    sim::Tick firmwareColdInit = 133 * sim::kSec;
    bool hasInfiniBand = false;
    unsigned ibNodeId = 0;
    IbParams ib;
    std::uint64_t seed = 1;
};

/** MMIO bases of the two NICs. */
constexpr sim::Addr kGuestNicMmio = 0xFEA00000;
constexpr sim::Addr kMgmtNicMmio = 0xFEA80000;

/** IRQ vectors. */
constexpr unsigned kGuestNicIrq = 10;
constexpr unsigned kMgmtNicIrq = 9;

/** One server. */
class Machine : public sim::SimObject
{
  public:
    /**
     * Build a machine attached to @p lan (guest traffic) and
     * @p mgmtLan (VMM deployment traffic); the two may be the same
     * network. @p ibFabric may be nullptr when the config has no HCA.
     */
    Machine(sim::EventQueue &eq, MachineConfig config,
            net::Network &lan, net::MacAddr guestMac,
            net::Network &mgmtLan, net::MacAddr mgmtMac,
            IbFabric *ibFabric = nullptr);

    const MachineConfig &config() const { return cfg; }

    PhysMem &mem() { return mem_; }
    IoBus &bus() { return bus_; }
    InterruptController &intc() { return intc_; }
    VmxEngine &vmx() { return vmx_; }
    Disk &disk() { return disk_; }
    Firmware &firmware() { return fw; }

    StorageKind storageKind() const { return cfg.storage; }
    /** Non-null when storageKind() == Nvme. */
    NvmeController *nvme() { return nvme_.get(); }

    E1000Nic &guestNic() { return *guestNic_; }
    E1000Nic &mgmtNic() { return *mgmtNic_; }
    /** Non-null when the config includes an HCA. */
    IbHca *hca() { return hca_.get(); }

    /** The active virtualization cost profile (see virt_profile.hh). */
    const VirtProfile &profile() const { return profile_; }
    void setProfile(const VirtProfile &p) { profile_ = p; }
    void clearProfile() { profile_ = bareMetalProfile(); }

    /** Number of physical cores. */
    unsigned cores() const { return cfg.cores; }

    /**
     * Attach a fault injector to this machine's fault sites (disk
     * media errors / latency spikes, lost and spurious IRQs).  Pass
     * nullptr to detach.  Network-side sites are attached on the
     * net::Network itself.
     */
    void
    setFaultInjector(sim::FaultInjector *fi)
    {
        disk_.setFaultInjector(fi);
        intc_.setFaultInjector(fi);
    }

  private:
    MachineConfig cfg;
    VirtProfile profile_;

    PhysMem mem_;
    IoBus bus_;
    InterruptController intc_;
    VmxEngine vmx_;
    Firmware fw;
    Disk disk_;
    std::unique_ptr<IdeController> ide_;
    std::unique_ptr<AhciController> ahci_;
    std::unique_ptr<NvmeController> nvme_;
    std::unique_ptr<E1000Nic> guestNic_;
    std::unique_ptr<E1000Nic> mgmtNic_;
    std::unique_ptr<IbHca> hca_;
};

} // namespace hw

#endif // HW_MACHINE_HH
