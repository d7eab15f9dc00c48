/**
 * @file
 * End-to-end BMcast deployment of one bare-metal instance: firmware
 * power-on, VMM network boot, guest OS boot under streaming
 * deployment, background copy to completion, de-virtualization.
 * Records the timeline that Fig. 4 and Fig. 5 report.
 */

#ifndef BMCAST_DEPLOYER_HH
#define BMCAST_DEPLOYER_HH

#include <functional>
#include <memory>

#include "bmcast/vmm.hh"
#include "guest/guest_os.hh"
#include "obs/obs.hh"
#include "simcore/logging.hh"
#include "simcore/sim_object.hh"

namespace bmcast {

/** Timestamps of the deployment milestones. */
struct DeploymentTimeline
{
    sim::Tick powerOn = 0;
    sim::Tick firmwareDone = 0;
    sim::Tick vmmReady = 0;       //!< deployment phase entered
    sim::Tick guestBootDone = 0;  //!< instance usable
    sim::Tick copyComplete = 0;
    sim::Tick bareMetal = 0;      //!< VMM gone
};

/** Orchestrates one instance. */
class BmcastDeployer : public sim::SimObject
{
  public:
    /**
     * Deployment starts from serverMacs[0] and fails over down the
     * list when the active server stops answering mid-stream,
     * resuming from the block bitmap.
     *
     * @param coldFirmware include the firmware cold-init delay
     *        (Fig. 4 reports both with and without it).
     */
    BmcastDeployer(sim::EventQueue &eq, std::string name,
                   hw::Machine &machine, guest::GuestOs &guest,
                   std::vector<net::MacAddr> serverMacs,
                   sim::Lba imageSectors,
                   VmmParams params = VmmParams{},
                   bool coldFirmware = true,
                   bool vmxoffSupported = false);

    /** Bind the deployment to the store fabric (before run()); see
     *  Vmm::setStoreSpec. */
    void setStoreSpec(store::DeploySpec spec)
    {
        vmm_->setStoreSpec(std::move(spec));
    }

    /** Bind a deployment-bandwidth gate (before run()); see
     *  Vmm::setRateGate. */
    void setRateGate(sim::RateGate g) { vmm_->setRateGate(std::move(g)); }

    /** Start; @p onGuestReady fires when the guest OS has booted
     *  (the cloud customer's instance is usable). */
    void run(std::function<void()> onGuestReady);

    Vmm &vmm() { return *vmm_; }
    const DeploymentTimeline &timeline() const { return tl; }
    bool bareMetalReached() const { return tl.bareMetal != 0; }

    /** Invoked when the instance reaches bare metal (immediately if
     *  it already has). One hook: registering a second one while the
     *  first is pending is fatal. */
    void
    onBareMetal(std::function<void()> cb)
    {
        if (bareMetalReached())
            return cb();
        sim::fatalIf(bareMetalCb != nullptr, name(),
                     ": onBareMetal hook already registered");
        bareMetalCb = std::move(cb);
    }

  private:
    /** Record an obs deployment milestone (no-op when disarmed). */
    void noteMilestone(const char *what);

    hw::Machine &machine_;
    guest::GuestOs &guest;
    bool coldFirmware;
    std::unique_ptr<Vmm> vmm_;
    DeploymentTimeline tl;
    obs::Track obsTrack_;
    std::function<void()> guestReadyCb;
    std::function<void()> bareMetalCb;
};

} // namespace bmcast

#endif // BMCAST_DEPLOYER_HH
