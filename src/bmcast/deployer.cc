#include "bmcast/deployer.hh"

#include <utility>

#include "simcore/logging.hh"

namespace bmcast {

BmcastDeployer::BmcastDeployer(sim::EventQueue &eq, std::string name,
                               hw::Machine &machine,
                               guest::GuestOs &guest_,
                               std::vector<net::MacAddr> server_macs,
                               sim::Lba image_sectors,
                               VmmParams params, bool cold_firmware,
                               bool vmxoff_supported)
    : sim::SimObject(eq, std::move(name)),
      machine_(machine), guest(guest_), coldFirmware(cold_firmware),
      obsTrack_(this->name())
{
    vmm_ = std::make_unique<Vmm>(eq, this->name() + ".vmm", machine,
                                 std::move(server_macs),
                                 image_sectors, params,
                                 vmxoff_supported);
}

void
BmcastDeployer::noteMilestone(const char *what)
{
    if (!obs::armed())
        return;
    obs::Tracer &t = obs::tracer();
    t.milestone(obsTrack_.id(t), what, now());
}

void
BmcastDeployer::run(std::function<void()> on_guest_ready)
{
    guestReadyCb = std::move(on_guest_ready);
    tl.powerOn = now();
    noteMilestone("deploy.power_on");

    vmm_->onBareMetal([this]() {
        tl.copyComplete =
            vmm_->phaseEnteredAt(Vmm::Phase::Devirtualization);
        tl.bareMetal = now();
        if (obs::armed()) {
            // copyComplete is back-dated to the devirtualization
            // instant; RunReport sorts milestones by timestamp.
            obs::Tracer &t = obs::tracer();
            const std::uint32_t track = obsTrack_.id(t);
            t.milestone(track, "deploy.copy_complete",
                        tl.copyComplete);
            t.milestone(track, "deploy.bare_metal", tl.bareMetal);
        }
        if (auto cb = std::exchange(bareMetalCb, nullptr))
            cb();
    });

    auto boot_vmm = [this]() {
        tl.firmwareDone = now();
        noteMilestone("deploy.firmware_done");
        vmm_->netboot([this]() {
            tl.vmmReady = now();
            noteMilestone("deploy.vmm_ready");
            guest.start([this]() {
                tl.guestBootDone = now();
                noteMilestone("deploy.guest_boot_done");
                if (guestReadyCb)
                    guestReadyCb();
            });
        });
    };

    if (coldFirmware)
        machine_.firmware().powerOn(boot_vmm);
    else
        boot_vmm();
}

} // namespace bmcast
