/**
 * @file
 * Provider-side facade: a bare-metal cloud region built on BMcast.
 *
 * Owns the management network, the image server and the machine
 * pool. Lease admission, placement and lifecycle live in a
 * cloud::ControlPlane for which the Cloud is the ProvisionerPort:
 * the plane decides *which* slot serves a lease, the Cloud performs
 * the mechanism (guest + deployer construction, power-off + scrub on
 * release). Two call surfaces share that machinery:
 *
 *  - provision(): the historical blocking API, preserved as a
 *    fail-fast shim — a submit that cannot be placed this instant
 *    returns nullptr, exactly the legacy contract;
 *  - submitLease()/releaseLease(): the queued API with QoS classes,
 *    typed rejections and the full lease timeline.
 *
 * Optionally the region models its aggregation network explicitly
 * (CloudConfig::topology) and shapes deployment traffic against a
 * shared budget (CloudConfig::congestion); both default off, keeping
 * historical runs bit-identical.
 */

#ifndef BMCAST_CLOUD_HH
#define BMCAST_CLOUD_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aoe/server.hh"
#include "bmcast/deployer.hh"
#include "cloud/congestion.hh"
#include "cloud/control_plane.hh"
#include "guest/guest_os.hh"
#include "hw/machine.hh"
#include "migrate/migration.hh"
#include "net/network.hh"
#include "net/topology.hh"
#include "simcore/sim_object.hh"
#include "store/fabric.hh"
#include "store/repair_scheduler.hh"

namespace bmcast {

/** Region-wide configuration. */
struct CloudConfig
{
    /** Machines racked in the region. */
    unsigned machines = 4;
    /**
     * Racks the pool is striped over (machine i lives in rack
     * i % racks). Placement is rack-aware: provision() leases from
     * the least-loaded rack, spreading a deployment storm across
     * failure domains instead of filling rack 0 first. With the
     * default single rack, placement degenerates to the historical
     * lowest-free-slot order.
     */
    unsigned racks = 1;
    hw::StorageKind storage = hw::StorageKind::Ahci;
    hw::MachineConfig machineTemplate;
    aoe::ServerParams server;
    VmmParams vmm;
    guest::GuestOsParams guestTemplate;
    /** Cold firmware init on first power-on. */
    bool coldFirmware = false;
    /** Store tier; disabled keeps the legacy single image server. */
    store::StoreParams store;
    /** Admission queue + lease state machine knobs. */
    cloud::ControlPlaneParams controlPlane;
    /**
     * Explicit aggregation topology (racks must match `racks` when
     * enabled). racks == 0 leaves the LAN flat — bit-identical to
     * every run before the topology existed.
     */
    net::TopologyConfig topology;
    /** Deployment-bandwidth shaping; disabled = unshaped. */
    cloud::CongestionParams congestion;
    /** Live-migration tuning (pre-copy rounds, handoff budget). */
    migrate::MigrateParams migrate;
};

/** One leased instance. */
class Instance
{
  public:
    enum class State { Provisioning, Serving, BareMetal, Released };

    /**
     * Derived from the records that own it, never stored: Released
     * once the machine is handed back; BareMetal while the VMM is
     * (or once a migration has moved the guest, native); Serving
     * while the lease is Serving or Migrating (a re-virtualized
     * source is mediated again); Provisioning otherwise.
     */
    State state() const;
    hw::Machine &machine() { return *machine_; }
    guest::GuestOs &guest() { return *guest_; }
    BmcastDeployer &deployer() { return *deployer_; }
    const std::string &image() const { return image_; }
    /** Rack the leased machine lives in. */
    unsigned rack() const { return rack_; }
    /** The control-plane lease backing this instance (never null). */
    cloud::Lease &lease() { return *lease_; }

    /** The live migration driving (or having driven) this instance;
     *  nullptr before Cloud::migrate ran. Stays valid afterwards so
     *  callers can read the recorded MigrateStats. */
    migrate::MigrationManager *migration() { return mig_.get(); }

    /** Seconds from the provision request to a serving guest. */
    double
    timeToServingSec() const
    {
        const auto &tl = deployer_->timeline();
        return sim::toSeconds(tl.guestBootDone - tl.powerOn);
    }

  private:
    friend class Cloud;

    std::string image_;
    unsigned rack_ = 0;
    hw::Machine *machine_ = nullptr;
    cloud::Lease *lease_ = nullptr;
    std::unique_ptr<guest::GuestOs> guest_;
    std::unique_ptr<BmcastDeployer> deployer_;
    std::unique_ptr<migrate::MigrationManager> mig_;
    /** Source-node guests parked after a migration handoff: events
     *  still in the queue retire against live objects. */
    std::vector<std::unique_ptr<guest::GuestOs>> oldGuests_;
};

/** The region. */
class Cloud : public sim::SimObject, private cloud::ProvisionerPort
{
  public:
    Cloud(sim::EventQueue &eq, std::string name,
          CloudConfig config = CloudConfig{});

    /** Register a golden image on the storage server(s). */
    void addImage(const std::string &name, sim::Bytes size,
                  std::uint64_t contentBase);

    /**
     * Register an overlay image: @p baseImage with @p deltas applied
     * (elijah-style base + modified runs).  Every seed server exports
     * it as a full target; with the store tier enabled, the catalog
     * additionally dedups every chunk the deltas do not touch against
     * the base image.
     */
    void addOverlayImage(const std::string &name,
                         const std::string &baseImage,
                         const std::vector<store::DeltaRun> &deltas);

    /**
     * Lease the next free machine and deploy @p image onto it with
     * BMcast. @p onServing fires when the guest OS is up (long
     * before the image has fully landed on the local disk).
     * @return the instance handle, or nullptr if the region is full.
     *
     * Legacy blocking shim: equivalent to submitLease() with
     * failFast set and default QoS.
     */
    Instance *provision(const std::string &image,
                        std::function<void(Instance &)> onServing);

    /**
     * Queued admission path. The request passes the control plane's
     * bounded admission queue (strict QoS priority, per-tenant caps);
     * the returned lease reports Queued/Deploying, or Rejected with
     * a typed reason. @p onServing fires with the deployed instance
     * when the guest is up.
     */
    cloud::Lease *
    submitLease(cloud::LeaseRequest rq,
                std::function<void(Instance &)> onServing,
                cloud::Lease::RejectedFn onRejected = {});

    /**
     * Release by lease handle (rapid elasticity needs reclaim as much
     * as provisioning): cancels a still-queued lease. A deploying or
     * serving one returns its machine to the pool: the machine
     * powers off — stopping any still-running deployment — its local
     * disk is scrubbed (tenant data and any saved deployment bitmap)
     * and the guest is discarded. The instance handle stays valid in
     * Released state, but its machine/guest/deployer accessors do
     * not. Releasing a lease twice is fatal.
     */
    void releaseLease(cloud::Lease &l);

    /** The instance deployed for @p l (nullptr while queued or
     *  rejected). Valid for released leases too. */
    Instance *instanceFor(const cloud::Lease &l);

    /**
     * Release @p inst and fold its disk's divergence from the
     * deployed image into a new overlay image @p overlayName
     * (registered before the disk scrubs): a re-lease redeploys from
     * the delta instead of re-shipping the whole working set. The
     * instance must have reached bare metal — a partially landed
     * disk would capture unlanded blocks as zero deltas.
     */
    void releaseToOverlay(Instance &inst,
                          const std::string &overlayName);

    /**
     * Live-migrate @p inst onto free pool slot @p destSlot: the
     * source VMM re-arms under the running guest (re-virtualization),
     * pre-copy rounds stream the dirty working set, and after the
     * stop-and-copy the guest resumes on the destination, bare-metal.
     * Refusals are typed and leave the instance untouched. One
     * migration per instance: the destination runs native, with no
     * VMM to re-arm for a second hop.
     */
    cloud::MigrateReject migrate(Instance &inst, unsigned destSlot);

    /** Machines not yet leased. */
    unsigned freeMachines() const;

    /** The lease control plane (admission queue, placement, stats). */
    cloud::ControlPlane &plane() { return *plane_; }
    /** The aggregation topology (nullptr when disabled). */
    net::Topology *topology() { return topo_.get(); }
    /** The deployment congestion controller (nullptr when disabled). */
    cloud::CongestionController *congestion()
    {
        return congestion_.get();
    }

    /** Rack of pool slot @p slot (machines stripe round-robin). */
    unsigned rackOf(unsigned slot) const;
    /** Leased machines currently in rack @p rack. */
    unsigned rackLoad(unsigned rack) const;

    net::Network &network() { return lan; }
    /** Seed server @p i (store mode exports several). */
    aoe::AoeServer &seedServer(unsigned i) { return *servers_[i]; }
    std::size_t seedServerCount() const { return servers_.size(); }
    const std::vector<net::MacAddr> &seedMacs() const
    {
        return serverMacs_;
    }
    /** The store fabric (nullptr when the store tier is disabled). */
    store::StoreFabric *storeFabric() { return fabric_.get(); }
    /** The background stripe healer (nullptr unless the store tier
     *  and its repair knob are both enabled). */
    store::RepairScheduler *repairScheduler() { return repair_.get(); }
    /** Wire chaos into the LAN, the seed servers, every machine and
     *  the store fabric's peer exporters. */
    void setFaultInjector(sim::FaultInjector *fi);
    const std::vector<std::unique_ptr<Instance>> &instances() const
    {
        return leased;
    }

  private:
    struct Image
    {
        std::uint16_t major;
        sim::Lba sectors;
        std::uint64_t contentBase;
        /** Overlay runs applied on top of contentBase (empty = flat). */
        std::vector<store::DeltaRun> deltas;
        /** Flat image this overlays (empty = this image is flat). */
        std::string baseName;
    };

    /** @name ProvisionerPort (the mechanism the plane drives) */
    /// @{
    unsigned slots() const override { return cfg.machines; }
    unsigned rackOfSlot(unsigned slot) const override
    {
        return rackOf(slot);
    }
    void startDeployment(cloud::Lease &l) override;
    void startRelease(cloud::Lease &l) override;
    void startMigration(cloud::Lease &l, unsigned destSlot) override;
    /** Tiebreak on aggregation downlink backlog when the topology is
     *  modeled (single event queue: reading it here is safe). */
    std::uint64_t rackScore(unsigned rack) const override;
    /// @}

    /** Power the node in @p slot off (VMM and @p inst's guest),
     *  drop its store exports and scrub its disk and profile: the
     *  teardown a release and a migration handoff share. */
    void scrubNode(Instance &inst, unsigned slot);
    /** Arm the manager and its hooks once the source is bare-metal. */
    void beginMigration(cloud::Lease &l, unsigned destSlot);
    /** The stop-and-copy state application: drain the source guest's
     *  in-flight I/O (commands queued before the pause keep
     *  completing against the source disk), then copy, swap the
     *  instance onto the destination and tear the source down. */
    void quiesceThenHandoff(Instance *ref, unsigned srcSlot,
                            unsigned destSlot, sim::Lba sectors,
                            std::function<void()> done);
    /** A reference disk holding @p img's pristine content. */
    hw::DiskStore imageDisk(const Image &img) const;

    CloudConfig cfg;
    net::Network lan;
    /** Seed image servers; one in legacy mode, params.seedServers in
     *  store mode (the erasure stripe spreads over them). */
    std::vector<net::MacAddr> serverMacs_;
    std::vector<std::unique_ptr<aoe::AoeServer>> servers_;
    std::unique_ptr<store::StoreFabric> fabric_;
    std::unique_ptr<store::RepairScheduler> repair_;
    std::vector<std::unique_ptr<hw::Machine>> pool;
    std::map<std::string, Image> images;
    std::uint16_t nextMajor = 0;
    std::vector<std::unique_ptr<Instance>> leased;

    std::unique_ptr<net::Topology> topo_;
    std::unique_ptr<cloud::CongestionController> congestion_;
    std::unique_ptr<cloud::ControlPlane> plane_;
    /** Lease id -> deployed instance (entries persist after release
     *  so timelines stay inspectable). */
    std::map<std::uint64_t, Instance *> leaseInst_;
    /** Lease id -> overlay image name to capture in startRelease. */
    std::map<std::uint64_t, std::string> pendingOverlay_;
    /** Last injector wired by setFaultInjector (migrations inherit). */
    sim::FaultInjector *fi_ = nullptr;
};

} // namespace bmcast

#endif // BMCAST_CLOUD_HH
