#include "bmcast/cloud.hh"

#include "simcore/logging.hh"

namespace bmcast {

Instance::State
Instance::state() const
{
    if (machine_ == nullptr)
        return State::Released;
    if (deployer_->vmm().phase() == Vmm::Phase::BareMetal ||
        (mig_ && mig_->phase() == migrate::MigrationManager::Phase::Done))
        return State::BareMetal;
    const cloud::LeaseState ls = lease_->state();
    if (ls == cloud::LeaseState::Serving ||
        ls == cloud::LeaseState::Migrating)
        return State::Serving;
    return State::Provisioning;
}

namespace {

constexpr net::MacAddr kServerMac = 0x525400FFFF01ULL;
/** Per-node chunk-export MAC: base + pool slot. */
constexpr net::MacAddr kPeerMacBase = 0xC00000000000ULL;

} // namespace

Cloud::Cloud(sim::EventQueue &eq, std::string name, CloudConfig config)
    : sim::SimObject(eq, std::move(name)),
      cfg(std::move(config)),
      lan(eq, this->name() + ".lan")
{
    // Legacy mode keeps the single image server (and its exact
    // object name) so disabled-store runs stay bit-identical.
    unsigned nservers = cfg.store.enabled ? cfg.store.seedServers : 1;
    sim::fatalIf(nservers == 0, "store mode needs seed servers");
    for (unsigned i = 0; i < nservers; ++i) {
        net::MacAddr mac = kServerMac + i;
        serverMacs_.push_back(mac);
        net::Port &p = lan.attach(mac, net::PortConfig{1e9, 9000, 0.0});
        std::string sname = this->name() + ".imgsrv";
        if (i > 0)
            sname += std::to_string(i);
        servers_.push_back(std::make_unique<aoe::AoeServer>(
            eq, sname, p, cfg.server));
    }
    if (cfg.store.enabled) {
        fabric_ = std::make_unique<store::StoreFabric>(
            eq, this->name() + ".store", cfg.store, serverMacs_);
        for (unsigned i = 0; i < nservers; ++i)
            fabric_->bindSeedServer(serverMacs_[i], servers_[i].get());
    }

    for (unsigned i = 0; i < cfg.machines; ++i) {
        hw::MachineConfig mc = cfg.machineTemplate;
        mc.name = this->name() + ".node" + std::to_string(i);
        mc.storage = cfg.storage;
        mc.seed = cfg.machineTemplate.seed + i;
        pool.push_back(std::make_unique<hw::Machine>(
            eq, mc, lan, 0xA00000000000ULL + i, lan,
            0xB00000000000ULL + i));
    }

    if (cfg.topology.racks > 0) {
        sim::fatalIf(cfg.topology.racks != cfg.racks,
                     "topology racks must match the pool striping");
        topo_ = std::make_unique<net::Topology>(cfg.topology);
        for (net::MacAddr mac : serverMacs_)
            topo_->placeAtCore(mac);
        for (unsigned i = 0; i < cfg.machines; ++i) {
            unsigned rack = rackOf(i);
            topo_->placeNode(0xA00000000000ULL + i, rack);
            topo_->placeNode(0xB00000000000ULL + i, rack);
            topo_->placeNode(kPeerMacBase + i, rack);
        }
        lan.setTopology(topo_.get());
    }
    if (cfg.congestion.enabled) {
        congestion_ = std::make_unique<cloud::CongestionController>(
            cfg.congestion, cfg.racks, topo_.get());
    }
    if (fabric_ && cfg.store.repair.enabled) {
        // Seed-pool lifecycle: the background healer that rebuilds
        // lost stripe members onto live pool members.  Its bytes
        // draw the Scavenger lane (seed servers sit at the core;
        // rack 0's lane stands in for the region).
        repair_ = std::make_unique<store::RepairScheduler>(
            eq, this->name() + ".repair", *fabric_,
            cfg.store.repair);
        if (congestion_)
            repair_->setRateGate(congestion_->gateFor(
                0, 0, cloud::Traffic::Scavenger));
        repair_->start();
    }
    // The port conversion must happen here (the base is private).
    cloud::ProvisionerPort &port = *this;
    plane_ = std::make_unique<cloud::ControlPlane>(
        eq, this->name() + ".cp", cfg.controlPlane, port);
}

void
Cloud::addImage(const std::string &img_name, sim::Bytes size,
                std::uint64_t content_base)
{
    sim::fatalIf(images.count(img_name) > 0,
                 "duplicate image ", img_name);
    auto sectors = static_cast<sim::Lba>(size / sim::kSectorSize);
    std::uint16_t major = nextMajor++;
    // Every seed server exports the full image: any stripe member
    // holds the truth for any chunk (erasure coding is modeled at
    // the placement/traffic level, see store::Placement).
    for (auto &srv : servers_)
        srv->addTarget(major, 0, sectors, content_base);
    if (fabric_) {
        fabric_->catalog().addFlat(img_name, major, sectors,
                                   content_base);
        fabric_->noteImageAdded(img_name);
    }
    images[img_name] = Image{major, sectors, content_base, {}, {}};
    sim::inform(name(), ": image '", img_name, "' registered (",
                size / sim::kMiB, " MiB)");
}

void
Cloud::addOverlayImage(const std::string &img_name,
                       const std::string &base_name,
                       const std::vector<store::DeltaRun> &deltas)
{
    sim::fatalIf(images.count(img_name) > 0,
                 "duplicate image ", img_name);
    auto base = images.find(base_name);
    sim::fatalIf(base == images.end(),
                 "unknown base image ", base_name);
    sim::fatalIf(!base->second.deltas.empty(),
                 "overlay base must be a flat image");
    std::uint16_t major = nextMajor++;
    sim::Lba sectors = base->second.sectors;
    for (auto &srv : servers_) {
        aoe::AoeTarget &t = srv->addTarget(major, 0, sectors,
                                           base->second.contentBase);
        for (const auto &d : deltas)
            t.store.write(d.lba, d.count, d.base);
    }
    if (fabric_) {
        fabric_->catalog().addOverlay(img_name, major, base_name,
                                      deltas);
        fabric_->noteImageAdded(img_name);
    }
    images[img_name] = Image{major, sectors, base->second.contentBase,
                             deltas, base_name};
    sim::inform(name(), ": overlay '", img_name, "' on '", base_name,
                "' registered (", deltas.size(), " delta runs)");
}

unsigned
Cloud::freeMachines() const
{
    return plane_->freeSlots();
}

unsigned
Cloud::rackOf(unsigned slot) const
{
    return cfg.racks > 1 ? slot % cfg.racks : 0;
}

unsigned
Cloud::rackLoad(unsigned rack) const
{
    return plane_->rackLoad(rack);
}

std::uint64_t
Cloud::rackScore(unsigned rack) const
{
    return topo_ ? topo_->downlinkBacklog(rack, now()) : 0;
}

void
Cloud::setFaultInjector(sim::FaultInjector *fi)
{
    fi_ = fi;
    lan.setFaultInjector(fi);
    for (auto &srv : servers_)
        srv->setFaultInjector(fi);
    for (auto &m : pool)
        m->setFaultInjector(fi);
    if (fabric_)
        fabric_->setFaultInjector(fi);
    if (repair_)
        repair_->setFaultInjector(fi);
}

Instance *
Cloud::provision(const std::string &img_name,
                 std::function<void(Instance &)> on_serving)
{
    cloud::LeaseRequest rq;
    rq.image = img_name;
    rq.failFast = true; // the historical blocking contract
    cloud::Lease *l = submitLease(std::move(rq), std::move(on_serving));
    if (l->state() == cloud::LeaseState::Rejected)
        return nullptr; // region full
    return instanceFor(*l);
}

cloud::Lease *
Cloud::submitLease(cloud::LeaseRequest rq,
                   std::function<void(Instance &)> on_serving,
                   cloud::Lease::RejectedFn on_rejected)
{
    // Unknown images are a configuration error, caught before the
    // request ever reaches the admission queue.
    sim::fatalIf(images.find(rq.image) == images.end(),
                 "unknown image ", rq.image);
    return plane_->submit(
        std::move(rq),
        [this, cb = std::move(on_serving)](cloud::Lease &l) {
            if (cb)
                cb(*leaseInst_.at(l.id()));
        },
        std::move(on_rejected));
}

Instance *
Cloud::instanceFor(const cloud::Lease &l)
{
    auto it = leaseInst_.find(l.id());
    return it == leaseInst_.end() ? nullptr : it->second;
}

void
Cloud::startDeployment(cloud::Lease &l)
{
    auto img = images.find(l.image());
    sim::panicIfNot(img != images.end(),
                    "plane placed a lease for an unknown image");
    const unsigned slot = l.slot();

    auto inst = std::make_unique<Instance>();
    Instance *ref = inst.get();
    ref->image_ = l.image();
    ref->rack_ = l.rack();
    ref->machine_ = pool[slot].get();
    ref->lease_ = &l;
    leaseInst_[l.id()] = ref;

    guest::GuestOsParams gp = cfg.guestTemplate;
    gp.seed += slot;
    ref->guest_ = std::make_unique<guest::GuestOs>(
        eventQueue(), pool[slot]->name() + ".guest", *pool[slot], gp);

    VmmParams vp = cfg.vmm;
    // The AoE major number selects this instance's image on the
    // shared storage server.
    vp.aoeMajor = img->second.major;
    // Legacy mode's server list is the single image server.
    ref->deployer_ = std::make_unique<BmcastDeployer>(
        eventQueue(), pool[slot]->name() + ".dep", *pool[slot],
        *ref->guest_, serverMacs_, img->second.sectors, vp,
        cfg.coldFirmware);
    if (fabric_) {
        net::MacAddr peer_mac = kPeerMacBase + slot;
        store::DeploySpec spec;
        spec.fabric = fabric_.get();
        spec.image = l.image();
        spec.peerMac = peer_mac;
        ref->deployer_->setStoreSpec(std::move(spec));
        fabric_->attachPeer(lan, peer_mac,
                            pool[slot]->name() + ".chunksrv");
    }
    if (congestion_) {
        ref->deployer_->setRateGate(
            congestion_->gateFor(l.rack(), l.tenant()));
    }

    ref->deployer_->run(
        [this, id = l.id()]() { plane_->noteServing(id); });

    leased.push_back(std::move(inst));
}

void
Cloud::releaseLease(cloud::Lease &l)
{
    plane_->release(l);
}

void
Cloud::startRelease(cloud::Lease &l)
{
    Instance &inst = *leaseInst_.at(l.id());
    const unsigned slot = l.slot();

    // A release racing a live migration wins: tear the state machine
    // down first so its in-flight ship/handoff events retire without
    // touching the slots the plane is about to free.
    if (inst.mig_ && !inst.mig_->finished())
        inst.mig_->cancel();

    // Fold the instance's writes into an overlay image: diff the
    // disk before the scrub erases it, register the overlay once the
    // node's chunk exports are gone. A re-lease then redeploys
    // base + delta.
    auto po = pendingOverlay_.find(l.id());
    const Image &img = images.at(inst.image_);
    std::vector<store::DeltaRun> deltas;
    if (po != pendingOverlay_.end()) {
        hw::DiskStore flat_ref;
        flat_ref.write(0, img.sectors, img.contentBase);
        for (const auto &r : migrate::diffDisks(
                 pool[slot]->disk().store(), flat_ref, 0, img.sectors))
            deltas.push_back(
                {r.lba, static_cast<std::uint32_t>(r.count), r.base});
    }

    scrubNode(inst, slot);

    if (po != pendingOverlay_.end()) {
        addOverlayImage(po->second,
                        img.deltas.empty() ? inst.image_ : img.baseName,
                        deltas);
        pendingOverlay_.erase(po);
    }
    inst.machine_ = nullptr;
    sim::inform(name(), ": node ", slot, " released back to the pool");
    plane_->noteReleased(l.id());
}

void
Cloud::scrubNode(Instance &inst, unsigned slot)
{
    // Power off whatever is still running: the VMM tears down its
    // intercepts, copy engine and AoE session; the guest stops its
    // workload and unhooks its driver's interrupt handlers. Both
    // objects stay parked in the instance handle so events still in
    // the queue retire harmlessly.
    inst.deployer_->vmm().powerOff();
    inst.guest_->halt();

    // Return the node's cached chunks to the store: replica refs are
    // released and its chunk exporter goes dark (in-flight fetches
    // against it fail over to the erasure stripe).
    if (fabric_)
        fabric_->nodeReleased(kPeerMacBase + slot);

    // Scrub the local disk: tenant data must not leak to the next
    // lease, and a stale saved bitmap would make the next deployment
    // "resume" the wrong image.
    pool[slot]->disk().store().clear();
    pool[slot]->clearProfile();
}

void
Cloud::releaseToOverlay(Instance &inst, const std::string &overlay)
{
    sim::fatalIf(inst.state() != Instance::State::BareMetal,
                 "overlay release needs a fully landed bare-metal "
                 "instance");
    sim::fatalIf(images.count(overlay) > 0,
                 "duplicate image ", overlay);
    pendingOverlay_[inst.lease_->id()] = overlay;
    plane_->release(*inst.lease_);
}

cloud::MigrateReject
Cloud::migrate(Instance &inst, unsigned dest_slot)
{
    sim::fatalIf(inst.lease_ == nullptr,
                 "migrating an instance this region does not lease");
    sim::fatalIf(inst.mig_ != nullptr,
                 "instance already migrated: the destination runs "
                 "native, with no VMM to re-arm");
    return plane_->migrate(inst.lease_->id(), dest_slot);
}

hw::DiskStore
Cloud::imageDisk(const Image &img) const
{
    hw::DiskStore ref;
    ref.write(0, img.sectors, img.contentBase);
    for (const auto &d : img.deltas)
        ref.write(d.lba, d.count, d.base);
    return ref;
}

void
Cloud::startMigration(cloud::Lease &l, unsigned dest_slot)
{
    Instance &inst = *leaseInst_.at(l.id());
    sim::fatalIf(inst.mig_ != nullptr,
                 "instance already migrated once");
    // Re-virtualization needs the source at bare metal (the VMM
    // re-arms under the running guest). A Serving-but-still-deploying
    // instance waits for its first de-virtualization to finish.
    inst.deployer_->onBareMetal(
        [this, id = l.id(), dest_slot]() {
            cloud::Lease *l2 = plane_->leaseById(id);
            if (l2->state() != cloud::LeaseState::Migrating)
                return; // released while waiting for bare metal
            beginMigration(*l2, dest_slot);
        });
}

void
Cloud::beginMigration(cloud::Lease &l, unsigned dest_slot)
{
    Instance *ref = leaseInst_.at(l.id());
    const unsigned src_slot = l.slot();
    const Image &img = images.at(ref->image_);
    const sim::Lba sectors = img.sectors;

    ref->mig_ = std::make_unique<migrate::MigrationManager>(
        eventQueue(), pool[src_slot]->name() + ".mig", cfg.migrate,
        sectors);
    migrate::MigrationManager *mig = ref->mig_.get();
    if (fi_)
        mig->setFaultInjector(fi_);

    // Blocks the destination cannot reconstruct from the image store
    // must stream: seed the dirty set with the source disk's
    // divergence from its deployed image.
    mig->seedDirty(migrate::diffDisks(pool[src_slot]->disk().store(),
                                      imageDisk(img), 0, sectors));

    migrate::MigrationManager::Hooks hooks;

    hooks.revirt = [this, ref, mig](std::function<void()> done) {
        Vmm &vmm = ref->deployer_->vmm();
        vmm.setGuestWriteHook(
            [mig](sim::Lba lba, std::uint32_t count) {
                mig->noteGuestWrite(lba, count);
            });
        vmm.revirtualize(
            [g = ref->guest_.get()]() { return g->blk().idle(); },
            std::move(done));
    };

    const net::MacAddr src_mac = 0xA00000000000ULL + src_slot;
    const net::MacAddr dst_mac = 0xA00000000000ULL + dest_slot;
    hooks.ship = [this, src_mac, dst_mac, src_rack = rackOf(src_slot),
                  tenant = l.tenant()](sim::Bytes bytes,
                                       std::function<void()> done) {
        // Migration streams share the deployment fabric: the same
        // congestion budget shapes the departure and the same
        // aggregation links carry (and bill) the bytes.
        sim::Tick depart = now();
        if (congestion_)
            depart = congestion_->admit(src_rack, tenant, bytes,
                                        depart);
        sim::Tick arrive = depart + bytes * 8; // 1 Gbps wire
        if (topo_)
            arrive += topo_->charge(src_mac, dst_mac, bytes, depart);
        schedule(arrive - now(), std::move(done));
    };

    hooks.handoff = [this, ref, src_slot, dest_slot,
                     sectors](std::function<void()> done) {
        quiesceThenHandoff(ref, src_slot, dest_slot, sectors,
                           std::move(done));
    };

    hooks.onDone = [this, id = l.id()](const migrate::MigrateStats &) {
        plane_->noteMigrated(id);
    };

    hooks.onAbort = [this, ref, dest_slot,
                     id = l.id()](const migrate::MigrateStats &) {
        // Roll back: drop the intercept hook, de-virtualize the
        // source again (the guest never stopped — zero lost writes)
        // and scrub whatever partial stream reached the destination.
        Vmm &vmm = ref->deployer_->vmm();
        vmm.setGuestWriteHook({});
        vmm.devirtualizeAgain([this, dest_slot, id]() {
            pool[dest_slot]->disk().store().clear();
            plane_->noteMigrationFailed(id);
        });
    };

    mig->start(std::move(hooks));
}

void
Cloud::quiesceThenHandoff(Instance *ref, unsigned src_slot,
                          unsigned dest_slot, sim::Lba sectors,
                          std::function<void()> done)
{
    // A release (or abort) racing the pause wins: nothing to apply.
    if (!ref->mig_ || ref->mig_->finished())
        return;
    // The pause stopped the vCPUs, not the controller: commands
    // queued before the pause keep completing against the source
    // disk, and copying under them would lose their writes on the
    // destination. Drain first; the drain tail is honest downtime.
    if (!ref->guest_->blk().idle()) {
        schedule(500 * sim::kUs,
                 [this, ref, src_slot, dest_slot, sectors,
                  done = std::move(done)]() mutable {
                     quiesceThenHandoff(ref, src_slot, dest_slot,
                                        sectors, std::move(done));
                 });
        return;
    }

    // Apply state: the destination disk becomes a byte-identical
    // replica of the source at the pause point (the guest has been
    // paused — and now drained — for the whole handoff window).
    hw::DiskStore &src = pool[src_slot]->disk().store();
    hw::DiskStore &dst = pool[dest_slot]->disk().store();
    dst.clear();
    src.forEachBase(0, sectors,
                    [&dst](sim::Lba lba, std::uint64_t count,
                           std::uint64_t base) {
                        if (base != 0)
                            dst.write(lba, count, base);
                    });

    // Resume the guest on the destination, native: the handoff
    // budget covered its de-virtualization, so it comes up directly
    // on bare metal.
    guest::GuestOsParams gp = cfg.guestTemplate;
    gp.seed += dest_slot;
    auto dguest = std::make_unique<guest::GuestOs>(
        eventQueue(), pool[dest_slot]->name() + ".guest",
        *pool[dest_slot], gp);
    dguest->resume();

    // Tear the source down: stop intercepting, halt the (now stale)
    // source guest, scrub the node for its next lease.
    ref->deployer_->vmm().setGuestWriteHook({});
    scrubNode(*ref, src_slot);

    ref->oldGuests_.push_back(std::move(ref->guest_));
    ref->guest_ = std::move(dguest);
    ref->machine_ = pool[dest_slot].get();
    ref->rack_ = rackOf(dest_slot);
    sim::inform(name(), ": node ", src_slot, " migrated to node ",
                dest_slot);
    done();
}

} // namespace bmcast
