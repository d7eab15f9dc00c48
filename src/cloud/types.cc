#include "cloud/types.hh"

namespace cloud {

const char *
rejectReasonName(RejectReason r)
{
    switch (r) {
      case RejectReason::None: return "none";
      case RejectReason::QueueFull: return "queue_full";
      case RejectReason::TenantQueueCap: return "tenant_queue_cap";
      case RejectReason::RegionFull: return "region_full";
      case RejectReason::NoUsableRack: return "no_usable_rack";
    }
    return "?";
}

const char *
leaseStateName(LeaseState s)
{
    switch (s) {
      case LeaseState::Queued: return "queued";
      case LeaseState::Placing: return "placing";
      case LeaseState::Deploying: return "deploying";
      case LeaseState::Serving: return "serving";
      case LeaseState::Migrating: return "migrating";
      case LeaseState::Releasing: return "releasing";
      case LeaseState::Released: return "released";
      case LeaseState::Rejected: return "rejected";
    }
    return "?";
}

const char *
migrateRejectName(MigrateReject r)
{
    switch (r) {
      case MigrateReject::None: return "none";
      case MigrateReject::NotServing: return "not_serving";
      case MigrateReject::DestBusy: return "dest_busy";
      case MigrateReject::DestRackDown: return "dest_rack_down";
      case MigrateReject::SameSlot: return "same_slot";
    }
    return "?";
}

} // namespace cloud
