/**
 * @file
 * Erasure-coded chunk placement across the seed-server pool.
 *
 * Each chunk digest maps to a stripe of code->width() members drawn
 * round-robin from the server pool.  The stripe's algebra lives in an
 * ec::Code: fetch plans and repair plans are plan DAGs the code
 * builds over the concrete member MACs (store/ec/code.hh); a read
 * plan's Fetch steps are the chosen sources, in fetch order.
 *
 * Modeling note: the simulation carries sector *tokens*, not real
 * bytes, so every stripe member exports the full chunk content and
 * the erasure code is modeled at the placement/availability level —
 * a plan exists iff enough stripe members are live, and using parity
 * members marks the plan as a reconstruction.  Wire traffic still
 * splits the chunk across the chosen members the way the code
 * dictates, so throughput scales the way real striping would.
 *
 * Repair re-homes members per digest: rehome(d, i, mac) overrides
 * stripe slot i for chunk d (the RepairScheduler points a rebuilt
 * member at its new server), and all plans follow the override.
 */

#ifndef STORE_PLACEMENT_HH
#define STORE_PLACEMENT_HH

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "net/frame.hh"
#include "store/chunk.hh"
#include "store/ec/code.hh"

namespace store {

class Placement
{
  public:
    /** Stripes of @p code over @p servers. */
    Placement(std::shared_ptr<const ec::Code> code,
              std::vector<net::MacAddr> servers);

    /** Stripe members for @p d (data members first, overrides
     *  applied). */
    std::vector<net::MacAddr> stripeFor(Digest d) const;

    /** The code's read plan for @p sectors sectors of chunk @p d;
     *  nullopt when too few members are live (chunk unreconstructable
     *  right now). */
    std::optional<ec::Plan>
    readPlanFor(Digest d, const ec::LiveFn &live,
                std::uint32_t sectors) const;

    /** The code's rebuild plan for stripe member @p lost of @p d. */
    std::optional<ec::Plan>
    repairPlanFor(Digest d, unsigned lost, const ec::LiveFn &live,
                  std::uint32_t chunkSectors) const;

    /** Override stripe slot @p member of chunk @p d to @p mac (a
     *  completed rebuild re-homing the member). */
    void rehome(Digest d, unsigned member, net::MacAddr mac);

    /** Stripe slot of @p mac in @p d's stripe, if any. */
    std::optional<unsigned> memberIndexOf(Digest d,
                                          net::MacAddr mac) const;

    const ec::Code &code() const { return *code_; }
    std::shared_ptr<const ec::Code> sharedCode() const
    {
        return code_;
    }
    /** Swap the stripe algebra (elastic transformation); the caller
     *  is responsible for rebuilding parity members. */
    void setCode(std::shared_ptr<const ec::Code> code);

    const std::vector<net::MacAddr> &servers() const
    {
        return servers_;
    }
    std::size_t rehomedChunks() const { return overrides_.size(); }

    unsigned dataShards() const { return code_->dataShards(); }
    unsigned stripeWidth() const { return width_; }

  private:
    void checkPool() const;

    std::shared_ptr<const ec::Code> code_;
    unsigned width_;
    std::vector<net::MacAddr> servers_;
    /** Per-digest member overrides from completed repairs. */
    std::map<Digest, std::map<unsigned, net::MacAddr>> overrides_;
};

} // namespace store

#endif // STORE_PLACEMENT_HH
