/**
 * @file
 * Azure-style locally-repairable code.
 *
 * Stripe layout: [0, k) data, [k, k+g) one local XOR parity per
 * contiguous data group of k/g members, [k+g, k+g+m) global RS
 * parities.  The whole point is the repair plan: a lost data member
 * rebuilds from its *group* (k/g shards, XOR combine) instead of k
 * shards with a GF decode; globals exist only to survive multi-member
 * failures.  Degraded reads substitute a dead data member's slice
 * with its local parity (XOR cost) when the rest of the group is
 * live, falling back to a global parity (full GF cost) otherwise —
 * same bytes on the wire as a healthy read, cheaper combine than
 * flat RS.
 */

#ifndef STORE_EC_LRC_HH
#define STORE_EC_LRC_HH

#include "store/ec/code.hh"

namespace store::ec {

class Lrc : public Code
{
  public:
    explicit Lrc(CodeParams p);

    CodeKind kind() const override { return CodeKind::Lrc; }
    unsigned parityMembers() const override
    {
        return prm_.localGroups + prm_.parityShards;
    }
    unsigned localParities() const override { return prm_.localGroups; }

    /** Group index of data member @p i. */
    unsigned groupOf(unsigned i) const { return i / groupSize_; }
    /** Stripe index of group @p j's local parity. */
    unsigned localParityIndex(unsigned j) const
    {
        return dataShards() + j;
    }

    std::optional<Plan>
    readPlan(const std::vector<net::MacAddr> &stripe, const LiveFn &live,
             std::uint32_t sectors) const override;

    std::optional<Plan>
    repairPlan(const std::vector<net::MacAddr> &stripe, unsigned lost,
               const LiveFn &live,
               std::uint32_t chunkSectors) const override;

  private:
    /** Every data member of group @p j except @p skip is live. */
    bool groupDataLive(const std::vector<net::MacAddr> &stripe,
                       const LiveFn &live, unsigned j,
                       unsigned skip) const;

    unsigned groupSize_;
};

} // namespace store::ec

#endif // STORE_EC_LRC_HH
