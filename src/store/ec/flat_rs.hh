/**
 * @file
 * Flat k+m Reed–Solomon — the PR-5 store code, re-hosted as plans.
 *
 * readPlan() reproduces the k+m store's source pick + ChunkStreamer's
 * slicing exactly (data members first, live parity back-fills in index
 * order, sectors split base + remainder across the k picks,
 * zero-sector slices skipped, one GF combine at the full decode
 * penalty iff any parity member serves), so a FlatRs store runs
 * tick-identical to the pre-plan path.  repairPlan() is the flat-RS weakness the other
 * codes attack: any single rebuild moves k full shards.
 */

#ifndef STORE_EC_FLAT_RS_HH
#define STORE_EC_FLAT_RS_HH

#include "store/ec/code.hh"

namespace store::ec {

class FlatRs : public Code
{
  public:
    explicit FlatRs(CodeParams p);

    CodeKind kind() const override { return CodeKind::FlatRs; }

    std::optional<Plan>
    readPlan(const std::vector<net::MacAddr> &stripe, const LiveFn &live,
             std::uint32_t sectors) const override;

    std::optional<Plan>
    repairPlan(const std::vector<net::MacAddr> &stripe, unsigned lost,
               const LiveFn &live,
               std::uint32_t chunkSectors) const override;
};

} // namespace store::ec

#endif // STORE_EC_FLAT_RS_HH
