/**
 * @file
 * Unit tests of the bmcast::store building blocks: position-bound
 * chunk digests (and their agreement with the AoE shard-path fold),
 * the refcounted dedup store, catalog flat/overlay recipes with an
 * analytic dedup-ratio property, erasure-coded placement plans, and
 * peer-source ranking.
 */

#include <gtest/gtest.h>

#include <iomanip>
#include <optional>
#include <set>
#include <sstream>

#include "aoe/protocol.hh"
#include "hw/disk_store.hh"
#include "simcore/logging.hh"
#include "store/catalog.hh"
#include "store/peer_registry.hh"
#include "store/ec/code.hh"
#include "store/placement.hh"

namespace {

constexpr std::uint64_t kBaseA = 0xAAAA000000000001ULL;
constexpr std::uint64_t kBaseB = 0xBBBB000000000001ULL;
constexpr std::uint64_t kDelta = 0xDDDD000000000001ULL;

// --- Chunk payloads and digests ---

store::ChunkPayload
flatPayload(std::uint64_t base,
            std::uint32_t sectors = store::kChunkSectors)
{
    store::ChunkPayload p;
    p.sectors = sectors;
    p.runs.push_back({0, sectors, base});
    return p;
}

TEST(StoreChunk, DigestMatchesAoeShardFold)
{
    // The chunk digest must be the exact fold the AoE shard path
    // computes over served tokens: end-to-end verification then
    // needs no side channel.
    store::ChunkPayload p = flatPayload(kBaseA, 64);
    sim::Lba start = 7 * store::kChunkSectors;
    std::vector<std::uint64_t> tokens;
    for (std::uint32_t i = 0; i < 64; ++i)
        tokens.push_back(hw::sectorToken(kBaseA, start + i));
    EXPECT_EQ(p.digestAt(start), aoe::digestTokens(tokens));
}

TEST(StoreChunk, DigestIsPositionBound)
{
    store::ChunkPayload p = flatPayload(kBaseA);
    EXPECT_NE(p.digestAt(0), p.digestAt(store::kChunkSectors))
        << "same content at a different offset is a different chunk";
    EXPECT_EQ(p.digestAt(store::kChunkSectors),
              flatPayload(kBaseA).digestAt(store::kChunkSectors));
    EXPECT_NE(p.digestAt(0), flatPayload(kBaseB).digestAt(0));
}

TEST(StoreChunk, GapsReadAsZero)
{
    store::ChunkPayload p;
    p.sectors = 8;
    p.runs.push_back({2, 3, kBaseA});
    EXPECT_EQ(p.baseAt(0), 0u);
    EXPECT_EQ(p.baseAt(2), kBaseA);
    EXPECT_EQ(p.baseAt(4), kBaseA);
    EXPECT_EQ(p.baseAt(5), 0u);

    hw::DiskStore out;
    p.fill(16, out);
    EXPECT_EQ(out.baseAt(16), 0u);
    EXPECT_TRUE(out.rangeHasBase(18, 3, kBaseA));
    EXPECT_EQ(out.baseAt(21), 0u);
}

// --- ChunkStore refcounts ---

TEST(StoreChunkStore, DedupsIdenticalContentAtSameOffset)
{
    store::ChunkStore cs;
    store::Digest d1 = cs.addImageRef(0, flatPayload(kBaseA));
    store::Digest d2 = cs.addImageRef(0, flatPayload(kBaseA));
    EXPECT_EQ(d1, d2);
    EXPECT_EQ(cs.uniqueChunks(), 1u);
    EXPECT_EQ(cs.dedupHits(), 1u);
    EXPECT_EQ(cs.imageRefs(d1), 2u);
    EXPECT_EQ(cs.storedBytes(), store::kChunkBytes);

    // Different offset: different digest, no dedup.
    store::Digest d3 =
        cs.addImageRef(store::kChunkSectors, flatPayload(kBaseA));
    EXPECT_NE(d3, d1);
    EXPECT_EQ(cs.uniqueChunks(), 2u);
}

TEST(StoreChunkStore, ReplicaRefsKeepOrphanedChunksAlive)
{
    store::ChunkStore cs;
    store::Digest d = cs.addImageRef(0, flatPayload(kBaseA));
    cs.refReplica(d);

    cs.unrefImage(d);
    ASSERT_NE(cs.find(d), nullptr)
        << "a deployed node still serves this chunk";
    EXPECT_EQ(cs.replicaRefs(d), 1u);

    cs.unrefReplica(d);
    EXPECT_EQ(cs.find(d), nullptr) << "both counts zero: reclaimed";
    EXPECT_EQ(cs.uniqueChunks(), 0u);
    EXPECT_EQ(cs.storedBytes(), 0u);
}

TEST(StoreChunkStore, DoubleReleaseFailsFastWithTheChunkDigest)
{
    store::ChunkStore cs;
    store::Digest d = cs.addImageRef(0, flatPayload(kBaseA));
    cs.refReplica(d);
    cs.unrefReplica(d); // balanced: the chunk survives on image ref

    // The digest the message must name, formatted as the store does.
    std::ostringstream hex;
    hex << "0x" << std::hex << std::setw(16) << std::setfill('0') << d;

    // Image side: second release of a spent refcount.
    cs.unrefImage(d); // replica count is zero too, so d is reclaimed
    try {
        cs.unrefImage(d);
        FAIL() << "double image release must panic";
    } catch (const sim::PanicError &e) {
        EXPECT_NE(std::string(e.what()).find(hex.str()),
                  std::string::npos)
            << "message must carry the chunk digest: " << e.what();
    }

    // Replica side: underflow while the chunk is still live.
    store::Digest d2 = cs.addImageRef(0, flatPayload(kBaseB));
    std::ostringstream hex2;
    hex2 << "0x" << std::hex << std::setw(16) << std::setfill('0')
         << d2;
    try {
        cs.unrefReplica(d2);
        FAIL() << "replica underflow must panic";
    } catch (const sim::PanicError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find(hex2.str()), std::string::npos) << msg;
        EXPECT_NE(msg.find("double release"), std::string::npos);
    }
    ASSERT_NE(cs.find(d2), nullptr)
        << "the failed release must not corrupt the live chunk";
    EXPECT_EQ(cs.imageRefs(d2), 1u);
}

// --- Catalog: flat and overlay recipes ---

TEST(StoreCatalog, FlatImageMaterializesByteIdentical)
{
    store::ChunkStore cs;
    store::ImageCatalog cat(cs);
    sim::Lba sectors = 8 * store::kChunkSectors + 100; // ragged tail
    const store::ImageDesc &desc =
        cat.addFlat("img", 3, sectors, kBaseA);
    EXPECT_EQ(desc.major, 3);
    EXPECT_EQ(desc.chunks.size(), store::chunkCount(sectors));
    EXPECT_EQ(cs.uniqueChunks(), desc.chunks.size());

    hw::DiskStore out;
    cat.materialize("img", out);
    EXPECT_TRUE(out.rangeHasBase(0, sectors, kBaseA));
    EXPECT_TRUE(cat.verifyDisk("img", out));

    out.write(5, 1, kBaseB);
    EXPECT_FALSE(cat.verifyDisk("img", out));
}

TEST(StoreCatalog, OverlayFamilySharesBaseChunksAnalytically)
{
    store::ChunkStore cs;
    store::ImageCatalog cat(cs);
    constexpr std::size_t kChunks = 64;
    sim::Lba sectors = kChunks * store::kChunkSectors;
    cat.addFlat("base", 0, sectors, kBaseA);
    ASSERT_EQ(cs.uniqueChunks(), kChunks);

    // A family of overlays; member i dirties i distinct chunks. The
    // stored-chunk count must match the analytic unique count: base
    // chunks + freshly touched chunks, nothing double-stored.
    std::size_t expected_unique = kChunks;
    std::uint64_t expected_hits = cs.dedupHits();
    for (int i = 1; i <= 4; ++i) {
        std::vector<store::DeltaRun> deltas;
        std::set<std::size_t> touched;
        for (int j = 0; j < i; ++j) {
            sim::Lba lba = static_cast<sim::Lba>(j * 13 + i) *
                               store::kChunkSectors +
                           31;
            deltas.push_back(
                {lba, 64, kDelta + static_cast<unsigned>(i * 16 + j)});
            touched.insert(store::chunkIndexOf(lba));
        }
        cat.addOverlay("ovl" + std::to_string(i),
                       static_cast<std::uint16_t>(i), "base", deltas);
        expected_unique += touched.size();
        expected_hits += kChunks - touched.size();
        EXPECT_EQ(cs.uniqueChunks(), expected_unique) << "overlay " << i;
        EXPECT_EQ(cs.dedupHits(), expected_hits) << "overlay " << i;

        // Reconstructed overlay is byte-identical to base + deltas.
        hw::DiskStore out;
        cat.materialize("ovl" + std::to_string(i), out);
        hw::DiskStore ref;
        ref.write(0, sectors, kBaseA);
        for (const auto &d : deltas)
            ref.write(d.lba, d.count, d.base);
        for (sim::Lba s = 0; s < sectors; ++s)
            ASSERT_EQ(out.tokenAt(s), ref.tokenAt(s))
                << "overlay " << i << " sector " << s;
        EXPECT_TRUE(cat.verifyDisk("ovl" + std::to_string(i), ref));
    }

    // An overlay repeating ovl1's exact deltas adds no new chunks.
    std::vector<store::DeltaRun> dup{
        {static_cast<sim::Lba>(1) * store::kChunkSectors + 31, 64,
         kDelta + 16}};
    cat.addOverlay("dup", 99, "base", dup);
    EXPECT_EQ(cs.uniqueChunks(), expected_unique);

    // Removing every image releases every chunk.
    for (int i = 1; i <= 4; ++i)
        cat.remove("ovl" + std::to_string(i));
    cat.remove("dup");
    EXPECT_EQ(cs.uniqueChunks(), kChunks);
    cat.remove("base");
    EXPECT_EQ(cs.uniqueChunks(), 0u);
    EXPECT_EQ(cs.storedBytes(), 0u);
}

// --- Placement: k-of-n reconstruction plans ---

/** Flat k+m Reed–Solomon stripes over @p macs. */
store::Placement
flatPlacement(unsigned k, unsigned m, std::vector<net::MacAddr> macs)
{
    return store::Placement(
        store::ec::makeCode(store::ec::CodeKind::FlatRs,
                            store::ec::CodeParams{k, m, 1, 0}),
        std::move(macs));
}

/** A k-sector read plan: one sector per data slot, so each chosen
 *  member is fetched exactly once. */
std::optional<store::ec::Plan>
kSectorPlan(const store::Placement &p, store::Digest d,
            const store::ec::LiveFn &live)
{
    return p.readPlanFor(d, live, p.dataShards());
}

/** The members @p plan fetches from, in fetch order. */
std::vector<net::MacAddr>
fetchSources(const store::ec::Plan &plan)
{
    std::vector<net::MacAddr> srcs;
    for (const store::ec::PlanStep &s : plan.steps)
        if (s.op == store::ec::StepOp::Fetch)
            srcs.push_back(s.source);
    return srcs;
}

TEST(StorePlacement, AnyKLiveStripeMembersYieldAPlan)
{
    std::vector<net::MacAddr> macs{0x10, 0x11, 0x12, 0x13, 0x14, 0x15};
    store::Placement p = flatPlacement(4, 2, macs);
    EXPECT_EQ(p.stripeWidth(), 6u);

    const store::Digest d = 0x1234567;
    auto stripe = p.stripeFor(d);
    ASSERT_EQ(stripe.size(), 6u);

    std::set<net::MacAddr> down;
    auto live = [&](net::MacAddr m) { return down.count(m) == 0; };

    auto plan = kSectorPlan(p, d, live);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(fetchSources(*plan).size(), 4u);
    EXPECT_EQ(plan->parityUsed, 0u) << "all data members live";

    // Kill data members one at a time: parity substitutes, up to m.
    down.insert(stripe[0]);
    plan = kSectorPlan(p, d, live);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(fetchSources(*plan).size(), 4u);
    EXPECT_EQ(plan->parityUsed, 1u);

    down.insert(stripe[1]);
    plan = kSectorPlan(p, d, live);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->parityUsed, 2u);

    // Third loss: fewer than k live members, unreconstructable.
    down.insert(stripe[2]);
    EXPECT_FALSE(kSectorPlan(p, d, live).has_value());

    // One member back: reconstructable again.
    down.erase(stripe[1]);
    EXPECT_TRUE(kSectorPlan(p, d, live).has_value());
}

TEST(StorePlacement, StripesRotateAcrossThePool)
{
    std::vector<net::MacAddr> macs{1, 2, 3, 4, 5, 6, 7, 8};
    store::Placement p = flatPlacement(4, 2, macs);
    EXPECT_EQ(p.stripeWidth(), 6u) << "k+m of the pool, not all of it";
    auto a = p.stripeFor(0);
    auto b = p.stripeFor(1);
    EXPECT_NE(a, b) << "consecutive digests land on rotated stripes";
    // Every pool member appears in some stripe.
    std::set<net::MacAddr> seen;
    for (store::Digest d = 0; d < 8; ++d)
        for (auto m : p.stripeFor(d))
            seen.insert(m);
    EXPECT_EQ(seen.size(), macs.size());
}

TEST(StorePlacement, SmallPoolsDegradeToAllDataMembers)
{
    std::vector<net::MacAddr> macs{1, 2, 3};
    store::Placement p = flatPlacement(3, 2, macs);
    EXPECT_EQ(p.stripeWidth(), 3u);
    auto plan = kSectorPlan(p, 42, [](net::MacAddr) { return true; });
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(fetchSources(*plan).size(), 3u);
    EXPECT_EQ(plan->parityUsed, 0u);
    // Any loss is fatal: there is no parity slack.
    auto none =
        kSectorPlan(p, 42, [&](net::MacAddr m) { return m != 2; });
    EXPECT_FALSE(none.has_value());
}

// --- Peer registry ranking ---

TEST(StorePeerRegistry, RanksIdlePeersFirstAndSpreadsLoad)
{
    store::PeerRegistry reg;
    const store::Digest d = 0xD1;
    reg.registerPeer(0xA1);
    reg.registerPeer(0xA2);
    reg.addChunk(0xA1, d);
    reg.addChunk(0xA2, d);
    EXPECT_EQ(reg.chunkRegistrations(), 2u);

    // Tie: deterministic MAC order.
    auto src = reg.sourcesFor(d, 0);
    ASSERT_EQ(src.size(), 2u);
    EXPECT_EQ(src[0], 0xA1u);

    // A busy peer drops behind an idle one.
    reg.noteFetchStart(0xA1);
    src = reg.sourcesFor(d, 0);
    EXPECT_EQ(src[0], 0xA2u);
    reg.noteFetchEnd(0xA1);

    // Served-count spreads repeat fetches.
    reg.noteFetchEnd(0xA1); // counts one completed serve
    src = reg.sourcesFor(d, 0);
    EXPECT_EQ(src[0], 0xA2u) << "fewer total serves ranks first";

    // Self is never offered.
    src = reg.sourcesFor(d, 0xA2);
    ASSERT_EQ(src.size(), 1u);
    EXPECT_EQ(src[0], 0xA1u);
}

TEST(StorePeerRegistry, PoisonAndDeregisterStopOffering)
{
    store::PeerRegistry reg;
    reg.registerPeer(0xA1);
    reg.addChunk(0xA1, 0xD1);
    reg.addChunk(0xA1, 0xD2);
    EXPECT_TRUE(reg.holds(0xA1, 0xD1));

    reg.removeChunk(0xA1, 0xD1);
    EXPECT_FALSE(reg.holds(0xA1, 0xD1));
    EXPECT_TRUE(reg.sourcesFor(0xD1, 0).empty());
    EXPECT_EQ(reg.sourcesFor(0xD2, 0).size(), 1u);

    auto held = reg.deregisterPeer(0xA1);
    ASSERT_EQ(held.size(), 1u);
    EXPECT_EQ(held[0], 0xD2u);
    EXPECT_FALSE(reg.known(0xA1));
    EXPECT_TRUE(reg.sourcesFor(0xD2, 0).empty());
    EXPECT_EQ(reg.peerCount(), 0u);
}

TEST(StorePeerRegistry, DeadPeerReRegistersAsAWarmSourceAgain)
{
    store::PeerRegistry reg;
    const store::Digest d = 0xD7;
    reg.registerPeer(0xA1);
    reg.registerPeer(0xA2);
    reg.addChunk(0xA1, d);
    reg.addChunk(0xA2, d);

    // Seed death: the dead member disappears from every fetch plan.
    auto held = reg.deregisterPeer(0xA1);
    ASSERT_EQ(held.size(), 1u);
    EXPECT_EQ(held[0], d);
    auto src = reg.sourcesFor(d, 0);
    ASSERT_EQ(src.size(), 1u);
    EXPECT_EQ(src[0], 0xA2u) << "a dead peer is never offered";
    EXPECT_FALSE(reg.known(0xA1));
    EXPECT_FALSE(reg.holds(0xA1, d));

    // Re-registration after recovery starts from a clean slate and
    // ranks as a warm source once its chunks are re-announced.
    reg.registerPeer(0xA1);
    EXPECT_TRUE(reg.known(0xA1));
    EXPECT_TRUE(reg.sourcesFor(d, 0xA2).empty())
        << "re-registration alone offers nothing";
    reg.noteFetchEnd(0xA2); // the survivor has served once meanwhile
    reg.addChunk(0xA1, d);
    src = reg.sourcesFor(d, 0);
    ASSERT_EQ(src.size(), 2u);
    EXPECT_EQ(src[0], 0xA1u)
        << "the reborn peer has no serve history, so it ranks first";
}

// --- Deploy-wave chunk claims ---

TEST(StorePeerRegistry, ClaimsDeferOtherNodesUntilAPeerHoldsTheChunk)
{
    store::PeerRegistry reg;
    const store::Digest d = 0xD1;
    for (net::MacAddr m : {0xA1, 0xA2, 0xA3})
        reg.registerPeer(m);

    EXPECT_FALSE(reg.claimedElsewhere(d, 0xA2)) << "nobody claimed it";
    EXPECT_TRUE(reg.claim(d, 0xA1));
    EXPECT_FALSE(reg.claim(d, 0xA2)) << "the first claimer wins";
    EXPECT_TRUE(reg.claim(d, 0xA1)) << "re-claiming is idempotent";
    EXPECT_FALSE(reg.claimedElsewhere(d, 0xA1)) << "own claim";
    EXPECT_TRUE(reg.claimedElsewhere(d, 0xA2));
    EXPECT_TRUE(reg.claimedElsewhere(d, 0xA3));
    EXPECT_FALSE(reg.claimedElsewhere(0xD2, 0xA2));

    // A holder overrides the claim: the chunk can come from a peer.
    reg.addChunk(0xA3, d);
    EXPECT_FALSE(reg.claimedElsewhere(d, 0xA2));
    reg.removeChunk(0xA3, d);
    EXPECT_TRUE(reg.claimedElsewhere(d, 0xA2))
        << "the claimer's claim outlives another node's copy";

    // Only the claimer can drop it.
    reg.unclaim(d, 0xA2);
    EXPECT_TRUE(reg.claimedElsewhere(d, 0xA2));

    // An unknown MAC never becomes a source, so it cannot claim.
    EXPECT_FALSE(reg.claim(0xD3, 0xEE));
    EXPECT_FALSE(reg.claimedElsewhere(0xD3, 0xA1));
}

TEST(StorePeerRegistry, ClaimsClearOnLandReleaseAndPoison)
{
    store::PeerRegistry reg;
    for (net::MacAddr m : {0xA1, 0xA2})
        reg.registerPeer(m);
    for (store::Digest d : {0xD1, 0xD2, 0xD3, 0xD4})
        ASSERT_TRUE(reg.claim(d, 0xA1));

    // Land: the claimer becomes a holder and its claim goes.
    reg.addChunk(0xA1, 0xD1);
    reg.removeChunk(0xA1, 0xD1);
    EXPECT_FALSE(reg.claimedElsewhere(0xD1, 0xA2));
    EXPECT_TRUE(reg.claim(0xD1, 0xA2)) << "the claim was dropped";

    // Poison before landing (the streamer unclaims) and after (the
    // fabric removes the chunk).
    reg.unclaim(0xD2, 0xA1);
    EXPECT_FALSE(reg.claimedElsewhere(0xD2, 0xA2));
    reg.removeChunk(0xA1, 0xD3);
    EXPECT_FALSE(reg.claimedElsewhere(0xD3, 0xA2));

    // Release drops every claim left.
    EXPECT_TRUE(reg.claimedElsewhere(0xD4, 0xA2));
    reg.deregisterPeer(0xA1);
    EXPECT_FALSE(reg.claimedElsewhere(0xD4, 0xA2));
    EXPECT_TRUE(reg.claim(0xD4, 0xA2));
    EXPECT_FALSE(reg.claimedElsewhere(0xD1, 0xA2)) << "own claim";
}

} // namespace
