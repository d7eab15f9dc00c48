/**
 * @file
 * End-to-end deployments through the bmcast::store tier: byte-exact
 * flat and overlay deployments, peer-assisted streaming on repeat
 * deployments, k-of-n reconstruction with a seed server down, the
 * release path returning a peer's chunks to the store while fetches
 * are in flight, and tick-identity of the disabled store against the
 * legacy single-server path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bmcast/cloud.hh"
#include "hw/disk_store.hh"
#include "store/streamer.hh"

namespace {

constexpr std::uint64_t kBase = 0xAAAA000000000001ULL;
constexpr std::uint64_t kDelta = 0xDDDD000000000001ULL;
constexpr sim::Bytes kImageBytes = 32 * sim::kMiB;
constexpr sim::Lba kImageSectors = kImageBytes / sim::kSectorSize;

template <typename Pred>
bool
runUntil(sim::EventQueue &eq, sim::Tick deadline, Pred p)
{
    eq.stepWhile([&]() { return !p() && eq.now() < deadline; });
    return p();
}

bmcast::CloudConfig
storeConfig(unsigned machines)
{
    bmcast::CloudConfig cfg;
    cfg.machines = machines;
    cfg.machineTemplate.disk.capacityBytes = 2 * sim::kGiB;
    cfg.vmm.bootTime = 5 * sim::kSec;
    cfg.vmm.moderation.vmmWriteInterval = 2 * sim::kMs;
    cfg.vmm.moderation.guestIoFreqThreshold = 1e9;
    cfg.guestTemplate.boot.loaderBytes = 1 * sim::kMiB;
    cfg.guestTemplate.boot.kernelBytes = 4 * sim::kMiB;
    cfg.guestTemplate.boot.numReads = 40;
    cfg.guestTemplate.boot.cpuTotal = 500 * sim::kMs;
    cfg.guestTemplate.boot.regionBytes = 16 * sim::kMiB;
    cfg.store.enabled = true;
    cfg.store.seedServers = 4;
    cfg.store.dataShards = 2;
    cfg.store.parityShards = 2;
    return cfg;
}

bool
bareMetal(bmcast::Instance *i)
{
    return i->state() == bmcast::Instance::State::BareMetal;
}

store::ChunkStreamer *
streamerOf(bmcast::Instance *i)
{
    return i->deployer().vmm().streamer();
}

TEST(StoreDeploy, FlatImageDeploysByteIdentical)
{
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", storeConfig(1));
    cloud.addImage("img", kImageBytes, kBase);

    bmcast::Instance *a = cloud.provision("img", nullptr);
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(runUntil(eq, 40000 * sim::kSec,
                         [&]() { return bareMetal(a); }));

    EXPECT_TRUE(a->machine().disk().store().rangeHasBase(
        0, kImageSectors, kBase));
    EXPECT_TRUE(cloud.storeFabric()->catalog().verifyDisk(
        "img", a->machine().disk().store()));

    store::ChunkStreamer *s = streamerOf(a);
    ASSERT_NE(s, nullptr);
    EXPECT_GT(s->seedFetches(), 0u) << "all data came from the stripe";
    EXPECT_EQ(s->peerHits(), 0u) << "no warm peer existed yet";
    EXPECT_EQ(s->reconstructions(), 0u) << "every seed was healthy";

    // The completed node registered its chunks as a peer source.
    EXPECT_EQ(cloud.storeFabric()->stats().registeredChunks,
              store::chunkCount(kImageSectors));
}

TEST(StoreDeploy, SecondDeploymentStreamsFromWarmPeer)
{
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", storeConfig(2));
    cloud.addImage("img", kImageBytes, kBase);

    bmcast::Instance *a = cloud.provision("img", nullptr);
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(runUntil(eq, 40000 * sim::kSec,
                         [&]() { return bareMetal(a); }));

    bmcast::Instance *b = cloud.provision("img", nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_TRUE(runUntil(eq, 80000 * sim::kSec,
                         [&]() { return bareMetal(b); }));

    store::ChunkStreamer *bs = streamerOf(b);
    ASSERT_NE(bs, nullptr);
    EXPECT_GT(bs->peerHits(), 0u)
        << "the second deployment must stream from the warm peer";
    EXPECT_TRUE(cloud.storeFabric()->catalog().verifyDisk(
        "img", b->machine().disk().store()));
    EXPECT_TRUE(b->machine().disk().store().rangeHasBase(
        0, kImageSectors, kBase));
}

TEST(StoreDeploy, SeedServerDownReconstructsKofN)
{
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", storeConfig(1));
    cloud.addImage("img", kImageBytes, kBase);

    // Take down one stripe member before anything is fetched; every
    // chunk whose data members include it must reconstruct via a
    // parity substitute instead of stalling.
    cloud
        .seedServer(
            static_cast<unsigned>(cloud.seedServerCount() - 1))
        .crash();

    bmcast::Instance *a = cloud.provision("img", nullptr);
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(runUntil(eq, 40000 * sim::kSec,
                         [&]() { return bareMetal(a); }))
        << "a single seed loss must not stall the deployment";

    store::ChunkStreamer *s = streamerOf(a);
    ASSERT_NE(s, nullptr);
    EXPECT_GT(s->reconstructions(), 0u);
    EXPECT_TRUE(a->machine().disk().store().rangeHasBase(
        0, kImageSectors, kBase));
    EXPECT_TRUE(cloud.storeFabric()->catalog().verifyDisk(
        "img", a->machine().disk().store()));
}

TEST(StoreDeploy, ReleasedPeerMidFetchFailsOverToStripe)
{
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", storeConfig(2));
    cloud.addImage("img", kImageBytes, kBase);

    bmcast::Instance *a = cloud.provision("img", nullptr);
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(runUntil(eq, 40000 * sim::kSec,
                         [&]() { return bareMetal(a); }));

    // Start the second deployment and wait until it actively streams
    // from the warm peer...
    bmcast::Instance *b = cloud.provision("img", nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_TRUE(runUntil(eq, 80000 * sim::kSec, [&]() {
        store::ChunkStreamer *bs = streamerOf(b);
        return bs && bs->peerHits() > 0;
    }));

    // ...then yank the peer: release returns its cached chunks to the
    // store and takes its exporter offline with fetches in flight.
    cloud.releaseLease(a->lease());
    EXPECT_GT(cloud.storeFabric()->stats().releasedChunks, 0u);

    ASSERT_TRUE(runUntil(eq, 80000 * sim::kSec,
                         [&]() { return bareMetal(b); }))
        << "k-of-n reconstruction must take over for the dead peer";
    EXPECT_TRUE(b->machine().disk().store().rangeHasBase(
        0, kImageSectors, kBase));
    EXPECT_TRUE(cloud.storeFabric()->catalog().verifyDisk(
        "img", b->machine().disk().store()));
}

TEST(StoreDeploy, OverlayImageDeploysByteIdenticalAndDedups)
{
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", storeConfig(1));
    cloud.addImage("base", kImageBytes, kBase);

    // One delta inside a chunk, one straddling a chunk boundary.
    std::vector<store::DeltaRun> deltas{
        {5 * store::kChunkSectors + 17, 96, kDelta},
        {3 * store::kChunkSectors - 32, 64, kDelta + 1},
    };
    cloud.addOverlayImage("ovl", "base", deltas);

    // The family shares every untouched chunk: 3 chunks carry deltas.
    std::size_t base_chunks = store::chunkCount(kImageSectors);
    EXPECT_EQ(cloud.storeFabric()->chunkStore().uniqueChunks(),
              base_chunks + 3);

    bmcast::Instance *a = cloud.provision("ovl", nullptr);
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(runUntil(eq, 40000 * sim::kSec,
                         [&]() { return bareMetal(a); }));

    const hw::DiskStore &disk = a->machine().disk().store();
    EXPECT_TRUE(cloud.storeFabric()->catalog().verifyDisk("ovl", disk));
    for (const auto &d : deltas)
        EXPECT_TRUE(disk.rangeHasBase(d.lba, d.count, d.base));
    EXPECT_TRUE(disk.rangeHasBase(0, store::kChunkSectors, kBase));
}

/** Seed-stripe pieces of a deploy wave, split by kind. */
struct WaveFetches
{
    std::uint64_t backgroundChunks = 0; //!< background, whole chunk
    std::uint64_t other = 0;            //!< demand or partial pieces
    std::uint64_t deferred = 0;
    std::uint64_t fallback = 0;
};

WaveFetches
waveFetches(const std::vector<bmcast::Instance *> &wave)
{
    WaveFetches f;
    for (bmcast::Instance *i : wave) {
        const store::ChunkStreamer *s = streamerOf(i);
        f.backgroundChunks += s->chunkSeedFetches();
        f.other += s->seedFetches() - s->chunkSeedFetches();
        f.deferred += s->deferredPicks();
        f.fallback += s->fallbackPicks();
    }
    return f;
}

TEST(StoreDeploy, WaveAtTimeZeroFetchesEachChunkFromTheStripeOnce)
{
    // Four nodes power on in the same tick and boot the same image:
    // every retriever starts at LBA 0 and the identical boot reads
    // pull every cursor to the same places. Claims must keep them
    // from all pulling the same chunk off the stripe.
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", storeConfig(4));
    cloud.addImage("img", kImageBytes, kBase);
    std::vector<bmcast::Instance *> wave;
    for (int n = 0; n < 4; ++n) {
        wave.push_back(cloud.provision("img", nullptr));
        ASSERT_NE(wave.back(), nullptr);
    }
    ASSERT_TRUE(runUntil(eq, 40000 * sim::kSec, [&]() {
        return std::all_of(wave.begin(), wave.end(), bareMetal);
    }));
    for (bmcast::Instance *i : wave)
        EXPECT_TRUE(cloud.storeFabric()->catalog().verifyDisk(
            "img", i->machine().disk().store()));

    WaveFetches f = waveFetches(wave);
    RecordProperty("background_chunk_seed_fetches",
                   std::to_string(f.backgroundChunks));
    RecordProperty("other_seed_fetches", std::to_string(f.other));
    RecordProperty("deferred_picks", std::to_string(f.deferred));
    RecordProperty("fallback_picks", std::to_string(f.fallback));
    EXPECT_LE(f.backgroundChunks, store::chunkCount(kImageSectors))
        << "the wave fetched some chunk off the stripe twice";
    EXPECT_GT(f.deferred, 0u) << "the retrievers never met";
}

TEST(StoreDeploy, WaveSurvivesAClaimerReleasedMidDeploy)
{
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", storeConfig(4));
    cloud.addImage("img", kImageBytes, kBase);
    std::vector<bmcast::Instance *> wave;
    for (int n = 0; n < 4; ++n) {
        wave.push_back(cloud.provision("img", nullptr));
        ASSERT_NE(wave.back(), nullptr);
    }
    // Wait until the others have deferred chunks the first node is
    // fetching, then release it with those claims outstanding.
    bmcast::Instance *gone = wave.front();
    ASSERT_TRUE(runUntil(eq, 40000 * sim::kSec, [&]() {
        return streamerOf(gone) &&
               streamerOf(gone)->chunkSeedFetches() > 4 &&
               waveFetches({wave.begin() + 1, wave.end()}).deferred > 0;
    }));
    ASSERT_FALSE(bareMetal(gone));
    cloud.releaseLease(gone->lease());
    wave.erase(wave.begin());

    ASSERT_TRUE(runUntil(eq, 40000 * sim::kSec, [&]() {
        return std::all_of(wave.begin(), wave.end(), bareMetal);
    })) << "a released claimer stranded a chunk";
    for (bmcast::Instance *i : wave)
        EXPECT_TRUE(cloud.storeFabric()->catalog().verifyDisk(
            "img", i->machine().disk().store()));
}

TEST(StoreDeploy, PoisonDropsTheClaimsOfChunksNotLanded)
{
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", storeConfig(1));
    cloud.addImage("img", kImageBytes, kBase);
    bmcast::Instance *a = cloud.provision("img", nullptr);
    ASSERT_NE(a, nullptr);
    const store::StoreFabric &fabric = *cloud.storeFabric();
    // Chunks someone claimed that no peer holds yet (MAC 0 is no
    // node, so every claim counts as elsewhere).
    auto outstanding = [&]() {
        const store::ImageDesc *img = fabric.catalog().find("img");
        return std::count_if(
            img->chunks.begin(), img->chunks.end(),
            [&](store::Digest d) {
                return fabric.peerRegistry().claimedElsewhere(d, 0);
            });
    };
    ASSERT_TRUE(runUntil(eq, 40000 * sim::kSec,
                         [&]() { return outstanding() > 0; }));

    streamerOf(a)->notePoisoned(0, kImageSectors);
    EXPECT_EQ(outstanding(), 0) << "a poisoned chunk kept its claim";
    ASSERT_TRUE(runUntil(eq, 40000 * sim::kSec,
                         [&]() { return bareMetal(a); }));
    EXPECT_EQ(outstanding(), 0);
    EXPECT_TRUE(fabric.catalog().verifyDisk(
        "img", a->machine().disk().store()));
}

TEST(StoreDisabled, TickIdenticalToLegacyPath)
{
    // The store-off guard: a config with every store knob touched but
    // enabled=false must replay the legacy single-server deployment
    // tick for tick.
    auto run = [](bool touched) {
        sim::EventQueue eq;
        bmcast::CloudConfig cfg = storeConfig(1);
        cfg.store = store::StoreParams{};
        if (touched) {
            cfg.store.seedServers = 5;
            cfg.store.dataShards = 3;
            cfg.store.parityShards = 1;
            cfg.store.shardMinTimeout = 7 * sim::kMs;
        }
        bmcast::Cloud cloud(eq, "region", cfg);
        cloud.addImage("img", kImageBytes, kBase);
        bmcast::Instance *a = cloud.provision("img", nullptr);
        EXPECT_TRUE(runUntil(eq, 40000 * sim::kSec, [&]() {
            return a->state() == bmcast::Instance::State::BareMetal;
        }));
        EXPECT_EQ(a->deployer().vmm().streamer(), nullptr);
        return std::make_pair(eq.executed(), eq.now());
    };
    auto legacy = run(false);
    auto disabled = run(true);
    EXPECT_EQ(legacy.first, disabled.first);
    EXPECT_EQ(legacy.second, disabled.second);
}

} // namespace
