#include "store/streamer.hh"

#include <algorithm>

#include "simcore/logging.hh"

namespace store {

namespace {

/** Failed attempts on a piece before backing off to a timed retry. */
constexpr unsigned kMaxPieceAttempts = 32;

/** Retry delay when no source set can currently serve a chunk. */
constexpr sim::Tick kNoSourceRetry = 250 * sim::kMs;

/** How long a failed source stays deprioritized. */
constexpr sim::Tick kSuspectTtl = 2 * sim::kSec;

} // namespace

ChunkStreamer::ChunkStreamer(sim::EventQueue &eq, std::string name,
                             aoe::AoeInitiator &aoe, StoreFabric &fabric,
                             std::string image, net::MacAddr self_mac,
                             sim::Lba image_sectors)
    : sim::SimObject(eq, std::move(name)), aoe_(aoe), fabric_(fabric),
      image_(std::move(image)), self_(self_mac),
      imageSectors_(image_sectors), obsTrack_(this->name())
{
    sim::fatalIf(fabric_.catalog().find(image_) == nullptr,
                 "streamer for unknown image ", image_);
}

void
ChunkStreamer::fetch(sim::Lba lba, std::uint32_t count, FetchDone done,
                     bool background)
{
    sim::panicIfNot(count > 0 && lba + count <= imageSectors_,
                    "store fetch outside the image");
    auto op = std::make_shared<FetchOp>();
    op->lba = lba;
    op->count = count;
    op->tokens.resize(count);
    op->done = std::move(done);

    // Cut the range at chunk boundaries.
    std::vector<Piece> pieces;
    sim::Lba pos = lba;
    sim::Lba end = lba + count;
    while (pos < end) {
        std::size_t idx = chunkIndexOf(pos);
        sim::Lba chunk_end = chunkStartLba(idx) + kChunkSectors;
        sim::Lba piece_end = std::min(end, chunk_end);
        auto n = static_cast<std::uint32_t>(piece_end - pos);
        bool whole = background && n == chunkSpan(idx);
        if (whole)
            claim(idx);
        pieces.push_back(Piece{pos, n, idx, whole});
        pos = piece_end;
    }
    op->remaining = pieces.size();
    for (const Piece &p : pieces) {
        if (gate_ && background) {
            // Bulk traffic books each piece against the deployment
            // budget at issue; retries are not re-charged (the bytes
            // were already granted).
            sim::Tick start =
                gate_(sim::Bytes(p.count) * sim::kSectorSize, now());
            if (start > now()) {
                ++gateWaits_;
                schedule(start - now(), [this, op, p]() {
                    startPiece(op, p, 0);
                });
                continue;
            }
        }
        startPiece(op, p, 0);
    }
}

void
ChunkStreamer::startPiece(const std::shared_ptr<FetchOp> &op,
                          Piece piece, unsigned attempts)
{
    if (halted_)
        return;
    if (attempts >= kMaxPieceAttempts) {
        // Everything reachable failed repeatedly; pause and retry
        // fresh (sources may restart or lose their suspect mark).
        ++stalls_;
        schedule(kNoSourceRetry,
                 [this, op, piece]() { startPiece(op, piece, 0); });
        return;
    }

    Digest d = fabric_.catalog().digestAt(image_, piece.chunkIdx);

    // Warm peers first.
    for (net::MacAddr peer : fabric_.peers().sourcesFor(d, self_)) {
        if (live(peer)) {
            fetchFromPeer(op, piece, attempts, peer);
            return;
        }
    }
    fetchFromSeeds(op, piece, attempts);
}

void
ChunkStreamer::fetchFromPeer(const std::shared_ptr<FetchOp> &op,
                             Piece piece, unsigned attempts,
                             net::MacAddr peer)
{
    fabric_.peers().noteFetchStart(peer);
    aoe_.readSectorsVia(
        peer, piece.lba, piece.count,
        [this, op, piece, attempts, peer](
            aoe::RoutedStatus st,
            const std::vector<std::uint64_t> &tokens) {
            fabric_.peers().noteFetchEnd(peer);
            if (halted_)
                return;
            if (st == aoe::RoutedStatus::Ok) {
                if (peerHits_++ == 0 && obs::armed()) {
                    obs::Tracer &t = obs::tracer();
                    t.milestone(obsTrack_.id(t),
                                "store.peer_tier_engaged", now(), 1.0);
                }
                commit(op, piece, tokens);
                return;
            }
            ++sourceFailures_;
            suspect(peer);
            startPiece(op, piece, attempts + 1);
        });
}

void
ChunkStreamer::fetchFromSeeds(const std::shared_ptr<FetchOp> &op,
                              Piece piece, unsigned attempts)
{
    Digest d = fabric_.catalog().digestAt(image_, piece.chunkIdx);
    auto plan = fabric_.placement().readPlanFor(
        d, [this](net::MacAddr mac) { return live(mac); },
        piece.count);
    if (!plan) {
        // Too few stripe members reachable: the chunk cannot be
        // reconstructed right now.  Park the piece and retry.
        ++stalls_;
        schedule(kNoSourceRetry,
                 [this, op, piece]() { startPiece(op, piece, 0); });
        return;
    }

    // Execute the code's plan DAG: issue the fetch steps (their
    // sector counts tile the piece), then pay the summed combine
    // cost before the data is usable.
    struct Joined
    {
        std::vector<std::uint64_t> tokens;
        std::size_t remaining = 0;
        bool failed = false;
    };
    auto join = std::make_shared<Joined>();
    join->tokens.resize(piece.count);

    const bool reconstructed = plan->degraded();
    const sim::Tick combine = plan->combineCost();

    struct Slice
    {
        net::MacAddr src;
        sim::Lba lba;
        std::uint32_t off;
        std::uint32_t count;
    };
    std::vector<Slice> slices;
    std::uint32_t off = 0;
    for (const ec::PlanStep &step : plan->steps) {
        if (step.op != ec::StepOp::Fetch)
            continue;
        slices.push_back(
            Slice{step.source, piece.lba + off, off, step.sectors});
        off += step.sectors;
    }
    join->remaining = slices.size();

    for (const Slice &s : slices) {
        aoe_.readSectorsVia(
            s.src, s.lba, s.count,
            [this, op, piece, attempts, join, s, reconstructed,
             combine](
                aoe::RoutedStatus st,
                const std::vector<std::uint64_t> &tokens) {
                if (halted_)
                    return;
                if (st != aoe::RoutedStatus::Ok) {
                    ++sourceFailures_;
                    suspect(s.src);
                    if (!join->failed) {
                        // First failing slice re-plans the piece; the
                        // surviving slices' data is discarded (a real
                        // decoder needs k complete shards).
                        join->failed = true;
                        startPiece(op, piece, attempts + 1);
                    }
                    return;
                }
                if (join->failed)
                    return;
                std::copy(tokens.begin(), tokens.end(),
                          join->tokens.begin() + s.off);
                if (--join->remaining > 0)
                    return;
                ++seedFetches_;
                if (piece.wholeBackground)
                    ++chunkSeedFetches_;
                if (reconstructed) {
                    if (reconstructions_++ == 0 && obs::armed()) {
                        obs::Tracer &t = obs::tracer();
                        t.milestone(obsTrack_.id(t),
                                    "store.reconstruction", now(),
                                    1.0);
                    }
                    // Model the plan's combine steps (XOR peel / GF
                    // decode) before the data is usable.
                    schedule(combine, [this, op, piece, join]() {
                        if (!halted_)
                            commit(op, piece, join->tokens);
                    });
                    return;
                }
                commit(op, piece, join->tokens);
            });
    }
}

void
ChunkStreamer::commit(const std::shared_ptr<FetchOp> &op,
                      const Piece &piece,
                      const std::vector<std::uint64_t> &tokens)
{
    std::copy(tokens.begin(), tokens.end(),
              op->tokens.begin() + (piece.lba - op->lba));
    if (--op->remaining == 0 && op->done)
        op->done(op->tokens);
}

void
ChunkStreamer::suspect(net::MacAddr mac)
{
    suspectUntil_[mac] = now() + kSuspectTtl;
}

bool
ChunkStreamer::live(net::MacAddr mac)
{
    auto it = suspectUntil_.find(mac);
    if (it != suspectUntil_.end()) {
        if (now() < it->second)
            return false;
        suspectUntil_.erase(it);
    }
    return fabric_.sourceUp(mac);
}

void
ChunkStreamer::noteLocalWrite(sim::Lba lba, std::uint32_t count)
{
    sim::Lba end = std::min<sim::Lba>(lba + count, imageSectors_);
    sim::Lba pos = std::min<sim::Lba>(lba, end);
    while (pos < end) {
        std::size_t idx = chunkIndexOf(pos);
        sim::Lba chunk_end = std::min<sim::Lba>(
            chunkStartLba(idx) + kChunkSectors, imageSectors_);
        sim::Lba seg_end = std::min(end, chunk_end);
        ChunkState &cs = chunkState_[idx];
        cs.landed += static_cast<std::uint32_t>(seg_end - pos);
        if (cs.state == 0 && cs.landed >= chunkSpan(idx)) {
            cs.state = 1;
            fabric_.noteChunkLanded(self_, image_, idx);
        }
        pos = seg_end;
    }
}

void
ChunkStreamer::notePoisoned(sim::Lba lba, std::uint32_t count)
{
    if (count == 0)
        return;
    std::size_t first = chunkIndexOf(lba);
    std::size_t last = chunkIndexOf(
        std::min<sim::Lba>(lba + count - 1, imageSectors_ - 1));
    for (std::size_t idx = first; idx <= last; ++idx) {
        ChunkState &cs = chunkState_[idx];
        if (cs.state == 1)
            fabric_.dropChunk(self_, image_, idx);
        else if (cs.state == 0)
            fabric_.peers().unclaim(
                fabric_.catalog().digestAt(image_, idx), self_);
        cs.state = 2;
    }
}

void
ChunkStreamer::claim(std::size_t idx)
{
    auto cs = chunkState_.find(idx);
    if (cs != chunkState_.end() && cs->second.state == 2)
        return; // poisoned: this node will never offer it
    PeerRegistry &reg = fabric_.peers();
    Digest d = fabric_.catalog().digestAt(image_, idx);
    if (reg.claimedElsewhere(d, self_))
        ++fallbackPicks_;
    reg.claim(d, self_);
}

bool
ChunkStreamer::claimedElsewhere(sim::Lba lba)
{
    Digest d = fabric_.catalog().digestAt(image_, chunkIndexOf(lba));
    if (!fabric_.peers().claimedElsewhere(d, self_))
        return false;
    ++deferredPicks_;
    return true;
}

std::uint32_t
ChunkStreamer::chunkSpan(std::size_t idx) const
{
    sim::Lba start = chunkStartLba(idx);
    return static_cast<std::uint32_t>(
        std::min<sim::Lba>(start + kChunkSectors, imageSectors_) -
        start);
}

} // namespace store
