#include "aoe/server.hh"

#include <algorithm>

#include "simcore/logging.hh"

namespace aoe {

namespace {

/** Backing-store streaming rates (shared by all workers). */
constexpr double kDiskReadMBps = 400.0;
constexpr double kDiskWriteMBps = 300.0;
/** Per-operation backing-store latency. */
constexpr sim::Tick kDiskLatency = 200 * sim::kUs;
/** Seek + rotation when an access does not continue the previous
 *  one (the image lives on a mechanical drive). */
constexpr sim::Tick kDiskSeek = 12 * sim::kMs;
/**
 * Fraction of the media-write time the client still waits for
 * before the ack (file servers ack from the page cache but commit
 * pressure leaks into the client-visible latency).
 */
constexpr double kWriteAckMediaFraction = 0.3;

} // namespace

AoeServer::AoeServer(sim::EventQueue &eq, std::string name,
                     net::Port &port_, ServerParams params)
    : sim::SimObject(eq, std::move(name)),
      port(port_), params_(params),
      rng(sim::Rng::seedFrom(this->name(), 3)),
      workerFreeAt(std::max(1u, params.workers), 0),
      obsTrack_(this->name())
{
    sim::fatalIf(params.workers == 0, "AoE server needs >= 1 worker");
    port.onReceive([this](const net::Frame &f) { onFrame(f); });
}

AoeTarget &
AoeServer::addTarget(std::uint16_t major, std::uint8_t minor,
                     sim::Lba capacity, std::uint64_t image_base)
{
    auto key = std::make_pair(major, minor);
    sim::fatalIf(targets.count(key) > 0, "duplicate AoE target");
    AoeTarget &t = targets[key];
    t.major = major;
    t.minor = minor;
    t.capacity = capacity;
    if (image_base != 0)
        t.store.write(0, capacity, image_base);
    return t;
}

AoeTarget *
AoeServer::findTarget(std::uint16_t major, std::uint8_t minor)
{
    auto it = targets.find(std::make_pair(major, minor));
    return it == targets.end() ? nullptr : &it->second;
}

void
AoeServer::crash()
{
    if (!online_)
        return;
    online_ = false;
    ++epoch_; // orphan every scheduled response / write-back commit
    ++numCrashes;
    queue.clear();
    assemblies.clear();
    liveReads.clear();
    if (obs::armed()) {
        obs::Tracer &t = obs::tracer();
        t.milestone(obsTrack_.id(t), "server.crash", now(),
                    static_cast<double>(epoch_));
    }
    sim::debug(name(), ": crashed at ", now());
}

void
AoeServer::restart()
{
    if (online_)
        return;
    online_ = true;
    ++numRestarts;
    // Cold state: idle workers, empty page cache position, no stall.
    std::fill(workerFreeAt.begin(), workerFreeAt.end(), sim::Tick(0));
    diskFreeAt = 0;
    diskHead = 0;
    stallUntil_ = 0;
    if (obs::armed()) {
        obs::Tracer &t = obs::tracer();
        t.milestone(obsTrack_.id(t), "server.restart", now(),
                    static_cast<double>(epoch_));
    }
    sim::debug(name(), ": restarted at ", now());
}

void
AoeServer::stallFor(sim::Tick d)
{
    stallUntil_ = std::max(stallUntil_, now() + d);
}

void
AoeServer::onFrame(const net::Frame &frame)
{
    if (!online_) {
        ++offlineDrops;
        return;
    }
    if (faults && faults->anyActive()) {
        if (faults->shouldFire(sim::FaultSite::ServerCrash)) {
            crash();
            ++offlineDrops; // the triggering frame dies with us
            // A plan magnitude requests an automatic supervised
            // restart (systemd-style) after that long offline.
            sim::Tick down =
                faults->magnitude(sim::FaultSite::ServerCrash, 0);
            if (down) {
                schedule(down, [this, e = epoch_]() {
                    if (!online_ && epoch_ == e) {
                        restart();
                        faults->noteFired(
                            sim::FaultSite::ServerRestart);
                    }
                });
            }
            return;
        }
        if (faults->shouldFire(sim::FaultSite::ServerStall)) {
            stallFor(faults->magnitude(sim::FaultSite::ServerStall,
                                       100 * sim::kMs));
        }
    }

    auto parsed = parse(frame);
    if (!parsed || parsed->response)
        return;
    Message m = std::move(*parsed);

    if (m.command == kCmdAta && !m.isWrite()) {
        auto live = liveReads.find(RxKey{frame.src, m.tag});
        if (live != liveReads.end() && live->second.lba == m.lba &&
            live->second.totalSectors == m.totalSectors) {
            ++numDupsSuppressed;
            return;
        }
    }

    if (m.command == kCmdAta && m.isWrite()) {
        // Reassemble write fragments; the job is enqueued when the
        // full request has arrived.
        RxKey key{frame.src, m.tag};
        auto &as = assemblies[key];
        if (as.tokens.size() != m.totalSectors) {
            as.tokens.assign(m.totalSectors, 0);
            as.got.assign(m.totalSectors, false);
            as.numGot = 0;
            as.lba = m.lba - m.fragOffset;
        }
        for (std::size_t i = 0; i < m.data.size(); ++i) {
            std::uint32_t idx =
                m.fragOffset + static_cast<std::uint32_t>(i);
            if (idx < as.tokens.size() && !as.got[idx]) {
                as.got[idx] = true;
                as.tokens[idx] = m.data[i];
                ++as.numGot;
            }
        }
        if (as.numGot == as.tokens.size()) {
            Message whole = m;
            whole.lba = as.lba;
            whole.fragOffset = 0;
            whole.sectors = 0;
            whole.data = std::move(as.tokens);
            assemblies.erase(key);
            enqueue(Job{std::move(whole), frame.src});
        }
        return;
    }

    enqueue(Job{std::move(m), frame.src});
}

void
AoeServer::enqueue(Job job)
{
    queue.push_back(std::move(job));
    dispatch();
}

void
AoeServer::dispatch()
{
    while (!queue.empty()) {
        // Work-conserving FIFO over the pool: earliest-free worker.
        unsigned best = 0;
        for (unsigned w = 1; w < workerFreeAt.size(); ++w)
            if (workerFreeAt[w] < workerFreeAt[best])
                best = w;
        Job job = std::move(queue.front());
        queue.pop_front();
        serve(best, std::move(job));
    }
}

sim::Tick
AoeServer::diskOccupy(sim::Lba lba, std::uint32_t sectors,
                      bool is_write, sim::Tick earliest,
                      bool *cache_hit, bool shard_stream)
{
    if (cache_hit)
        *cache_hit = false;
    double rate = (is_write ? kDiskWriteMBps : kDiskReadMBps) * 1e6;
    sim::Bytes bytes = sim::Bytes(sectors) * sim::kSectorSize;
    auto xfer = static_cast<sim::Tick>(
        static_cast<double>(bytes) / rate *
        static_cast<double>(sim::kSec));
    sim::Tick svc = kDiskLatency + xfer;
    if (!is_write && params_.cacheHitRate > 0.0 &&
        rng.chance(params_.cacheHitRate)) {
        // Page-cache hit: no media access. The head position still
        // tracks the logical stream (read-ahead keeps sequential
        // followers seek-free).
        diskHead = lba + sectors;
        if (cache_hit)
            *cache_hit = true;
        return std::max(earliest, now()) + 50 * sim::kUs;
    }
    // Shard slices address the image's logical LBAs, but on disk a
    // stripe member packs only its own slices, back to back: an
    // ascending shard stream is physically sequential even though
    // the logical LBAs it touches have gaps. Only a backward jump
    // (another client's stream rewinding the head) pays the seek.
    if (shard_stream ? lba < diskHead : lba != diskHead)
        svc += kDiskSeek;
    diskHead = lba + sectors;
    sim::Tick start = std::max(earliest, diskFreeAt);
    sim::Tick end = start + svc;
    diskFreeAt = end;
    return end;
}

void
AoeServer::serve(unsigned worker, Job job)
{
    const Message &req = job.request;
    const bool shard = req.command == kCmdShardRead;
    sim::Tick start =
        std::max({now(), workerFreeAt[worker], stallUntil_});

    // Chunk-source timeout: the request is swallowed whole; the
    // initiator's short shard timeout reroutes to another source.
    if (shard && faults && faults->anyActive() &&
        faults->shouldFire(sim::FaultSite::StoreSourceTimeout,
                           req.lba)) {
        return;
    }

    // Service span recorded up front with its (already computable)
    // end tick; ties into the initiator's flow via aoeFlowId.
    auto trace_serve = [&](const char *what, sim::Tick end) {
        if (!obs::armed())
            return;
        obs::Tracer &t = obs::tracer();
        const std::uint32_t track = obsTrack_.id(t);
        const std::uint64_t id = aoeFlowId(job.client, req.tag);
        t.flowStep(track, "aoe", "serve", id, now());
        t.asyncBegin(track, "server", what, id, start);
        t.asyncEnd(track, "server", what, id, end);
    };

    // @p endsLiveRead marks a legacy read's last fragment: sending
    // it retires the read's liveReads entry (unless a newer request
    // under the same tag replaced it).
    auto send_at = [this](sim::Tick when, Message resp,
                          net::MacAddr dst, bool endsLiveRead = false) {
        eventQueue().scheduleAt(
            when, [this, e = epoch_, resp = std::move(resp), dst,
                   endsLiveRead]() {
                if (epoch_ != e)
                    return; // crashed since; response lost
                if (endsLiveRead) {
                    auto it = liveReads.find(RxKey{dst, resp.tag});
                    if (it != liveReads.end() &&
                        it->second.lastFragment == now())
                        liveReads.erase(it);
                }
                port.send(toFrame(resp, dst));
            });
    };

    Message resp;
    resp.response = true;
    resp.major = req.major;
    resp.minor = req.minor;
    resp.command = req.command;
    resp.tag = req.tag;
    resp.ataCmd = req.ataCmd;

    AoeTarget *target = findTarget(req.major, req.minor);

    if (req.command == kCmdDiscover) {
        resp.error = target == nullptr;
        sim::Tick done = start + params_.cpuPerRequest;
        workerFreeAt[worker] = done;
        busyTime += done - start;
        ++numServed;
        trace_serve("discover", done);
        send_at(done, std::move(resp), job.client);
        return;
    }

    if (!target || req.totalSectors == 0 ||
        req.lba + req.totalSectors > target->capacity) {
        resp.error = true;
        sim::Tick done = start + params_.cpuPerRequest;
        workerFreeAt[worker] = done;
        busyTime += done - start;
        send_at(done, std::move(resp), job.client);
        return;
    }

    std::uint32_t count = req.totalSectors;
    sim::Bytes bytes = sim::Bytes(count) * sim::kSectorSize;

    if (req.isWrite()) {
        sim::Tick cpu_done = start + params_.cpuPerRequest;
        // Write-back semantics: the ack goes out once the data is in
        // the server's page cache; the media write proceeds in the
        // background (it still occupies the disk for later readers),
        // with a fraction of the media time leaking into the ack.
        sim::Tick disk_done = diskOccupy(req.lba, count, true, cpu_done);
        sim::Tick ack_at =
            cpu_done + params_.cpuPerFragment +
            static_cast<sim::Tick>(
                static_cast<double>(disk_done - cpu_done) *
                kWriteAckMediaFraction);
        // Commit content at ack time (read-your-writes).  Epoch
        // guard: a crash before the ack loses the dirty data.
        eventQueue().scheduleAt(ack_at, [this, e = epoch_, target,
                                         req]() {
            if (epoch_ != e)
                return;
            // Coalesce token runs exactly as a DMA write would.
            std::uint64_t run_base = 0;
            sim::Lba run_start = 0;
            std::uint32_t run_len = 0;
            auto flush = [&]() {
                if (run_len)
                    target->store.write(run_start, run_len, run_base);
                run_len = 0;
            };
            for (std::size_t i = 0; i < req.data.size(); ++i) {
                sim::Lba lba = req.lba + i;
                std::uint64_t base =
                    hw::baseFromToken(req.data[i], lba);
                if (run_len && base == run_base &&
                    run_start + run_len == lba) {
                    ++run_len;
                } else {
                    flush();
                    run_base = base;
                    run_start = lba;
                    run_len = 1;
                }
            }
            flush();
        });
        workerFreeAt[worker] = ack_at;
        busyTime += params_.cpuPerRequest + params_.cpuPerFragment;
        ++numServed;
        trace_serve("serve_write", ack_at);
        resp.sectors = 0;
        send_at(ack_at, std::move(resp), job.client);
        return;
    }

    // Read: CPU, then the response fragments stream out as the
    // backing store delivers them (sendfile-style overlap of disk
    // and wire — real vblade does not buffer the whole request).
    sim::Tick cpu_done = start + params_.cpuPerRequest;
    bool cache_hit = false;
    sim::Tick disk_done =
        diskOccupy(req.lba, count, false, cpu_done, &cache_hit, shard);
    double rate = kDiskReadMBps * 1e6;

    std::uint32_t per_frame = sectorsPerFrame(port.config().mtu);
    sim::Tick t = cpu_done;
    auto transfer = static_cast<sim::Tick>(
        static_cast<double>(sim::Bytes(count) * sim::kSectorSize) /
        rate * static_cast<double>(sim::kSec));
    sim::Tick first_block =
        disk_done > transfer ? disk_done - transfer : disk_done;
    for (std::uint32_t off = 0; off < count; off += per_frame) {
        std::uint32_t n = std::min(per_frame, count - off);
        Message frag = resp;
        frag.lba = req.lba + off;
        frag.sectors = static_cast<std::uint16_t>(n);
        frag.fragOffset = off;
        frag.totalSectors = count;
        frag.data.resize(n);
        for (std::uint32_t i = 0; i < n; ++i)
            frag.data[i] = target->store.tokenAt(req.lba + off + i);
        if (shard) {
            frag.digest = digestTokens(frag.data);
            // Injected media/DMA damage *after* digesting models
            // corruption the digest is there to catch.
            if (faults && faults->anyActive() &&
                faults->shouldFire(sim::FaultSite::StoreShardCorrupt,
                                   frag.lba)) {
                frag.data[0] ^= 0xBAD0BAD0BAD0BAD0ULL;
            }
        }
        sim::Tick data_ready =
            cache_hit ? disk_done
                      : first_block +
                            static_cast<sim::Tick>(
                                static_cast<double>(
                                    sim::Bytes(off + n) *
                                    sim::kSectorSize) /
                                rate * static_cast<double>(sim::kSec));
        t = std::max(t, data_ready) + params_.cpuPerFragment;
        send_at(t, std::move(frag), job.client,
                !shard && off + n == count);
    }
    if (!shard)
        liveReads[RxKey{job.client, req.tag}] =
            LiveRead{req.lba, count, t};
    workerFreeAt[worker] = t;
    busyTime += params_.cpuPerRequest +
                sim::Tick((count + per_frame - 1) / per_frame) *
                    params_.cpuPerFragment;
    ++numServed;
    bytesOut += bytes;
    trace_serve("serve_read", t);
}

} // namespace aoe
