#include "aoe/initiator.hh"

#include <algorithm>

#include "hw/disk_store.hh"
#include "simcore/logging.hh"

namespace aoe {

namespace {

/** Per-request cap (2048 sectors = 1 MiB). */
constexpr std::uint32_t kMaxSectorsPerRequest = 2048;
/** Retries before each loud warning. */
constexpr int kWarnEveryRetries = 10;
/** Routed (store) reads fail fast after this many retries: the
 *  streamer has other sources to try. */
constexpr int kShardMaxRetries = 2;

} // namespace

AoeInitiator::AoeInitiator(sim::EventQueue &eq, std::string name,
                           net::L2Endpoint &nic_, net::MacAddr server_mac,
                           InitiatorParams params_)
    : sim::SimObject(eq, std::move(name)),
      nic(nic_), server(server_mac), params(params_),
      rng(sim::Rng::seedFrom(this->name() + ".backoff", params_.seed)),
      obsTrack_(this->name())
{
    nic.setRxHandler([this](const net::Frame &f) { onFrame(f); });
}

void
AoeInitiator::readSectors(sim::Lba lba, std::uint32_t count,
                          ReadCallback done)
{
    sim::panicIfNot(count > 0, "zero-sector AoE read");
    auto call = std::make_shared<Call>();
    call->tokens.resize(count);
    call->readDone = std::move(done);
    call->remainingRequests =
        (count + kMaxSectorsPerRequest - 1) / kMaxSectorsPerRequest;

    std::uint32_t off = 0;
    while (off < count) {
        std::uint32_t n = std::min(kMaxSectorsPerRequest, count - off);
        issue(false, lba + off, n, call, off);
        off += n;
    }
}

void
AoeInitiator::writeSectors(sim::Lba lba,
                           std::vector<std::uint64_t> tokens,
                           WriteCallback done)
{
    sim::panicIfNot(!tokens.empty(), "zero-sector AoE write");
    auto count = static_cast<std::uint32_t>(tokens.size());
    auto call = std::make_shared<Call>();
    call->tokens = std::move(tokens);
    call->writeDone = std::move(done);
    call->remainingRequests =
        (count + kMaxSectorsPerRequest - 1) / kMaxSectorsPerRequest;

    std::uint32_t off = 0;
    while (off < count) {
        std::uint32_t n = std::min(kMaxSectorsPerRequest, count - off);
        issue(true, lba + off, n, call, off);
        off += n;
    }
}

void
AoeInitiator::writeRange(sim::Lba lba, std::uint32_t count,
                         std::uint64_t content_base, WriteCallback done)
{
    std::vector<std::uint64_t> tokens(count);
    for (std::uint32_t i = 0; i < count; ++i)
        tokens[i] = hw::sectorToken(content_base, lba + i);
    writeSectors(lba, std::move(tokens), std::move(done));
}

void
AoeInitiator::readSectorsVia(net::MacAddr source, sim::Lba lba,
                             std::uint32_t count, RoutedReadCallback done)
{
    sim::panicIfNot(count > 0 && count <= kMaxSectorsPerRequest,
                    "routed read must fit one request");
    std::uint32_t tag = nextTag++;
    Pending p;
    p.lba = lba;
    p.count = count;
    p.dest = source;
    p.routedDone = std::move(done);
    p.rxTokens.resize(count);
    p.got.assign(count, false);
    auto [it, ok] = pending.emplace(tag, std::move(p));
    sim::panicIfNot(ok, "AoE tag collision");
    ++numRequests;
    if (obs::armed()) {
        obs::Tracer &t = obs::tracer();
        t.asyncBegin(obsTrack_.id(t), "aoe", "shard_read",
                     obsFlowId(tag), now());
    }
    sendRequest(tag, it->second);
}

void
AoeInitiator::shutdown()
{
    for (auto &[tag, p] : pending)
        eventQueue().cancel(p.timer);
    pending.clear();
    discoverPending.clear();
}

void
AoeInitiator::discover(DiscoverCallback done)
{
    std::uint32_t tag = nextTag++;
    discoverPending[tag] = std::move(done);

    Message m;
    m.command = kCmdDiscover;
    m.major = params.major;
    m.minor = params.minor;
    m.tag = tag;
    nic.sendFrame(toFrame(m, server));

    schedule(50 * sim::kMs, [this, tag]() {
        auto it = discoverPending.find(tag);
        if (it != discoverPending.end()) {
            auto cb = std::move(it->second);
            discoverPending.erase(it);
            cb(false);
        }
    });
}

void
AoeInitiator::issue(bool is_write, sim::Lba lba, std::uint32_t count,
                    std::shared_ptr<Call> call, std::uint32_t offset)
{
    std::uint32_t tag = nextTag++;
    Pending p;
    p.isWrite = is_write;
    p.lba = lba;
    p.count = count;
    p.call = std::move(call);
    p.callOffset = offset;
    if (!is_write) {
        p.rxTokens.resize(count);
        p.got.assign(count, false);
    }
    auto [it, ok] = pending.emplace(tag, std::move(p));
    sim::panicIfNot(ok, "AoE tag collision");
    ++numRequests;
    if (obs::armed()) {
        obs::Tracer &t = obs::tracer();
        t.asyncBegin(obsTrack_.id(t), "aoe",
                     is_write ? "write" : "read", obsFlowId(tag),
                     now());
    }
    sendRequest(tag, it->second);
}

void
AoeInitiator::sendRequest(std::uint32_t tag, Pending &p)
{
    p.lastSent = now();
    if (obs::armed()) {
        obs::Tracer &t = obs::tracer();
        t.flowBegin(obsTrack_.id(t), "aoe", "request",
                    obsFlowId(tag), now());
    }
    std::uint32_t per_frame = sectorsPerFrame(nic.mtu());

    if (!p.isWrite) {
        // A read request is a single header-only frame; the server
        // fragments the response.
        Message m;
        m.major = params.major;
        m.minor = params.minor;
        m.tag = tag;
        m.command = p.dest ? kCmdShardRead : kCmdAta;
        m.ataCmd = 0x25; // READ DMA EXT register image
        m.lba = p.lba;
        m.sectors = static_cast<std::uint16_t>(
            std::min<std::uint32_t>(p.count, 0xFFFF));
        m.totalSectors = p.count;
        nic.sendFrame(toFrame(m, p.dest ? p.dest : server));
    } else {
        // Write data travels in request fragments.
        for (std::uint32_t off = 0; off < p.count; off += per_frame) {
            std::uint32_t n = std::min(per_frame, p.count - off);
            Message m;
            m.major = params.major;
            m.minor = params.minor;
            m.tag = tag;
            m.ataCmd = 0x35; // WRITE DMA EXT register image
            m.lba = p.lba + off;
            m.sectors = static_cast<std::uint16_t>(n);
            m.fragOffset = off;
            m.totalSectors = p.count;
            m.data.assign(p.call->tokens.begin() + p.callOffset + off,
                          p.call->tokens.begin() + p.callOffset + off +
                              n);
            nic.sendFrame(toFrame(m, server));
        }
    }
    armTimer(tag, p);
}

sim::Tick
AoeInitiator::timeout(Pending &p)
{
    sim::Tick floor = p.dest ? params.shardMinTimeout : params.minTimeout;
    sim::Tick base = std::max(floor, 4 * rttEma);
    // Exponential backoff, capped.
    int shift = std::min(p.retries, 6);
    sim::Tick t = base << shift;
    // Decorrelation jitter (up to +25%) so parallel requests doomed
    // by the same outage do not retransmit in lockstep.  Drawn only
    // on retransmissions: fault-free runs consume no randomness here.
    if (p.retries > 0)
        t += rng.uniformInt(0, t / 4);
    return t;
}

void
AoeInitiator::armTimer(std::uint32_t tag, Pending &p)
{
    eventQueue().cancel(p.timer);
    p.timer = schedule(timeout(p), [this, tag]() { onTimeout(tag); });
}

void
AoeInitiator::retarget(net::MacAddr new_server)
{
    server = new_server;
    if (obs::armed()) {
        obs::Tracer &t = obs::tracer();
        t.milestone(obsTrack_.id(t), "aoe.retarget", now(),
                    static_cast<double>(pending.size()));
    }
    // Everything in flight was addressed to the dead server; resend
    // it all to the new one with a fresh budget.  Routed reads are
    // pinned to their explicit source and handle failure themselves.
    for (auto &[tag, p] : pending) {
        if (p.dest != 0)
            continue;
        p.retries = 0;
        p.acked = false;
        ++numRetx;
        sendRequest(tag, p);
    }
}

void
AoeInitiator::onTimeout(std::uint32_t tag)
{
    auto it = pending.find(tag);
    if (it == pending.end())
        return;
    Pending &p = it->second;

    if (p.dest != 0) {
        // Routed read: fail fast, the store tier reroutes.
        if (p.retries >= kShardMaxRetries) {
            failRouted(tag, RoutedStatus::Timeout);
            return;
        }
        ++p.retries;
        ++numRetx;
        sendRequest(tag, p);
        return;
    }

    if (params.maxRetries >= 0 && p.retries >= params.maxRetries) {
        // Budget exhausted: this is a terminal error unless the
        // handler rescues the request (typically by retargeting to a
        // secondary server first).
        ++numErrors;
        if (obs::armed()) {
            obs::Tracer &t = obs::tracer();
            t.instant(obsTrack_.id(t), "aoe", "terminal_error",
                      now(), static_cast<double>(p.retries));
        }
        DeployError err{p.isWrite, p.lba, p.count, p.retries, server};
        ErrorAction action = errorHandler ? errorHandler(err)
                                          : ErrorAction::Drop;
        // The handler may have retargeted (resending all pending,
        // this request included) or shut us down: re-look-up.
        it = pending.find(tag);
        if (it == pending.end())
            return;
        Pending &q = it->second;
        if (action == ErrorAction::Drop) {
            sim::warn(name(), ": request lba ", q.lba, " +", q.count,
                      " dropped after ", q.retries,
                      " retries (terminal)");
            eventQueue().cancel(q.timer);
            pending.erase(it);
            return;
        }
        q.retries = 0;
        // retarget() already retransmitted this tick; avoid a
        // duplicate send and just keep the fresh timer.
        if (q.lastSent != now())
            sendRequest(tag, q);
        return;
    }

    ++p.retries;
    ++numRetx;
    if (obs::armed()) {
        obs::Tracer &t = obs::tracer();
        t.instant(obsTrack_.id(t), "aoe", "retransmit", now(),
                  static_cast<double>(p.retries));
    }
    if (p.retries % kWarnEveryRetries == 0) {
        sim::warn(name(), ": request tag ", tag, " retried ",
                  p.retries, " times (server unreachable?)");
    }
    sendRequest(tag, p);
}

void
AoeInitiator::onFrame(const net::Frame &frame)
{
    auto parsed = parse(frame);
    if (!parsed || !parsed->response)
        return;
    const Message &m = *parsed;

    if (m.command == kCmdDiscover) {
        auto dit = discoverPending.find(m.tag);
        if (dit != discoverPending.end()) {
            auto cb = std::move(dit->second);
            discoverPending.erase(dit);
            cb(!m.error);
        }
        return;
    }

    auto it = pending.find(m.tag);
    if (it == pending.end())
        return; // stale duplicate
    Pending &p = it->second;

    if (p.dest != 0) {
        if (m.error) {
            failRouted(m.tag, RoutedStatus::Error);
            return;
        }
        // Per-fragment digest check: a damaged shard payload must not
        // land in the image.
        if (digestTokens(m.data) != m.digest) {
            failRouted(m.tag, RoutedStatus::BadDigest);
            return;
        }
    }

    if (p.isWrite) {
        if (!p.acked) {
            p.acked = true;
            completeRequest(m.tag, p);
        }
        return;
    }

    // Read response fragment.
    for (std::size_t i = 0; i < m.data.size(); ++i) {
        std::uint32_t idx = m.fragOffset + static_cast<std::uint32_t>(i);
        if (idx >= p.count)
            break;
        if (!p.got[idx]) {
            p.got[idx] = true;
            p.rxTokens[idx] = m.data[i];
            ++p.numGot;
        }
    }
    if (p.numGot == p.count) {
        bytesRead += sim::Bytes(p.count) * sim::kSectorSize;
        if (p.call) {
            std::copy(p.rxTokens.begin(), p.rxTokens.end(),
                      p.call->tokens.begin() + p.callOffset);
        }
        completeRequest(m.tag, p);
    }
}

void
AoeInitiator::completeRequest(std::uint32_t tag, Pending &p)
{
    eventQueue().cancel(p.timer);

    if (obs::armed()) {
        obs::Tracer &t = obs::tracer();
        const std::uint32_t track = obsTrack_.id(t);
        t.flowEnd(track, "aoe", "response", obsFlowId(tag), now());
        t.asyncEnd(track, "aoe",
                   p.routedDone ? "shard_read"
                                : (p.isWrite ? "write" : "read"),
                   obsFlowId(tag), now());
    }
    if (obs::metricsOn()) {
        if (rttHistEpoch_ != obs::metricsEpoch()) {
            rttHist_ =
                &obs::metrics().histogram("aoe.rtt_ns", name());
            rttHistEpoch_ = obs::metricsEpoch();
        }
        rttHist_->record(now() - p.lastSent);
    }

    // RTT sample only from first transmissions (Karn's rule).
    if (p.retries == 0) {
        sim::Tick sample = now() - p.lastSent;
        rttEma = rttEma == 0 ? sample : (rttEma * 7 + sample) / 8;
    }

    if (p.routedDone) {
        RoutedReadCallback cb = std::move(p.routedDone);
        std::vector<std::uint64_t> tokens = std::move(p.rxTokens);
        pending.erase(tag);
        cb(RoutedStatus::Ok, tokens);
        return;
    }

    std::shared_ptr<Call> call = p.call;
    pending.erase(tag);

    if (--call->remainingRequests == 0) {
        if (call->readDone)
            call->readDone(call->tokens);
        if (call->writeDone)
            call->writeDone();
    }
}

void
AoeInitiator::failRouted(std::uint32_t tag, RoutedStatus status)
{
    auto it = pending.find(tag);
    if (it == pending.end())
        return;
    Pending &p = it->second;
    eventQueue().cancel(p.timer);
    if (status == RoutedStatus::BadDigest)
        ++numDigestMismatches;
    if (obs::armed()) {
        obs::Tracer &t = obs::tracer();
        const std::uint32_t track = obsTrack_.id(t);
        t.instant(track, "aoe", "shard_fail", now(),
                  static_cast<double>(status));
        t.asyncEnd(track, "aoe", "shard_read", obsFlowId(tag), now());
    }
    RoutedReadCallback cb = std::move(p.routedDone);
    pending.erase(it);
    cb(status, {});
}

} // namespace aoe
