/**
 * @file
 * Ablation: the fleet control plane under four elasticity scenarios.
 *
 * Every scenario builds a FleetWorld (control plane on rack 0,
 * cross-shard deployment orders, shared fat-tree topology, optional
 * congestion shaping) and runs once per shard count. Enforced by
 * exit code:
 *
 *  - determinism: per scenario, every shard count produces the
 *    identical result fingerprint (lease timelines, link counters,
 *    sink goodput, event totals), under `--smoke` the recorded one;
 *  - flash_crowd: with the congestion controller shaping deployment
 *    fetches, serving goodput during the storm stays >= 90% of the
 *    unloaded baseline; the unshaped run is recorded alongside;
 *  - rolling_reimage: rack-by-rack drain-and-reimage waves place
 *    every replacement lease back on the drained rack;
 *  - spot_reclaim: lease churn against a small region drives every
 *    lease to a terminal state, with typed queue rejections and
 *    queued-lease cancellations actually exercised;
 *  - rack_outage: a scripted RackOutage takes rack 2 out of
 *    placement — the storm avoids it — and placement returns there
 *    after recovery.
 *
 * Emits BENCH_fleet.json with one uniform {nodes, shards, wall_ms,
 * events_per_sec, fingerprint} record per run plus per-scenario
 * results. `--smoke` shrinks the fleet and the shard list for the
 * bench-smoke ctest label (and the TSan CI job).
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/fleet_world.hh"
#include "bench/harness.hh"
#include "simcore/table.hh"

using namespace bench;

namespace {

struct RunOut
{
    ScaleRecord rec;
    bool ok = true;
    std::string detail; ///< first gate failure, for the table
    double ratio = 0.0; ///< flash crowd goodput ratio
    double baseMBps = 0.0;
    double contMBps = 0.0;
};

double
mbps(sim::Bytes bytes, sim::Tick dur)
{
    return double(bytes) * 8.0 / sim::toSeconds(dur) / 1e6;
}

void
fillRec(RunOut &r, const FleetWorld &w, double wall_ms)
{
    r.rec = makeRecord(w.prm.nodes, w.prm.shards, wall_ms,
                       w.region.totalExecuted(), w.fingerprint());
}

void
fail(RunOut &r, const std::string &why)
{
    r.ok = false;
    if (r.detail.empty())
        r.detail = why;
}

/**
 * Scenario 1: flash crowd. Serving streams run from t=0; a storm of
 * leases lands at 2 s. Goodput (SLO-compliant sink bytes) is
 * measured over [1s,2s) unloaded and over a window inside the storm,
 * and the shaped run must keep >= 90% of the baseline rate.
 */
RunOut
flashCrowd(bool smoke, unsigned nodes, unsigned tenants,
           unsigned shards, bool shaped)
{
    FleetParams p;
    p.nodes = nodes;
    p.racks = 8;
    p.shards = shards;
    p.imageBytes = smoke ? 8 * sim::kMiB : 16 * sim::kMiB;
    p.shaped = shaped;
    FleetWorld w(p);

    const unsigned leases = smoke ? 20 : 64;
    const sim::Tick storm = 2 * sim::kSec;
    const sim::Tick cw1 = storm + 200 * sim::kMs;
    const sim::Tick cw2 =
        cw1 + (smoke ? 500 * sim::kMs : 1000 * sim::kMs);
    w.startServing(10 * sim::kMs, cw2 + 100 * sim::kMs);

    sim::EventQueue &q0 = w.region.queue(0);
    for (unsigned i = 0; i < leases; ++i) {
        q0.scheduleAt(storm + i * sim::kMs, [&w, i, tenants]() {
            cloud::LeaseRequest rq;
            rq.image = "golden";
            rq.tenant = i % tenants;
            w.submitLease(std::move(rq));
        });
    }

    auto t0 = std::chrono::steady_clock::now();
    w.region.runTo(1 * sim::kSec);
    sim::Bytes g1 = w.servingGoodBytes();
    w.region.runTo(storm);
    sim::Bytes g2 = w.servingGoodBytes();
    w.region.runTo(cw1);
    sim::Bytes c1 = w.servingGoodBytes();
    w.region.runTo(cw2);
    sim::Bytes c2 = w.servingGoodBytes();
    bool served = w.region.runUntil(40 * sim::kSec, [&]() {
        return w.plane().stats().served == leases;
    });
    double wall_ms = msSince(t0);

    RunOut r;
    r.baseMBps = mbps(g2 - g1, storm - 1 * sim::kSec);
    r.contMBps = mbps(c2 - c1, cw2 - cw1);
    r.ratio = r.baseMBps > 0.0 ? r.contMBps / r.baseMBps : 0.0;
    fillRec(r, w, wall_ms);
    if (!served)
        fail(r, "storm leases never all reached serving");
    if (shaped && r.ratio < 0.90)
        fail(r, "shaped goodput ratio " +
                    sim::Table::num(r.ratio, 3) + " < 0.90");
    return r;
}

/**
 * Scenario 2: rolling fleet reimage. Lease the whole region, then
 * rack by rack: release every lease on the rack and resubmit — the
 * queued replacements must all land back on the drained rack (it is
 * the only one with free slots).
 */
RunOut
rolling(bool smoke, unsigned shards)
{
    struct Drive
    {
        unsigned serving = 0;
        unsigned misplaced = 0;
        bool done = false;
        std::function<void(unsigned)> wave;
    } d;

    FleetParams p;
    p.nodes = smoke ? 16 : 32;
    p.racks = 4;
    p.shards = shards;
    p.imageBytes = 8 * sim::kMiB;
    p.tenantShare = 0.0; // one logical tenant: no per-tenant cap
    p.servingInterval = 0;
    FleetWorld w(p);
    sim::EventQueue &q0 = w.region.queue(0);

    d.wave = [&](unsigned k) {
        if (k == w.prm.racks) {
            d.done = true;
            return;
        }
        std::vector<cloud::Lease *> victims;
        for (const auto &lp : w.plane().leases())
            if (lp->state() == cloud::LeaseState::Serving &&
                lp->rack() == k)
                victims.push_back(lp.get());
        for (cloud::Lease *l : victims)
            w.releaseLease(*l);
        auto left = std::make_shared<unsigned>(
            static_cast<unsigned>(victims.size()));
        for (std::size_t i = 0; i < victims.size(); ++i) {
            cloud::LeaseRequest rq;
            rq.image = "golden";
            w.submitLease(std::move(rq),
                          [&, k, left](cloud::Lease &l) {
                              if (l.rack() != k)
                                  ++d.misplaced;
                              if (--*left == 0)
                                  d.wave(k + 1);
                          });
        }
    };

    for (unsigned i = 0; i < p.nodes; ++i) {
        q0.scheduleAt(sim::kMs + i * 5 * sim::kMs, [&]() {
            cloud::LeaseRequest rq;
            rq.image = "golden";
            w.submitLease(std::move(rq), [&](cloud::Lease &) {
                if (++d.serving == w.prm.nodes)
                    d.wave(0);
            });
        });
    }

    auto t0 = std::chrono::steady_clock::now();
    bool done =
        w.region.runUntil(120 * sim::kSec, [&]() { return d.done; });
    double wall_ms = msSince(t0);

    RunOut r;
    fillRec(r, w, wall_ms);
    if (!done)
        fail(r, "reimage waves never completed");
    if (d.misplaced > 0)
        fail(r, std::to_string(d.misplaced) +
                    " replacement leases landed off-rack");
    if (w.plane().stats().released != p.nodes)
        fail(r, "unexpected release count");
    return r;
}

/**
 * Scenario 3: spot-reclaim churn. A small region, a deterministic
 * submission/hold schedule far above capacity, mixed QoS, fail-fast
 * every 5th request, a 12-deep admission queue and a non-zero scrub
 * time: every lease must end terminal, with typed rejections and
 * queued-lease cancellations observed.
 */
RunOut
spotReclaim(bool smoke, unsigned shards)
{
    FleetParams p;
    p.nodes = 16;
    p.racks = 4;
    p.shards = shards;
    p.imageBytes = 8 * sim::kMiB;
    p.servingInterval = 0;
    p.queueCapacity = 12;
    p.perTenantQueueCap = 6;
    p.scrubTime = 50 * sim::kMs;
    FleetWorld w(p);
    sim::EventQueue &q0 = w.region.queue(0);

    const unsigned subs = smoke ? 40 : 60;
    for (unsigned i = 0; i < subs; ++i) {
        sim::Tick at = sim::kMs + i * 40 * sim::kMs;
        sim::Tick hold =
            300 * sim::kMs + ((i * 7919) % 23) * 100 * sim::kMs;
        q0.scheduleAt(at, [&w, &q0, i, hold]() {
            cloud::LeaseRequest rq;
            rq.image = "golden";
            rq.tenant = i % 3;
            rq.qos = i % 3 == 0   ? cloud::QosClass::Critical
                     : i % 3 == 1 ? cloud::QosClass::Standard
                                  : cloud::QosClass::Scavenger;
            rq.failFast = i % 5 == 0;
            cloud::Lease *l = w.submitLease(std::move(rq));
            if (!l->terminal()) {
                q0.scheduleAt(q0.now() + hold, [&w, l]() {
                    if (!l->terminal() &&
                        l->state() != cloud::LeaseState::Releasing)
                        w.releaseLease(*l);
                });
            }
        });
    }

    auto t0 = std::chrono::steady_clock::now();
    bool quiesced = w.region.runUntil(60 * sim::kSec, [&]() {
        const auto &leases = w.plane().leases();
        if (leases.size() < subs)
            return false;
        for (const auto &l : leases)
            if (!l->terminal())
                return false;
        return true;
    });
    double wall_ms = msSince(t0);

    RunOut r;
    fillRec(r, w, wall_ms);
    const auto &st = w.plane().stats();
    std::uint64_t rejections = 0;
    for (std::uint64_t n : st.rejected)
        rejections += n;
    if (!quiesced)
        fail(r, "churn never quiesced to all-terminal");
    if (rejections == 0)
        fail(r, "no typed rejections under overload");
    if (st.canceled == 0)
        fail(r, "no queued lease was ever canceled");
    if (st.served == 0)
        fail(r, "nothing ever served");
    return r;
}

/**
 * Scenario 4: rack outage. A scripted RackOutage (key = rack 2,
 * first probe) takes the rack out of placement for 3 s. The 500 ms
 * wave must avoid rack 2 entirely; the 5 s wave (after recovery)
 * must use it again.
 */
RunOut
rackOutage(bool smoke, unsigned shards)
{
    // Declared before the world: the plane's health probe polls it
    // during runs, so it must outlive them (it does — the world dies
    // first, scenario scoping).
    sim::FaultInjector fi(1);
    sim::SitePlan plan;
    plan.fireOn = {1};
    plan.keyLo = 2;
    plan.keyHi = 2;
    plan.magnitude = 3 * sim::kSec;
    fi.arm(sim::FaultSite::RackOutage, plan);

    FleetParams p;
    p.nodes = smoke ? 16 : 32;
    p.racks = 4;
    p.shards = shards;
    p.imageBytes = 8 * sim::kMiB;
    p.servingInterval = 0;
    FleetWorld w(p);
    w.plane().armRackHealthProbe(&fi, 100 * sim::kMs);
    sim::EventQueue &q0 = w.region.queue(0);

    const unsigned wave1 = smoke ? 6 : 9;
    const unsigned wave2 = smoke ? 4 : 6;
    for (unsigned i = 0; i < wave1; ++i) {
        q0.scheduleAt(500 * sim::kMs + i * 10 * sim::kMs, [&w]() {
            cloud::LeaseRequest rq;
            rq.image = "golden";
            w.submitLease(std::move(rq));
        });
    }
    for (unsigned i = 0; i < wave2; ++i) {
        q0.scheduleAt(5 * sim::kSec + i * 10 * sim::kMs, [&w]() {
            cloud::LeaseRequest rq;
            rq.image = "golden";
            w.submitLease(std::move(rq));
        });
    }

    auto t0 = std::chrono::steady_clock::now();
    bool served = w.region.runUntil(30 * sim::kSec, [&]() {
        return w.plane().stats().served == wave1 + wave2;
    });
    double wall_ms = msSince(t0);

    RunOut r;
    fillRec(r, w, wall_ms);
    unsigned outage_hits = 0, recovered_hits = 0;
    const auto &leases = w.plane().leases();
    for (std::size_t i = 0; i < leases.size(); ++i) {
        if (leases[i]->state() != cloud::LeaseState::Serving)
            continue;
        if (i < wave1 && leases[i]->rack() == 2)
            ++outage_hits;
        if (i >= wave1 && leases[i]->rack() == 2)
            ++recovered_hits;
    }
    if (!served)
        fail(r, "waves never all reached serving");
    if (outage_hits > 0)
        fail(r, std::to_string(outage_hits) +
                    " leases placed on the downed rack");
    if (recovered_hits == 0)
        fail(r, "placement never returned to the recovered rack");
    if (fi.triggers(sim::FaultSite::RackOutage) != 1 ||
        fi.triggers(sim::FaultSite::RackRecover) != 1)
        fail(r, "outage/recover sites did not fire exactly once");
    return r;
}

struct Scenario
{
    std::string name;
    ShardSweep<RunOut> sweep;
    bool ok = true;
    std::string detail;
    std::string extraJson; ///< scenario-specific JSON fields
};

/** One scenario across @p counts shard counts: every run's own gate,
 *  identical fingerprints and, given a @p pin, the recorded one. */
template <typename Run>
Scenario
runScenario(const std::string &name,
            const std::vector<unsigned> &counts, std::uint64_t pin,
            Run &&run)
{
    Scenario s;
    s.name = name;
    s.sweep = sweepShards(name, counts, pin, std::forward<Run>(run));
    for (const auto &r : s.sweep.runs) {
        if (!r.ok && s.detail.empty())
            s.detail = r.detail;
        s.ok = s.ok && r.ok;
    }
    if (!s.sweep.ok()) {
        s.ok = false;
        if (s.detail.empty())
            s.detail = s.sweep.failure();
    }
    return s;
}

void
printScenario(const Scenario &s)
{
    std::cout << "\n--- " << s.name << " ---\n";
    printRecords(s.sweep.records());
    if (!s.ok)
        std::cout << "FAILED: " << s.detail << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());

    const unsigned nodes =
        envUnsigned("BMCAST_NODES", smoke ? 32 : 96);
    const unsigned tenants = envUnsigned("BMCAST_TENANTS", 4);
    sim::fatalIf(nodes % 8 != 0,
                 "BMCAST_NODES must be a multiple of 8 racks");

    std::vector<unsigned> shard_counts;
    if (smoke)
        shard_counts = {1, std::max(2u, std::min(8u, hw))};
    else
        shard_counts = envUnsignedList("BMCAST_SHARDS", {1, 2, 4, 8});
    // The 4-rack scenarios clamp to 4 shards anyway; drop duplicates
    // so the sweep stays one run per distinct effective shard count.
    std::vector<unsigned> small_counts;
    for (unsigned s : shard_counts) {
        unsigned c = std::min(s, 4u);
        if (std::find(small_counts.begin(), small_counts.end(), c) ==
            small_counts.end())
            small_counts.push_back(c);
    }

    figureHeader(
        "Ablation: fleet control plane (" + std::to_string(nodes) +
        " nodes, admission queue + topology + congestion" +
        (smoke ? ", smoke" : "") + ")");
    std::cout << "host hardware threads: " << hw << "\n";

    // --- flash crowd: shaped sweep + one unshaped reference ---
    // The smoke fingerprints recorded for the default configuration
    // (32 nodes, 4 tenants); other knob values run unpinned.
    const bool pin_flash = smoke && nodes == 32 && tenants == 4;
    Scenario flash = runScenario(
        "flash_crowd (shaped)", shard_counts,
        pin_flash ? 0x169ca6d2d0d29ae5ULL : 0, [&](unsigned s) {
            return flashCrowd(smoke, nodes, tenants, s, true);
        });
    const RunOut &shaped = flash.sweep.runs[0];
    RunOut unshaped =
        flashCrowd(smoke, nodes, tenants, shard_counts[0], false);
    printScenario(flash);
    std::cout << "serving goodput: baseline "
              << sim::Table::num(shaped.baseMBps, 1)
              << " Mb/s, shaped storm "
              << sim::Table::num(shaped.contMBps, 1)
              << " Mb/s (ratio " << sim::Table::num(shaped.ratio, 3)
              << ", gate >= 0.90), unshaped storm "
              << sim::Table::num(unshaped.contMBps, 1)
              << " Mb/s (ratio "
              << sim::Table::num(unshaped.ratio, 3)
              << ", recorded)\n";
    {
        std::ostringstream ex;
        ex << "\"baseline_mbps\": "
           << sim::Table::num(shaped.baseMBps, 3)
           << ", \"shaped_storm_mbps\": "
           << sim::Table::num(shaped.contMBps, 3)
           << ", \"shaped_goodput_ratio\": "
           << sim::Table::num(shaped.ratio, 4)
           << ", \"unshaped_storm_mbps\": "
           << sim::Table::num(unshaped.contMBps, 3)
           << ", \"unshaped_goodput_ratio\": "
           << sim::Table::num(unshaped.ratio, 4);
        flash.extraJson = ex.str();
    }

    Scenario roll = runScenario(
        "rolling_reimage", small_counts,
        smoke ? 0x867b34db960025e4ULL : 0,
        [&](unsigned s) { return rolling(smoke, s); });
    printScenario(roll);

    Scenario spot = runScenario(
        "spot_reclaim", small_counts,
        smoke ? 0x86bd6c4cfdb1820dULL : 0,
        [&](unsigned s) { return spotReclaim(smoke, s); });
    printScenario(spot);

    Scenario outage = runScenario(
        "rack_outage", small_counts,
        smoke ? 0xb08f8dccbf818878ULL : 0,
        [&](unsigned s) { return rackOutage(smoke, s); });
    printScenario(outage);

    const std::vector<const Scenario *> all{&flash, &roll, &spot,
                                           &outage};
    bool ok = true;
    for (const Scenario *s : all)
        ok = ok && s->ok;

    std::ofstream json("BENCH_fleet.json");
    json << "{\n  \"bench\": \"abl_fleet\",\n"
         << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
         << "  \"hardware_threads\": " << hw << ",\n"
         << "  \"tenants\": " << tenants << ",\n"
         << "  \"scenarios\": {\n";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Scenario &s = *all[i];
        std::string key = s.name.substr(0, s.name.find(' '));
        json << "    \"" << key << "\": {\n"
             << "      \"deterministic_across_shards\": "
             << (s.sweep.identical ? "true" : "false") << ",\n"
             << "      \"gate\": " << (s.ok ? "true" : "false")
             << ",\n";
        if (!s.extraJson.empty())
            json << "      " << s.extraJson << ",\n";
        json << "      "
             << scaleRecordsJson(s.sweep.records(), "      ")
             << "\n    }" << (i + 1 < all.size() ? "," : "")
             << "\n";
    }
    json << "  }\n}\n";
    json.close();
    std::cout << "\nwrote BENCH_fleet.json\n";

    if (!ok) {
        std::cout << "FLEET GATE FAILED:";
        for (const Scenario *s : all)
            if (!s->ok)
                std::cout << " [" << s->name << ": " << s->detail
                          << "]";
        std::cout << "\n";
    }
    return ok ? 0 : 1;
}
