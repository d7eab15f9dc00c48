/**
 * @file
 * Ablation: the sharded kernel under a datacenter-scale deploy storm.
 *
 * A 512-node region (BMCAST_NODES overrides) across 8 racks deploys
 * simultaneously, with every 7th node pulling its image from the
 * next rack's seed server so AoE traffic crosses shard boundaries
 * both ways. The same world runs once per shard count
 * (BMCAST_SHARDS, default 1,2,4,8) and the bench enforces, by exit
 * code:
 *
 *  - determinism: every shard count produces the identical result
 *    fingerprint (deployment timelines, server bytes, frame and
 *    event counts) — always enforced; under `--smoke` it must also
 *    equal the recorded one;
 *  - serial identity: the shards=1 group replays a plain
 *    EventQueue::runUntil drive of the same world tick for tick;
 *  - speedup: shards=8 completes the storm >= 4x faster than
 *    shards=1 — enforced only when the host has >= 8 hardware
 *    threads (speedup_enforced in the JSON records whether the gate
 *    was live; fingerprints are checked regardless).
 *
 * Emits BENCH_storm.json with one uniform {nodes, shards, wall_ms,
 * events_per_sec, fingerprint} record per configuration. `--smoke`
 * shrinks the image and clamps the shard list for the bench-smoke
 * ctest label.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.hh"
#include "bench/storm_world.hh"
#include "simcore/table.hh"

using namespace bench;

namespace {

constexpr sim::Tick kDeadline = 4000 * sim::kSec;
/** The default smoke storm's fingerprint (512 nodes, 8-MiB image). */
constexpr std::uint64_t kSmokePin = 0x0f9721a0dc56b0b4ULL;

struct StormRun
{
    ScaleRecord rec;
    bool done = false;
    bool intact = false;
    std::uint64_t crossRack = 0;
    std::uint64_t windows = 0;
};

/** Drive the storm until every deployment reached bare metal. */
bool
runToCompletion(StormWorld &w)
{
    return w.region.runUntil(
        kDeadline, [&w]() { return w.allDone(); }, sim::kSec);
}

StormRun
runStorm(const StormParams &prm)
{
    StormWorld w(prm);
    w.deployAll();
    auto t0 = std::chrono::steady_clock::now();
    bool done = runToCompletion(w);
    double wall_ms = msSince(t0);

    StormRun r;
    r.done = done;
    r.intact = done && w.imagesIntact();
    r.crossRack = w.region.group.counters().messages;
    r.windows = w.region.group.counters().windows;
    r.rec = makeRecord(prm.nodes, prm.shards, wall_ms,
                       w.region.totalExecuted(), w.fingerprint());
    return r;
}

/**
 * The shards=1 contract: the group scheduler must replay a plain
 * serial EventQueue drive of the same world tick for tick. Build the
 * world twice — once driven through ShardGroup::run, once by calling
 * EventQueue::runUntil directly on the rack queue, bypassing the
 * shard scheduler entirely — and compare fingerprints (which fold
 * every timeline tick and the executed-event totals).
 */
bool
serialIdentity(sim::Bytes image_bytes, std::uint64_t &group_fp,
               std::uint64_t &plain_fp)
{
    StormParams prm;
    // Small on purpose: all nodes share one segment and one seed
    // server (worst-case contention), and the TSan job runs this
    // too — the check is about kernel semantics, not capacity.
    prm.nodes = 24;
    prm.racks = 1; // one segment: no uplinks, pure kernel semantics
    prm.shards = 1;
    prm.imageBytes = image_bytes;

    StormWorld grouped(prm);
    grouped.deployAll();
    runToCompletion(grouped);
    group_fp = grouped.fingerprint();

    StormWorld plain(prm);
    plain.deployAll();
    sim::EventQueue &q = plain.region.queue(0);
    // Same chunk grid runToCompletion lands on, driven directly:
    // group.run(until) leaves the queue at until - 1.
    const sim::Tick chunk =
        sim::kSec - sim::kSec % plain.region.window();
    sim::Tick at = 0;
    while (!plain.allDone() && at < kDeadline) {
        at += chunk;
        q.runUntil(at - 1);
    }
    plain_fp = plain.fingerprint();

    return plain.allDone() && group_fp == plain_fp;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    const unsigned hw = std::max(
        1u, std::thread::hardware_concurrency());

    StormParams base;
    base.nodes = envUnsigned("BMCAST_NODES", 512);
    base.imageBytes =
        smoke ? 8 * sim::kMiB : 16 * sim::kMiB;

    std::vector<unsigned> shard_counts;
    if (smoke) {
        // Exercise real threading even on small CI boxes: serial vs
        // the widest sharding the host can actually run in parallel.
        shard_counts = {1, std::max(2u, std::min(8u, hw))};
    } else {
        shard_counts =
            envUnsignedList("BMCAST_SHARDS", {1, 2, 4, 8});
    }

    figureHeader("Ablation: sharded kernel, " +
                 std::to_string(base.nodes) + "-node deploy storm (" +
                 std::to_string(base.racks) + " racks, " +
                 std::to_string(base.imageBytes / sim::kMiB) +
                 "-MiB image" + (smoke ? ", smoke" : "") + ")");
    std::cout << "host hardware threads: " << hw << "\n";

    // Gate 1 (always): identical simulated outcomes for every shard
    // count, and (default smoke) the recorded fingerprint.
    const auto sweep = sweepShards(
        "storm", shard_counts,
        smoke && base.nodes == 512 ? kSmokePin : 0, [&](unsigned s) {
            StormParams prm = base;
            prm.shards = s;
            return runStorm(prm);
        });
    const std::vector<StormRun> &runs = sweep.runs;

    printRecords(sweep.records());
    for (const auto &r : runs)
        std::cout << "shards=" << r.rec.shards << ": " << r.crossRack
                  << " cross-rack messages, " << r.windows
                  << " rack-windows\n";

    bool all_done = true, all_intact = true;
    for (const auto &r : runs) {
        all_done = all_done && r.done;
        all_intact = all_intact && r.intact;
    }

    const bool deterministic = sweep.identical;
    const bool pinned = sweep.pinned;
    std::cout << "\nfingerprints identical across shard counts: "
              << (deterministic ? "yes" : "NO") << "\n";

    // Gate 2 (always): shards=1 == plain serial kernel.
    std::uint64_t group_fp = 0, plain_fp = 0;
    bool serial_ok =
        serialIdentity(base.imageBytes, group_fp, plain_fp);
    std::cout << "shards=1 replays the plain serial kernel: "
              << (serial_ok ? "yes" : "NO") << "\n";

    // Gate 3 (hardware-gated): >= 4x storm speedup at 8 shards on an
    // 8-core host. The simulated outcome checks above hold
    // everywhere; wall-clock scaling is only meaningful when the OS
    // can actually run the shards in parallel.
    double speedup = 0.0;
    const StormRun *widest = nullptr;
    for (const auto &r : runs)
        if (!widest || r.rec.shards > widest->rec.shards)
            widest = &r;
    if (widest && widest->rec.shards > 1 && widest->rec.wallMs > 0)
        speedup = runs[0].rec.wallMs / widest->rec.wallMs;
    bool speedup_enforced = !smoke && hw >= 8 && widest &&
                            widest->rec.shards >= 8;
    bool speedup_ok = !speedup_enforced || speedup >= 4.0;
    if (widest && widest->rec.shards > 1) {
        std::cout << "storm speedup, shards="
                  << widest->rec.shards << " over shards=1: "
                  << sim::Table::num(speedup, 2) << "x (gate "
                  << (speedup_enforced ? ">= 4x enforced"
                                       : "informational: host has "
                                         "fewer than 8 threads")
                  << ")\n";
    }

    std::ofstream json("BENCH_storm.json");
    json << "{\n  \"bench\": \"abl_storm\",\n"
         << "  \"racks\": " << base.racks << ",\n"
         << "  \"image_mib\": " << base.imageBytes / sim::kMiB
         << ",\n"
         << "  \"hardware_threads\": " << hw << ",\n"
         << "  \"deterministic_across_shards\": "
         << (deterministic ? "true" : "false") << ",\n"
         << "  \"serial_identity\": "
         << (serial_ok ? "true" : "false") << ",\n"
         << "  \"speedup_vs_serial\": " << speedup << ",\n"
         << "  \"speedup_enforced\": "
         << (speedup_enforced ? "true" : "false") << ",\n  "
         << scaleRecordsJson(sweep.records(), "  ") << "\n}\n";
    json.close();
    std::cout << "wrote BENCH_storm.json\n";

    bool ok = all_done && all_intact && deterministic && pinned &&
              serial_ok && speedup_ok;
    if (!ok) {
        std::cout << "STORM GATE FAILED: done=" << all_done
                  << " intact=" << all_intact
                  << " deterministic=" << deterministic
                  << " pinned=" << pinned
                  << " serial=" << serial_ok
                  << " speedup_ok=" << speedup_ok << "\n";
    }
    return ok ? 0 : 1;
}
