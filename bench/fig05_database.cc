/**
 * @file
 * Figure 5: memcached and Cassandra throughput/latency while a new
 * instance is deployed (paper §5.2).
 *
 * A YCSB load (95/5 for memcached, 30/70 for Cassandra) runs against
 * the instance from the moment the guest is up; BMcast deploys the
 * 32-GB image underneath it, de-virtualizes when the copy finishes,
 * and the curves step to bare-metal performance with no suspension.
 * KVM (ELI, pinned, huge pages) runs the same load with no
 * deployment in progress, as in the paper.
 *
 * Measurement uses sampling windows (1 s of simulated YCSB traffic
 * every 30 s) to keep the event count tractable; Cassandra's
 * commit-log flushes run continuously so the disk interference with
 * the background copy is not sampled away.
 */

#include "baselines/kvm.hh"
#include "bench/harness.hh"
#include "workloads/ycsb.hh"

using namespace bench;

namespace {

struct Sample
{
    double tSec;
    double ktps;
    double latUs;
};

struct SeriesResult
{
    std::vector<Sample> samples;
    double deployEndSec = 0; //!< de-virtualization time (BMcast)
    double avgDeployKtps = 0;
    double avgDeployLatUs = 0;
    double avgAfterKtps = 0;
    double avgAfterLatUs = 0;
};

/** One measurement window of YCSB traffic. */
Sample
runWindow(Testbed &tb, workloads::DbInstance &db, bool readHeavy,
          unsigned threads)
{
    workloads::YcsbParams yp;
    yp.threads = threads;
    yp.readFraction = readHeavy ? 0.95 : 0.30;
    yp.duration = 1 * sim::kSec;
    yp.seed = 1000 + static_cast<std::uint64_t>(
                         sim::toSeconds(tb.eq.now()));
    workloads::YcsbClient client(tb.eq, "ycsb", db, yp);
    bool done = false;
    client.run([&]() { done = true; });
    tb.runUntil(tb.eq.now() + 60 * sim::kSec, [&]() { return done; });
    return Sample{sim::toSeconds(tb.eq.now()),
                  client.meanThroughputOpsPerSec() / 1000.0,
                  client.meanLatencyUs()};
}

/** Continuous Cassandra commit-log/flush disk activity. */
class LogFlusher : public sim::SimObject
{
  public:
    LogFlusher(sim::EventQueue &eq, guest::BlockDriver &blk,
               sim::Lba logStart)
        : sim::SimObject(eq, "flusher"), blk(blk), logStart(logStart)
    {
    }

    void
    start()
    {
        running = true;
        tick();
    }
    void stop() { running = false; }

  private:
    void
    tick()
    {
        if (!running)
            return;
        // ~4 MB/s of commit-log + memtable flush traffic.
        auto sectors = static_cast<std::uint32_t>(
            (2 * sim::kMiB) / sim::kSectorSize);
        blk.write(logStart + cursor, sectors,
                  0xCA55AD0000000001ULL | (seq++ << 8), [this]() {
                      schedule(500 * sim::kMs, [this]() { tick(); });
                  });
        cursor = (cursor + sectors) %
                 ((1 * sim::kGiB) / sim::kSectorSize);
    }

    guest::BlockDriver &blk;
    sim::Lba logStart;
    sim::Lba cursor = 0;
    std::uint64_t seq = 1;
    bool running = false;
};

void
finishAverages(SeriesResult &r)
{
    double dk = 0, dl = 0, ak = 0, al = 0;
    unsigned nd = 0, na = 0;
    for (const Sample &s : r.samples) {
        bool after = r.deployEndSec > 0 && s.tSec > r.deployEndSec;
        if (after) {
            ak += s.ktps;
            al += s.latUs;
            ++na;
        } else {
            dk += s.ktps;
            dl += s.latUs;
            ++nd;
        }
    }
    if (nd) {
        r.avgDeployKtps = dk / nd;
        r.avgDeployLatUs = dl / nd;
    }
    if (na) {
        r.avgAfterKtps = ak / na;
        r.avgAfterLatUs = al / na;
    }
}

constexpr sim::Lba kLogStart = (40ULL * sim::kGiB) / sim::kSectorSize;

/** Bare metal: image preinstalled, no VMM. */
SeriesResult
runBare(bool readHeavy, unsigned threads, workloads::DbParams dbp,
        sim::Tick duration)
{
    Testbed tb;
    tb.machine().disk().store().write(0, tb.imageSectors, kImageBase);
    bool up = false;
    tb.guest().start([&]() { up = true; });
    tb.runUntil(400 * sim::kSec, [&]() { return up; });

    workloads::DbInstance db(tb.eq, "db", tb.machine(),
                             &tb.guest().blk(), dbp);
    LogFlusher flusher(tb.eq, tb.guest().blk(), kLogStart);
    if (dbp.writesToDisk)
        flusher.start();

    SeriesResult r;
    sim::Tick end = tb.eq.now() + duration;
    while (tb.eq.now() < end) {
        r.samples.push_back(runWindow(tb, db, readHeavy, threads));
        tb.runFor(30 * sim::kSec);
    }
    flusher.stop();
    finishAverages(r);
    return r;
}

/** BMcast: full streaming deployment under load. */
SeriesResult
runBmcast(bool readHeavy, unsigned threads, workloads::DbParams dbp)
{
    Testbed tb;
    bmcast::BmcastDeployer dep(tb.eq, "dep", tb.machine(), tb.guest(),
                               {kServerMac}, tb.imageSectors,
                               paperVmmParams(),
                               /*coldFirmware=*/false);
    bool up = false;
    dep.run([&]() { up = true; });
    tb.runUntil(1000 * sim::kSec, [&]() { return up; });

    workloads::DbInstance db(tb.eq, "db", tb.machine(),
                             &tb.guest().blk(), dbp);
    LogFlusher flusher(tb.eq, tb.guest().blk(), kLogStart);
    if (dbp.writesToDisk)
        flusher.start();

    SeriesResult r;
    sim::Tick t0 = tb.eq.now();
    // Measure until well past de-virtualization.
    while (true) {
        r.samples.push_back(runWindow(tb, db, readHeavy, threads));
        if (dep.bareMetalReached() &&
            tb.eq.now() > dep.timeline().bareMetal + 120 * sim::kSec)
            break;
        if (tb.eq.now() - t0 > 4000 * sim::kSec)
            break; // safety
        tb.runFor(30 * sim::kSec);
    }
    flusher.stop();
    r.deployEndSec = sim::toSeconds(dep.timeline().bareMetal - t0);
    // Normalize sample times to YCSB start.
    for (Sample &s : r.samples)
        s.tSec -= sim::toSeconds(t0);
    finishAverages(r);
    return r;
}

/** KVM: same load, no deployment (paper's comparison point). */
SeriesResult
runKvm(bool readHeavy, unsigned threads, workloads::DbParams dbp,
       sim::Tick duration)
{
    Testbed tb;
    tb.machine().disk().store().write(0, tb.imageSectors, kImageBase);
    baselines::KvmConfig cfg;
    cfg.storage = baselines::KvmStorage::Local;
    baselines::KvmVmm kvm(tb.eq, "kvm", tb.machine(), cfg, kServerMac);

    guest::GuestOsParams gp;
    gp.boot = paperBootTrace();
    gp.externalDriver = &kvm.blockDriver();
    guest::GuestOs g(tb.eq, "kvm-guest", tb.machine(), gp);

    bool up = false;
    kvm.boot([&]() { g.start([&]() { up = true; }); });
    tb.runUntil(400 * sim::kSec, [&]() { return up; });

    workloads::DbInstance db(tb.eq, "db", tb.machine(), &g.blk(), dbp);
    LogFlusher flusher(tb.eq, g.blk(), kLogStart);
    if (dbp.writesToDisk)
        flusher.start();

    SeriesResult r;
    sim::Tick end = tb.eq.now() + duration;
    while (tb.eq.now() < end) {
        r.samples.push_back(runWindow(tb, db, readHeavy, threads));
        tb.runFor(30 * sim::kSec);
    }
    flusher.stop();
    finishAverages(r);
    return r;
}

void
reportDb(const std::string &title, bool readHeavy, unsigned threads,
         workloads::DbParams dbp, const char *paperNote)
{
    figureHeader(title);

    SeriesResult bare =
        runBare(readHeavy, threads, dbp, 120 * sim::kSec);
    double bare_ktps = bare.avgDeployKtps;
    double bare_lat = bare.avgDeployLatUs;

    SeriesResult kvm =
        runKvm(readHeavy, threads, dbp, 120 * sim::kSec);
    SeriesResult bm = runBmcast(readHeavy, threads, dbp);

    std::cout << "Bare metal: " << sim::Table::num(bare_ktps, 1)
              << " KT/s, " << sim::Table::num(bare_lat, 0)
              << " us\n";
    std::cout << "Deployment completed (de-virtualization) at t="
              << sim::Table::num(bm.deployEndSec, 0) << " s\n\n";

    sim::Table t({"t(s)", "BMcast KT/s", "vs bare", "BMcast lat(us)",
                  "phase"});
    for (const Sample &s : bm.samples) {
        bool after = s.tSec > bm.deployEndSec;
        t.addRow({sim::Table::num(s.tSec, 0),
                  sim::Table::num(s.ktps, 1),
                  sim::Table::num(s.ktps / bare_ktps * 100.0, 1) + "%",
                  sim::Table::num(s.latUs, 0),
                  after ? "bare-metal" : "deploying"});
    }
    t.print(std::cout);

    sim::Table sum({"Metric", "Bare", "BMcast(deploy)",
                    "BMcast(devirt)", "KVM"});
    sum.addRow({"Throughput KT/s", sim::Table::num(bare_ktps, 1),
                sim::Table::num(bm.avgDeployKtps, 1),
                sim::Table::num(bm.avgAfterKtps, 1),
                sim::Table::num(kvm.avgDeployKtps, 1)});
    sum.addRow({"  vs bare", "100%",
                sim::Table::num(bm.avgDeployKtps / bare_ktps * 100, 1) +
                    "%",
                sim::Table::num(bm.avgAfterKtps / bare_ktps * 100, 1) +
                    "%",
                sim::Table::num(kvm.avgDeployKtps / bare_ktps * 100,
                                1) +
                    "%"});
    sum.addRow({"Latency us", sim::Table::num(bare_lat, 0),
                sim::Table::num(bm.avgDeployLatUs, 0),
                sim::Table::num(bm.avgAfterLatUs, 0),
                sim::Table::num(kvm.avgDeployLatUs, 0)});
    std::cout << "\n";
    sum.print(std::cout);
    std::cout << paperNote << "\n";
}

} // namespace

int
main()
{
    reportDb("Figure 5a/5b: memcached under YCSB 95/5 during "
             "streaming deployment",
             /*readHeavy=*/true, /*threads=*/10,
             workloads::memcachedParams(),
             "\nPaper: deploy 94.8% of bare throughput (34.6 vs 36.4 "
             "KT/s), latency 291 vs 281 us;\n       deployment ~16 "
             "min; identical to bare metal after de-virtualization.");

    reportDb("Figure 5c/5d: Cassandra under YCSB 30/70 during "
             "streaming deployment",
             /*readHeavy=*/false, /*threads=*/147,
             workloads::cassandraParams(kLogStart),
             "\nPaper: deploy 91.4% of bare throughput (51.4 vs ~60 "
             "KT/s), latency 2609 vs 2443 us;\n       deployment ~17 "
             "min; bare-metal performance after de-virtualization.");
    return 0;
}
