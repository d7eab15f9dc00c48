/**
 * @file
 * The three benchmark workloads, each driven against one
 * bmcast::Cloud through its public API only.
 *
 *  - deploy_storm: every lease submitted at t=0 on a store-backed,
 *    topology- and congestion-shaped region; quiet guests.
 *  - io_during_deploy: the default single-image-server region; each
 *    guest runs an open-loop block-I/O stream until bare metal.
 *  - elastic_churn: Poisson lease arrivals over a smaller pool, mixed
 *    tenants and QoS, overlay release and re-lease, live migration,
 *    and a seed-server crash healed by the repair scheduler.
 *
 * A Plan is generated from the workload seed alone; the Cloud sees
 * only the generated configuration, images and request stream.
 */

#ifndef PERFBENCH_WORLD_HH
#define PERFBENCH_WORLD_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bmcast/cloud.hh"
#include "spans.hh"
#include "stats.hh"

namespace perfbench {

enum class Workload { DeployStorm, IoDuringDeploy, ElasticChurn };

/** Parse a workload name; false when unknown. */
bool parseWorkload(const std::string &name, Workload &out);
const char *workloadName(Workload w);

/** One lease the workload requests. */
struct LeaseSpec
{
    double atS = 0.0;
    cloud::TenantId tenant = 0;
    cloud::QosClass qos = cloud::QosClass::Standard;
    /** Time held after bare metal; negative = held to the end. */
    double holdS = -1.0;
    bool migrate = false;
    /** Release into an overlay image, then lease that overlay. */
    bool toOverlay = false;
    /** Re-lease delay and hold of the overlay lease. */
    double overlayDelayS = 0.0;
    double overlayHoldS = 0.0;
};

/** Guest block-I/O stream shape (on/off bursts, open loop). */
struct IoShape
{
    /** None, until bare metal (deploy), or during the hold (churn). */
    enum class Mode { None, UntilBareMetal, DuringHold } mode =
        Mode::None;
    double burstRate = 0.0; ///< ops/s inside a burst
    unsigned burstOps = 0;  ///< mean ops per burst
    double offMinS = 0.0;   ///< quiet gap between bursts
    double offMaxS = 0.0;
    double writeFrac = 0.0;
    std::uint32_t opSectors = 0; ///< size of every op
};

struct Plan
{
    bmcast::CloudConfig cfg;
    sim::Bytes imageBytes = 0;
    std::uint64_t imageBase = 0;
    std::vector<LeaseSpec> leases;
    IoShape io;
    std::uint64_t ioSeed = 0;
    /** Seed server to crash, and when (negative = never). */
    unsigned crashServer = 0;
    double crashAtS = -1.0;
    /** Simulated-time limit of the timed phase. */
    double deadlineS = 0.0;
};

/**
 * The scenarios one run measures: regions built from sub-seeds of
 * @p seed. Their results are pooled, so one run reports over several
 * independent draws of the inputs and depends less on any one.
 */
std::vector<Plan> makePlans(Workload w, std::uint64_t seed);

/** What one scenario measured, in poolable form. */
struct IterResult
{
    /** Simulated counters, summed when pooled ("max." keys take the
     *  maximum). Exact and seed-determined. */
    std::map<std::string, double> sums;
    /** Simulated per-lease and per-I/O samples, concatenated. */
    std::map<std::string, std::vector<double>> samples;
    /** Host-time measurements. */
    double setupS = 0.0;
    double wallS = 0.0;
    double nsPerEvent = 0.0;
    std::vector<std::string> errors; ///< correctness failures
};

/** Pooled metrics of a set of scenario results. */
struct Summary
{
    std::map<std::string, double> sim;
    /** Tail percentile and sample count per *_tail_* metric. */
    std::map<std::string, Tail> tails;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/**
 * Set up the region, run the timed phase to settlement, verify and
 * collect counters. @p spans (may be disarmed) records the
 * benchmark's calls into each layer.
 */
IterResult runIteration(const Plan &plan, Probes &spans);

/** Host seconds to build @p plan's region and register its images
 *  (the set-up part of runIteration alone). */
double setupSeconds(const Plan &plan);

/** Fingerprint of everything simulated in @p r. */
std::uint64_t simFingerprint(const IterResult &r);

/** Pool @p results and derive every simulated metric. */
Summary summarize(const std::vector<const IterResult *> &results);

} // namespace perfbench

#endif // PERFBENCH_WORLD_HH
