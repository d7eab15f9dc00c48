/**
 * @file
 * Tests for the fast simulation kernel: the heap-based EventQueue is
 * driven against a reference std::multimap model under 100k random
 * schedule/cancel/runUntil operations (identical execution order,
 * timestamps and counts required), InlineCallback's move semantics /
 * capture-size limit / destruction counting are checked directly,
 * and the generation-stamped EventId cancellation contract
 * (cancel-after-run, double-cancel, slot reuse) is pinned down.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "simcore/event_queue.hh"
#include "simcore/inline_callback.hh"
#include "simcore/random.hh"

namespace {

// --- Reference model -------------------------------------------------

/** The old std::map-based kernel, kept as the executable spec. */
class ModelQueue
{
  public:
    using Key = std::pair<sim::Tick, std::uint64_t>;

    std::uint64_t
    schedule(sim::Tick delay, int payload)
    {
        std::uint64_t seq = nextSeq++;
        events.emplace(Key{curTick + delay, seq}, payload);
        return seq;
    }

    bool
    cancel(sim::Tick when, std::uint64_t seq)
    {
        return events.erase(Key{when, seq}) > 0;
    }

    /** Run through @p when; append (tick, payload) to @p log. */
    void
    runUntil(sim::Tick when,
             std::vector<std::pair<sim::Tick, int>> &log)
    {
        while (!events.empty() &&
               events.begin()->first.first <= when) {
            auto it = events.begin();
            curTick = it->first.first;
            log.emplace_back(curTick, it->second);
            events.erase(it);
        }
        if (when > curTick)
            curTick = when;
    }

    sim::Tick now() const { return curTick; }
    std::size_t pending() const { return events.size(); }

  private:
    sim::Tick curTick = 0;
    std::uint64_t nextSeq = 1;
    std::map<Key, int> events;
};

/** Drive EventQueue and ModelQueue with the same op stream; assert
 *  identical traces. */
class KernelProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(KernelProperty, MatchesReferenceModel)
{
    sim::Rng rng(GetParam());
    sim::EventQueue eq;
    ModelQueue model;

    std::vector<std::pair<sim::Tick, int>> gotLog, wantLog;

    struct Live
    {
        sim::EventId id;
        sim::Tick when = 0;
        std::uint64_t modelSeq = 0;
    };
    std::vector<Live> cancellable;
    int nextPayload = 0;

    constexpr int kOps = 100000;
    for (int op = 0; op < kOps; ++op) {
        double dice = rng.uniform();
        if (dice < 0.55) {
            // Schedule.
            sim::Tick delay = rng.uniformInt(0, 500);
            int payload = nextPayload++;
            Live lv;
            lv.when = eq.now() + delay;
            lv.id = eq.schedule(
                delay, [payload, &gotLog, &eq]() {
                    gotLog.emplace_back(eq.now(), payload);
                });
            lv.modelSeq = model.schedule(delay, payload);
            cancellable.push_back(lv);
        } else if (dice < 0.75 && !cancellable.empty()) {
            // Cancel a random still-tracked handle (it may have
            // run already — both sides must agree on the outcome).
            std::size_t pick =
                rng.uniformInt(0, cancellable.size() - 1);
            Live lv = cancellable[pick];
            bool got = eq.cancel(lv.id);
            bool want = model.cancel(lv.when, lv.modelSeq);
            ASSERT_EQ(got, want) << "cancel mismatch at op " << op;
            cancellable.erase(cancellable.begin() + pick);
        } else {
            // Advance time.
            sim::Tick until = eq.now() + rng.uniformInt(0, 300);
            eq.runUntil(until);
            model.runUntil(until, wantLog);
            ASSERT_EQ(eq.now(), model.now());
            ASSERT_EQ(eq.pending(), model.pending())
                << "pending mismatch at op " << op;
        }
    }
    // Drain everything left.
    eq.run();
    model.runUntil(~sim::Tick(0) - 1000, wantLog);

    ASSERT_EQ(gotLog.size(), wantLog.size());
    for (std::size_t i = 0; i < gotLog.size(); ++i) {
        ASSERT_EQ(gotLog[i].first, wantLog[i].first)
            << "timestamp diverges at event " << i;
        ASSERT_EQ(gotLog[i].second, wantLog[i].second)
            << "order diverges at event " << i;
    }
    EXPECT_EQ(eq.executed(), gotLog.size());
    EXPECT_EQ(eq.counters().scheduled, static_cast<std::uint64_t>(
                                           nextPayload));
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelProperty,
                         ::testing::Range(1, 6));

// --- EventId / cancellation contract ---------------------------------

TEST(EventIdSemantics, DefaultHandleIsInert)
{
    sim::EventQueue eq;
    sim::EventId id;
    EXPECT_FALSE(id.valid());
    EXPECT_FALSE(eq.cancel(id));
}

TEST(EventIdSemantics, HandleStaysValidAfterExecution)
{
    sim::EventQueue eq;
    auto id = eq.schedule(5, []() {});
    EXPECT_TRUE(id.valid());
    eq.run();
    // valid() documents "ever referred to an event", not "pending".
    EXPECT_TRUE(id.valid());
    EXPECT_FALSE(eq.cancel(id)); // already ran
}

TEST(EventIdSemantics, CancelAfterRunFalseEvenAfterSlotReuse)
{
    sim::EventQueue eq;
    auto id = eq.schedule(1, []() {});
    eq.run();
    // Recycle the slot many times: the generation stamp must keep
    // the stale handle dead.
    for (int i = 0; i < 64; ++i) {
        auto id2 = eq.schedule(1, []() {});
        EXPECT_FALSE(eq.cancel(id));
        EXPECT_TRUE(eq.cancel(id2));
        eq.schedule(1, []() {});
        eq.run();
        EXPECT_FALSE(eq.cancel(id));
    }
}

TEST(EventIdSemantics, DoubleCancelSafe)
{
    sim::EventQueue eq;
    bool ran = false;
    auto id = eq.schedule(10, [&]() { ran = true; });
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id));
    eq.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(eq.counters().cancelled, 1u);
    EXPECT_EQ(eq.counters().tombstonesPopped, 1u);
}

TEST(EventIdSemantics, CancelSelfFromCallbackReportsAlreadyRan)
{
    sim::EventQueue eq;
    auto id = std::make_shared<sim::EventId>();
    bool selfCancel = true;
    *id = eq.schedule(3, [&eq, id, &selfCancel]() {
        selfCancel = eq.cancel(*id);
    });
    eq.run();
    EXPECT_FALSE(selfCancel);
}

// --- Periodic events -------------------------------------------------

TEST(PeriodicEvents, DriftFreeCadence)
{
    sim::EventQueue eq;
    std::vector<sim::Tick> fires;
    auto id = eq.schedulePeriodic(10, [&]() {
        fires.push_back(eq.now());
    });
    eq.runUntil(55);
    EXPECT_EQ(fires, (std::vector<sim::Tick>{10, 20, 30, 40, 50}));
    EXPECT_TRUE(eq.cancel(id));
    eq.runUntil(200);
    EXPECT_EQ(fires.size(), 5u);
    EXPECT_TRUE(eq.empty());
}

TEST(PeriodicEvents, CancelFromWithinOwnCallback)
{
    sim::EventQueue eq;
    int fired = 0;
    auto id = std::make_shared<sim::EventId>();
    *id = eq.schedulePeriodic(7, [&fired, &eq, id]() {
        if (++fired == 3) {
            EXPECT_TRUE(eq.cancel(*id));
        }
    });
    eq.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 21u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(PeriodicEvents, StableOrderAgainstOneShots)
{
    sim::EventQueue eq;
    std::vector<int> order;
    eq.schedulePeriodic(10, [&]() { order.push_back(1); });
    eq.schedule(10, [&]() { order.push_back(2); });
    eq.schedule(20, [&]() { order.push_back(3); });
    eq.runUntil(20);
    // Re-arming happens at firing time, exactly like a hand-rolled
    // self-rescheduling loop: the second periodic firing (seq
    // assigned at tick 10) runs after the tick-20 one-shot that was
    // scheduled at tick 0.
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 1}));
}

TEST(PeriodicEvents, CallbackStoredOnceNoPerFireScheduling)
{
    sim::EventQueue eq;
    int fires = 0;
    eq.schedulePeriodic(5, [&]() { ++fires; });
    eq.runUntil(1000);
    EXPECT_EQ(fires, 200);
    // One scheduled event, many executions: re-arming is internal.
    EXPECT_EQ(eq.counters().scheduled, 1u);
    EXPECT_EQ(eq.counters().executed, 200u);
}

// --- InlineCallback --------------------------------------------------

/** Instrumented payload for destruction/move counting. */
struct Probe
{
    static int liveCount;
    static int destroyCount;

    Probe() { ++liveCount; }
    Probe(const Probe &) { ++liveCount; }
    Probe(Probe &&) noexcept { ++liveCount; }
    ~Probe()
    {
        --liveCount;
        ++destroyCount;
    }
};

int Probe::liveCount = 0;
int Probe::destroyCount = 0;

TEST(InlineCallback, SmallCapturesStayInline)
{
    // The documented budget: closures up to kInlineBytes never
    // touch the heap.
    static_assert(sim::InlineCallback::kInlineBytes >= 48,
                  "inline budget shrank below the API promise");
    int x = 7;
    char pad[40] = {};
    sim::InlineCallback cb([x, pad]() {
        (void)x;
        (void)pad;
    });
    EXPECT_FALSE(cb.spilled());
}

TEST(InlineCallback, OversizedCapturesSpillAndAreCounted)
{
    char big[200] = {};
    auto before = sim::InlineCallback::spillCount();
    int runs = 0;
    sim::InlineCallback cb([big, &runs]() {
        (void)big;
        ++runs;
    });
    EXPECT_TRUE(cb.spilled());
    EXPECT_EQ(sim::InlineCallback::spillCount(), before + 1);
    cb(); // spilled closures must still execute correctly
    EXPECT_EQ(runs, 1);
}

TEST(InlineCallback, MoveTransfersClosure)
{
    int runs = 0;
    sim::InlineCallback a([&runs]() { ++runs; });
    sim::InlineCallback b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a)); // NOLINT: testing moved-from
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(runs, 1);

    sim::InlineCallback c;
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(b)); // NOLINT
    c();
    EXPECT_EQ(runs, 2);
}

TEST(InlineCallback, DestroysInlineCaptureExactlyOnce)
{
    Probe::liveCount = 0;
    Probe::destroyCount = 0;
    {
        sim::InlineCallback cb([p = Probe()]() { (void)p; });
        EXPECT_FALSE(cb.spilled());
        EXPECT_EQ(Probe::liveCount, 1);
        sim::InlineCallback moved(std::move(cb));
        EXPECT_EQ(Probe::liveCount, 1);
    }
    EXPECT_EQ(Probe::liveCount, 0);
}

TEST(InlineCallback, DestroysSpilledCaptureExactlyOnce)
{
    Probe::liveCount = 0;
    Probe::destroyCount = 0;
    {
        char big[200] = {};
        sim::InlineCallback cb([p = Probe(), big]() {
            (void)p;
            (void)big;
        });
        EXPECT_TRUE(cb.spilled());
        EXPECT_EQ(Probe::liveCount, 1);
        sim::InlineCallback moved(std::move(cb));
        EXPECT_EQ(Probe::liveCount, 1);
    }
    EXPECT_EQ(Probe::liveCount, 0);
}

TEST(InlineCallback, ResetReleasesOwnedResources)
{
    auto token = std::make_shared<int>(42);
    std::weak_ptr<int> watch = token;
    sim::InlineCallback cb([token = std::move(token)]() { (void)token; });
    EXPECT_FALSE(watch.expired());
    cb.reset();
    EXPECT_TRUE(watch.expired());
    EXPECT_FALSE(static_cast<bool>(cb));
}

TEST(InlineCallback, QueueReleasesCancelledClosureEagerly)
{
    // cancel() must free the closure's resources immediately, not
    // only when the tombstone pops.
    sim::EventQueue eq;
    auto token = std::make_shared<int>(1);
    std::weak_ptr<int> watch = token;
    auto id = eq.schedule(100, [token = std::move(token)]() {});
    EXPECT_FALSE(watch.expired());
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_TRUE(watch.expired());
    eq.run();
}

// --- Kernel counters -------------------------------------------------

TEST(KernelCounters, TrackSchedulingActivity)
{
    sim::EventQueue eq;
    for (int i = 0; i < 10; ++i)
        eq.schedule(sim::Tick(i) + 1, []() {});
    auto id = eq.schedule(1000, []() {});
    eq.cancel(id);
    eq.run();

    const auto &c = eq.counters();
    EXPECT_EQ(c.scheduled, 11u);
    EXPECT_EQ(c.executed, 10u);
    EXPECT_EQ(c.cancelled, 1u);
    EXPECT_EQ(c.tombstonesPopped, 1u);
    EXPECT_EQ(c.peakPending, 11u);
    EXPECT_EQ(c.spilledCallbacks, 0u);
}

TEST(KernelCounters, StepWhileStopsOnThePredicateAndCountsWallTime)
{
    sim::EventQueue eq;
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        eq.schedule(sim::Tick(i) + 1, [&fired]() { ++fired; });

    int checks = 0;
    EXPECT_EQ(eq.stepWhile([&]() {
                  ++checks;
                  return fired < 4;
              }),
              4u);
    EXPECT_EQ(checks, 5) << "checked before every event, then once more";
    EXPECT_EQ(eq.now(), 4u);
    EXPECT_EQ(eq.pending(), 6u);
    EXPECT_GT(eq.counters().wallNs, 0u)
        << "a predicate-driven loop is kernel time too";

    // An empty queue ends the loop with the predicate still true.
    EXPECT_EQ(eq.stepWhile([]() { return true; }), 6u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.counters().executed, 10u);
}

} // namespace
