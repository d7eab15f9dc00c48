/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering and
 * cancellation, interval-set algebra (property-style sweeps), RNG
 * distributions, statistics, and the table renderer.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "simcore/event_queue.hh"
#include "simcore/interval_set.hh"
#include "simcore/logging.hh"
#include "simcore/random.hh"
#include "simcore/stats.hh"
#include "simcore/table.hh"

namespace {

TEST(EventQueue, RunsInTimeOrder)
{
    sim::EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, StableForEqualTimes)
{
    sim::EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution)
{
    sim::EventQueue eq;
    bool ran = false;
    auto id = eq.schedule(10, [&]() { ran = true; });
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id)); // second cancel is a no-op
    eq.run();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, EventsMayScheduleEvents)
{
    sim::EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&]() {
        if (++depth < 5)
            eq.schedule(1, chain);
    };
    eq.schedule(1, chain);
    eq.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, RunUntilAdvancesTimeWithoutEvents)
{
    sim::EventQueue eq;
    eq.runUntil(1000);
    EXPECT_EQ(eq.now(), 1000u);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    sim::EventQueue eq;
    eq.schedule(10, []() {});
    eq.run();
    EXPECT_THROW(eq.scheduleAt(5, []() {}), sim::PanicError);
}

TEST(EventQueue, RunWithLimitStopsEarly)
{
    sim::EventQueue eq;
    int count = 0;
    for (int i = 1; i <= 10; ++i)
        eq.schedule(sim::Tick(i) * 10, [&]() { ++count; });
    eq.run(50);
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.pending(), 5u);
}

// --- IntervalSet ---

TEST(IntervalSet, InsertAndCover)
{
    sim::IntervalSet s;
    s.insert(10, 20);
    EXPECT_TRUE(s.covers(10, 20));
    EXPECT_TRUE(s.covers(12, 15));
    EXPECT_FALSE(s.covers(9, 11));
    EXPECT_FALSE(s.covers(19, 21));
    EXPECT_EQ(s.coveredCount(), 10u);
}

TEST(IntervalSet, MergesAdjacentAndOverlapping)
{
    sim::IntervalSet s;
    s.insert(10, 20);
    s.insert(20, 30); // adjacent
    EXPECT_EQ(s.intervalCount(), 1u);
    s.insert(5, 12); // overlapping
    EXPECT_EQ(s.intervalCount(), 1u);
    EXPECT_TRUE(s.covers(5, 30));
    s.insert(40, 50);
    EXPECT_EQ(s.intervalCount(), 2u);
    s.insert(25, 45); // bridges
    EXPECT_EQ(s.intervalCount(), 1u);
    EXPECT_TRUE(s.covers(5, 50));
}

TEST(IntervalSet, EraseSplits)
{
    sim::IntervalSet s;
    s.insert(0, 100);
    s.erase(40, 60);
    EXPECT_TRUE(s.covers(0, 40));
    EXPECT_TRUE(s.covers(60, 100));
    EXPECT_FALSE(s.intersects(40, 60));
    EXPECT_EQ(s.intervalCount(), 2u);
}

TEST(IntervalSet, GapsEnumeration)
{
    sim::IntervalSet s;
    s.insert(10, 20);
    s.insert(30, 40);
    auto gaps = s.gaps(0, 50);
    ASSERT_EQ(gaps.size(), 3u);
    EXPECT_EQ(gaps[0], sim::IntervalSet::Range(0, 10));
    EXPECT_EQ(gaps[1], sim::IntervalSet::Range(20, 30));
    EXPECT_EQ(gaps[2], sim::IntervalSet::Range(40, 50));
}

TEST(IntervalSet, FirstGap)
{
    sim::IntervalSet s;
    s.insert(0, 10);
    EXPECT_EQ(s.firstGap(0, 100).value(), 10u);
    s.insert(10, 100);
    EXPECT_FALSE(s.firstGap(0, 100).has_value());
}

/** Property: IntervalSet agrees with a reference std::set<uint64>
 *  under random operation sequences. */
class IntervalSetProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(IntervalSetProperty, MatchesReferenceSet)
{
    sim::Rng rng(GetParam());
    sim::IntervalSet s;
    std::set<std::uint64_t> ref;
    constexpr std::uint64_t kSpace = 400;

    for (int op = 0; op < 300; ++op) {
        std::uint64_t a = rng.uniformInt(0, kSpace - 1);
        std::uint64_t b = a + rng.uniformInt(1, 24);
        if (rng.chance(0.7)) {
            s.insert(a, b);
            for (std::uint64_t p = a; p < b; ++p)
                ref.insert(p);
        } else {
            s.erase(a, b);
            for (std::uint64_t p = a; p < b; ++p)
                ref.erase(p);
        }
    }

    EXPECT_EQ(s.coveredCount(), ref.size());
    for (std::uint64_t p = 0; p < kSpace + 30; ++p)
        ASSERT_EQ(s.contains(p), ref.count(p) > 0) << "point " << p;

    // Gaps + intervals partition the space.
    auto gaps = s.gaps(0, kSpace + 30);
    std::uint64_t gap_total = 0;
    for (auto [x, y] : gaps)
        gap_total += y - x;
    EXPECT_EQ(gap_total + s.coveredCount(),
              kSpace + 30 -
                  (ref.empty()
                       ? 0
                       : 0)); // everything outside ref is a gap
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetProperty,
                         ::testing::Range(1, 9));

// --- Rng ---

TEST(Rng, Deterministic)
{
    sim::Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformBounds)
{
    sim::Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        auto v = rng.uniformInt(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
    }
}

TEST(Rng, ExponentialMean)
{
    sim::Rng rng(11);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(100.0);
    EXPECT_NEAR(sum / n, 100.0, 3.0);
}

TEST(Rng, ZipfIsSkewed)
{
    sim::Rng rng(13);
    std::map<std::uint64_t, int> hist;
    for (int i = 0; i < 20000; ++i)
        ++hist[rng.zipf(1000)];
    // Rank 0 must dominate, and all draws must be in range.
    EXPECT_GT(hist[0], hist[10]);
    EXPECT_GT(hist[0], 500);
    for (auto &[k, v] : hist)
        EXPECT_LT(k, 1000u);
}

TEST(Rng, SeedFromNameIsStable)
{
    EXPECT_EQ(sim::Rng::seedFrom("node0", 1),
              sim::Rng::seedFrom("node0", 1));
    EXPECT_NE(sim::Rng::seedFrom("node0", 1),
              sim::Rng::seedFrom("node1", 1));
}

// --- Stats ---

TEST(Distribution, SummaryStatistics)
{
    sim::Distribution d;
    for (int i = 1; i <= 100; ++i)
        d.add(i);
    EXPECT_DOUBLE_EQ(d.mean(), 50.5);
    EXPECT_DOUBLE_EQ(d.min(), 1);
    EXPECT_DOUBLE_EQ(d.max(), 100);
    EXPECT_NEAR(d.percentile(50), 50, 1);
    EXPECT_NEAR(d.percentile(99), 99, 1);
    EXPECT_NEAR(d.stddev(), 29.0, 0.5);
}

TEST(RateMeter, WindowedRate)
{
    sim::RateMeter m(1000); // 1 us window in ticks
    for (sim::Tick t = 0; t < 1000; t += 100)
        m.record(t);
    EXPECT_GT(m.ratePerSec(999), 0.0);
    // Far in the future the window is empty.
    EXPECT_DOUBLE_EQ(m.ratePerSec(1000000), 0.0);
}

TEST(Table, RowWidthMismatchPanics)
{
    sim::Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), sim::PanicError);
}

TEST(Table, RendersAligned)
{
    sim::Table t({"name", "value"});
    t.addRow({"x", "1.00"});
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("name"), std::string::npos);
    EXPECT_NE(os.str().find("x"), std::string::npos);
}

TEST(Logging, PanicAndFatalThrow)
{
    EXPECT_THROW(sim::panic("boom"), sim::PanicError);
    EXPECT_THROW(sim::fatal("bad config"), sim::FatalError);
    EXPECT_NO_THROW(sim::warn("just a warning"));
}

} // namespace
