/**
 * @file
 * Tests of the lease phase check and split: ordered milestones, a
 * copy that finishes while the guest still boots (before and after
 * the guest's boot ends relative to bare metal) and a dispatch gap
 * are accepted and tile submit -> bare metal exactly, tick for tick;
 * a missing milestone or any other order is rejected. Exit status 0
 * when every case passes.
 */

#include <cstdio>

#include "phases.hh"

using namespace perfbench;

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::printf("FAIL %s\n", what);
        ++failures;
    }
}

Tick
sum(const Parts &p)
{
    Tick s = 0;
    for (Tick t : p)
        s += t;
    return s;
}

/** @p m is accepted and its parts are exactly @p want. */
void
accepts(const Milestones &m, const Parts &want, bool early,
        const char *what)
{
    const char *why = checkMilestones(m);
    if (why) {
        std::printf("FAIL %s: rejected (%s)\n", what, why);
        ++failures;
        return;
    }
    const Parts p = splitPhases(m);
    check(p == want, what);
    check(sum(p) == m.bareMetal - m.submitted, what);
    check(copyBeforeBoot(m) == early, what);
}

void
rejects(const Milestones &m, const char *what)
{
    check(checkMilestones(m) != nullptr, what);
}

} // namespace

int
main()
{
    accepts({100, 150, 150, 150, 5150, 7150, 9150, 9400},
            {50, 0, 0, 5000, 2000, 2000, 250}, false, "ordered");
    // A lease submitted at t=0 on a warm machine: the first four
    // milestones are all 0.
    accepts({0, 0, 0, 0, 5000, 7000, 9000, 9020},
            {0, 0, 0, 5000, 2000, 2000, 20}, false, "all at t=0");
    // The copy lands and the node de-virtualizes while the guest is
    // still booting: guest boot is cut at bare metal.
    accepts({0, 0, 0, 0, 5000, 9000, 7000, 7200},
            {0, 0, 0, 5000, 2200, 0, 0}, true,
            "bare metal before guest boot");
    // The copy lands first, the guest finishes before bare metal.
    accepts({0, 0, 0, 0, 5000, 7100, 7000, 7200},
            {0, 0, 0, 5000, 2100, 0, 100}, true,
            "copy before guest boot");
    // A gap between placement and power-on is its own part.
    accepts({10, 20, 70, 70, 100, 200, 300, 330},
            {10, 50, 0, 30, 100, 100, 30}, false, "dispatch gap");

    rejects({100, 150, 150, 0, 5150, 7150, 9150, 9400},
            "zero firmwareDone after a non-zero power-on");
    rejects({100, 150, 150, 150, 0, 7150, 9150, 9400}, "zero vmmReady");
    rejects({100, 150, 150, 150, 5150, 0, 9150, 9400},
            "zero guestBootDone");
    rejects({100, 150, 150, 150, 5150, 7150, 9150, 0}, "zero bareMetal");
    rejects({100, 50, 150, 150, 5150, 7150, 9150, 9400},
            "placed before submitted");
    rejects({100, 150, 120, 150, 5150, 7150, 9150, 9400},
            "power-on before placement");
    rejects({100, 150, 150, 6000, 5150, 7150, 9150, 9400},
            "VMM ready before firmware done");
    rejects({100, 150, 150, 150, 5150, 7150, 5000, 9400},
            "copy complete before VMM ready");
    rejects({100, 150, 150, 150, 5150, 7150, 9150, 9000},
            "bare metal before copy complete");

    // Small-grid property: every accepted order tiles exactly.
    unsigned accepted = 0, rejected = 0;
    for (Tick a = 0; a < 4; ++a)
        for (Tick b = 0; b < 4; ++b)
            for (Tick c = 0; c < 4; ++c)
                for (Tick d = 0; d < 4; ++d) {
                    Milestones x{1, 1 + a, 2 + a, 2 + b, 3 + c,
                                 4 + d, 2 + c + d, 8};
                    if (checkMilestones(x)) {
                        ++rejected;
                        continue;
                    }
                    ++accepted;
                    check(sum(splitPhases(x)) == 7, "grid: parts tile");
                }
    check(accepted > 0 && rejected > 0, "grid covers both outcomes");
    std::printf("phase_test: %u accepted, %u rejected grid cases, "
                "%d failures\n",
                accepted, rejected, failures);
    return failures == 0 ? 0 : 1;
}
