#include "schedule/freq_select.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include <gtest/gtest.h>

#include "util/prng.hpp"

namespace fastmon {
namespace {

/// Test-only oracle: minimum piercing points for single-interval ranges
/// by the classic earliest-right-endpoint sweep (provably minimal).
/// Empty ranges are skipped; std::nullopt if some range has several
/// intervals.
std::optional<std::vector<Time>> stabbing_periods(
    std::span<const IntervalSet> fault_ranges) {
    std::vector<Interval> intervals;
    for (const IntervalSet& r : fault_ranges) {
        if (r.empty()) continue;
        if (r.size() > 1) return std::nullopt;
        intervals.push_back(r[0]);
    }
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) { return a.hi < b.hi; });
    std::vector<Time> points;
    Time last = -std::numeric_limits<Time>::infinity();
    for (const Interval& iv : intervals) {
        if (last >= iv.lo && last < iv.hi) continue;  // already pierced
        // Pierce strictly inside the half-open interval, just below hi
        // (the earliest-deadline point of the classic exchange argument).
        last = iv.hi - 1e-6 * iv.length();
        points.push_back(last);
    }
    return points;
}

TEST(Stabbing, SimpleChain) {
    std::vector<IntervalSet> ranges(3);
    ranges[0].add(0.0, 10.0);
    ranges[1].add(5.0, 15.0);
    ranges[2].add(20.0, 30.0);
    const auto points = stabbing_periods(ranges);
    ASSERT_TRUE(points.has_value());
    EXPECT_EQ(points->size(), 2u);  // one pierces [5,10), one [20,30)
    for (const IntervalSet& r : ranges) {
        bool hit = false;
        for (Time t : *points) {
            if (r.contains(t)) hit = true;
        }
        EXPECT_TRUE(hit);
    }
}

TEST(Stabbing, RefusesMultiIntervalRanges) {
    std::vector<IntervalSet> ranges(1);
    ranges[0].add(0.0, 1.0);
    ranges[0].add(5.0, 6.0);
    EXPECT_FALSE(stabbing_periods(ranges).has_value());
}

TEST(Stabbing, SkipsEmptyRanges) {
    std::vector<IntervalSet> ranges(3);
    ranges[1].add(2.0, 4.0);
    const auto points = stabbing_periods(ranges);
    ASSERT_TRUE(points.has_value());
    EXPECT_EQ(points->size(), 1u);
}

// Property: stabbing is optimal; the branch-and-bound covering over the
// discretized candidates must find the same count on single-interval
// instances — validating discretization plus the exact covering path.
class StabbingVsBranchAndBound
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StabbingVsBranchAndBound, SameOptimalCount) {
    Prng rng(GetParam() * 1009 + 17);
    std::vector<IntervalSet> ranges(80);
    for (auto& r : ranges) {
        const Time lo = rng.uniform(0.0, 300.0);
        r.add(lo, lo + rng.uniform(3.0, 50.0));
    }
    const auto points = stabbing_periods(ranges);
    ASSERT_TRUE(points.has_value());
    FrequencySelectOptions bnb;
    bnb.method = SelectMethod::BranchAndBound;
    const FrequencySelection sb = select_frequencies(ranges, bnb);
    ASSERT_TRUE(sb.feasible);
    EXPECT_EQ(sb.num_covered_faults, ranges.size());
    EXPECT_LE(sb.lower_bound, points->size());
    if (sb.proven_optimal) {
        EXPECT_EQ(sb.periods.size(), points->size());
    } else {
        EXPECT_GE(sb.periods.size(), points->size());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StabbingVsBranchAndBound,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace fastmon
