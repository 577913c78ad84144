// Pattern and monitor-configuration selection — optimization step 2
// (Sec. IV-B/C).
//
// After frequency selection, faults are partitioned over the selected
// periods by a fault-dropping heuristic (periods sorted by covered
// count; each fault goes to the first period that detects it).  For
// each period the minimal set of (pattern, configuration) pairs
// covering its fault share is selected — again a set-covering problem
// solved greedily or exactly.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "fault/detection_range.hpp"
#include "schedule/freq_select.hpp"
#include "schedule/schedule.hpp"

namespace fastmon {

struct PatternConfigOptions {
    SelectMethod method = SelectMethod::BranchAndBound;
    SetCoverOptions solver;
};

struct PatternConfigResult {
    TestSchedule schedule;
    /// Faults (indices into the analyzed fault list) with no detecting
    /// (pattern, config, period) entry — should be empty when pass B ran
    /// on the same periods that cover them.
    std::vector<std::uint32_t> uncovered_faults;
    bool proven_optimal = false;
    /// Lower bound on schedule.size(): per period, the optimum where the
    /// solve proved it, SetCoverResult::lower_bound otherwise.
    std::size_t lower_bound = 0;
};

/// Solved per-period instances, shared by the calls of one flow.  A
/// period's instance depends only on the period's value and its sorted
/// fault share, so calls whose period selections share a period and its
/// share reuse the solve.  Valid only across calls on one detection
/// table (same entries per period value) with the same options.
struct PatternConfigMemo {
    struct Solved {
        /// The cover's (pattern, configuration) pairs, in solver order.
        std::vector<std::pair<std::uint32_t, std::uint16_t>> chosen;
        bool proven_optimal = false;
        /// This period's term of PatternConfigResult::lower_bound.
        std::size_t lower_bound = 0;
        /// Share faults the cover leaves uncovered.
        std::vector<std::uint32_t> uncovered;
    };
    std::map<std::pair<Time, std::vector<std::uint32_t>>, Solved> solved;
};

/// `entries` is the pass-B detection table over `periods` (period
/// indices in the entries refer to positions in `periods`);
/// `target_faults` lists the fault indices that must be covered.  With
/// a `memo`, a period instance solved by an earlier call is not solved
/// again (counted as `schedule.pattern_config.reused`); the result is
/// the same as without it.
PatternConfigResult select_pattern_configs(
    std::span<const DetectionEntry> entries, std::span<const Time> periods,
    std::span<const std::uint32_t> target_faults,
    const PatternConfigOptions& options, PatternConfigMemo* memo = nullptr);

}  // namespace fastmon
