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
#include <span>
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

/// `entries` is the pass-B detection table over `periods` (period
/// indices in the entries refer to positions in `periods`);
/// `target_faults` lists the fault indices that must be covered.
PatternConfigResult select_pattern_configs(
    std::span<const DetectionEntry> entries, std::span<const Time> periods,
    std::span<const std::uint32_t> target_faults,
    const PatternConfigOptions& options);

}  // namespace fastmon
