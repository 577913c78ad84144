// Test frequency selection — optimization step 1 (Sec. IV-B/C).
//
// Because every frequency switch forces a PLL relock costing thousands
// of cycles, the number of FAST frequencies dominates test time; step 1
// therefore covers all (or a target fraction of) the target faults with
// the minimum number of test clock periods.  Candidates come from the
// observation-time discretization; the covering problem is solved
// either greedily (the baseline heuristic of [17]) or exactly by branch
// and bound (the paper's ILP).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "opt/set_cover.hpp"
#include "schedule/discretize.hpp"

namespace fastmon {

enum class SelectMethod : std::uint8_t {
    Greedy,         ///< heuristic baseline [17]
    BranchAndBound, ///< exact within budget (the paper's ILP)
};

struct FrequencySelection {
    /// Selected test clock periods, increasing.
    std::vector<Time> periods;
    /// Per selected period: covered fault indices (into the input span).
    std::vector<std::vector<std::uint32_t>> covered;
    std::size_t num_covered_faults = 0;
    bool proven_optimal = false;
    /// Lower bound on the number of periods (SetCoverResult::lower_bound).
    std::size_t lower_bound = 0;
    bool feasible = false;
};

struct FrequencySelectOptions {
    SelectMethod method = SelectMethod::BranchAndBound;
    double coverage = 1.0;  ///< fraction of coverable faults to cover
    DiscretizeOptions discretize;
    SetCoverOptions solver;
};

/// Selects periods covering `coverage` of the faults that are coverable
/// at all (faults with empty ranges are excluded from the base).
FrequencySelection select_frequencies(std::span<const IntervalSet> fault_ranges,
                                      const FrequencySelectOptions& options);

}  // namespace fastmon
