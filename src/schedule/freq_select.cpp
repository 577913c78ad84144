#include "schedule/freq_select.hpp"

#include <algorithm>

#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace fastmon {

FrequencySelection select_frequencies(
    std::span<const IntervalSet> fault_ranges,
    const FrequencySelectOptions& options) {
    const TraceSpan span("freq_select", "schedule");
    MetricsRegistry& reg = MetricsRegistry::global();
    reg.counter("schedule.freq_select.calls").add(1);
    reg.counter("schedule.freq_select.faults").add(fault_ranges.size());
    FrequencySelection sel;

    const DiscretizationResult disc =
        discretize_observation_times(fault_ranges, options.discretize);
    if (disc.candidates.empty()) {
        sel.feasible = fault_ranges.empty();
        sel.proven_optimal = true;
        return sel;
    }

    // Coverable faults (non-empty range) form the element base; the
    // coverage target refers to them.
    std::vector<std::uint32_t> coverable;
    std::vector<std::uint32_t> element_of_fault(fault_ranges.size(), UINT32_MAX);
    for (std::uint32_t fi = 0; fi < fault_ranges.size(); ++fi) {
        if (!fault_ranges[fi].empty()) {
            element_of_fault[fi] = static_cast<std::uint32_t>(coverable.size());
            coverable.push_back(fi);
        }
    }

    SetCoverInstance inst;
    inst.num_elements = static_cast<std::uint32_t>(coverable.size());
    inst.sets.resize(disc.candidates.size());
    for (std::size_t c = 0; c < disc.candidates.size(); ++c) {
        for (std::uint32_t fi : disc.covered[c]) {
            inst.sets[c].push_back(element_of_fault[fi]);
        }
        std::sort(inst.sets[c].begin(), inst.sets[c].end());
    }

    SetCoverOptions solver = options.solver;
    solver.coverage = options.coverage;
    const SetCoverResult cover =
        options.method == SelectMethod::Greedy
            ? greedy_set_cover(inst, solver)
            : solve_set_cover(inst, solver);

    sel.feasible = cover.feasible;
    sel.proven_optimal =
        options.method != SelectMethod::Greedy && cover.proven_optimal;
    sel.lower_bound = cover.lower_bound;

    std::vector<std::uint32_t> chosen = cover.chosen;
    std::sort(chosen.begin(), chosen.end(), [&disc](std::uint32_t a, std::uint32_t b) {
        return disc.candidates[a] < disc.candidates[b];
    });
    std::vector<bool> fault_done(fault_ranges.size(), false);
    for (std::uint32_t c : chosen) {
        sel.periods.push_back(disc.candidates[c]);
        std::vector<std::uint32_t> faults = disc.covered[c];
        std::sort(faults.begin(), faults.end());
        sel.covered.push_back(std::move(faults));
    }
    for (const auto& faults : sel.covered) {
        for (std::uint32_t fi : faults) {
            if (!fault_done[fi]) {
                fault_done[fi] = true;
                ++sel.num_covered_faults;
            }
        }
    }
    reg.counter("schedule.freq_select.periods").add(sel.periods.size());
    return sel;
}

}  // namespace fastmon
