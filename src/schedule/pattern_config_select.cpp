#include "schedule/pattern_config_select.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace fastmon {

PatternConfigResult select_pattern_configs(
    std::span<const DetectionEntry> entries, std::span<const Time> periods,
    std::span<const std::uint32_t> target_faults,
    const PatternConfigOptions& options) {
    const TraceSpan span("pattern_config_select", "schedule");
    MetricsRegistry& reg = MetricsRegistry::global();
    reg.counter("schedule.pattern_config.calls").add(1);
    reg.counter("schedule.pattern_config.entries").add(entries.size());
    reg.counter("schedule.pattern_config.periods").add(periods.size());
    PatternConfigResult result;
    result.proven_optimal = true;
    result.schedule.periods.assign(periods.begin(), periods.end());

    const std::unordered_set<std::uint32_t> targets(target_faults.begin(),
                                                    target_faults.end());

    // Per period: which target faults are detectable there at all.
    std::vector<std::unordered_set<std::uint32_t>> detectable(periods.size());
    for (const DetectionEntry& e : entries) {
        if (targets.contains(e.fault_index)) {
            detectable[e.period].insert(e.fault_index);
        }
    }

    // Fault dropping: periods ordered by detectable count (descending);
    // each fault is assigned to the first period that detects it.
    std::vector<std::uint32_t> period_order(periods.size());
    for (std::uint32_t i = 0; i < periods.size(); ++i) period_order[i] = i;
    std::sort(period_order.begin(), period_order.end(),
              [&detectable](std::uint32_t a, std::uint32_t b) {
                  return detectable[a].size() > detectable[b].size();
              });
    std::unordered_map<std::uint32_t, std::uint32_t> assigned_period;
    for (std::uint32_t pi : period_order) {
        for (std::uint32_t fi : detectable[pi]) {
            assigned_period.emplace(fi, pi);  // keeps the first assignment
        }
    }
    for (std::uint32_t fi : target_faults) {
        if (!assigned_period.contains(fi)) result.uncovered_faults.push_back(fi);
    }

    // Per period: set cover over (pattern, config) pairs.
    for (std::uint32_t pi = 0; pi < periods.size(); ++pi) {
        // Fault share of this period.
        std::vector<std::uint32_t> share;
        for (const auto& [fi, p] : assigned_period) {
            if (p == pi) share.push_back(fi);
        }
        if (share.empty()) continue;
        std::sort(share.begin(), share.end());
        std::unordered_map<std::uint32_t, std::uint32_t> element_of;
        for (std::uint32_t k = 0; k < share.size(); ++k) {
            element_of.emplace(share[k], k);
        }

        // Columns: (pattern, config) -> covered elements at this period.
        std::map<std::pair<std::uint32_t, std::uint16_t>,
                 std::vector<std::uint32_t>>
            columns;
        for (const DetectionEntry& e : entries) {
            if (e.period != pi) continue;
            auto it = element_of.find(e.fault_index);
            if (it == element_of.end()) continue;
            columns[{e.pattern, e.config}].push_back(it->second);
        }

        SetCoverInstance inst;
        inst.num_elements = static_cast<std::uint32_t>(share.size());
        std::vector<std::pair<std::uint32_t, std::uint16_t>> column_keys;
        for (auto& [key, elems] : columns) {
            std::sort(elems.begin(), elems.end());
            elems.erase(std::unique(elems.begin(), elems.end()), elems.end());
            column_keys.push_back(key);
            inst.sets.push_back(std::move(elems));
        }

        SetCoverOptions solver = options.solver;
        solver.coverage = 1.0;
        const SetCoverResult cover = options.method == SelectMethod::Greedy
                                         ? greedy_set_cover(inst, solver)
                                         : solve_set_cover(inst, solver);
        if (options.method == SelectMethod::BranchAndBound &&
            !cover.proven_optimal) {
            result.proven_optimal = false;
        }
        result.lower_bound +=
            cover.proven_optimal ? cover.chosen.size() : cover.lower_bound;
        for (std::uint32_t s : cover.chosen) {
            result.schedule.entries.push_back(ScheduleEntry{
                pi, column_keys[s].first, column_keys[s].second});
        }
        if (!cover.feasible) {
            // Elements uncoverable at the assigned period (should not
            // happen; defensive accounting).
            std::vector<bool> covered(inst.num_elements, false);
            for (std::uint32_t s : cover.chosen) {
                for (std::uint32_t e : inst.sets[s]) covered[e] = true;
            }
            for (std::uint32_t k = 0; k < share.size(); ++k) {
                if (!covered[k]) result.uncovered_faults.push_back(share[k]);
            }
        }
    }

    std::sort(result.uncovered_faults.begin(), result.uncovered_faults.end());
    reg.counter("schedule.pattern_config.chosen")
        .add(result.schedule.entries.size());
    reg.counter("schedule.pattern_config.uncovered")
        .add(result.uncovered_faults.size());
    return result;
}

}  // namespace fastmon
