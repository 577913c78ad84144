#include "schedule/pattern_config_select.hpp"

#include <algorithm>
#include <map>

#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace fastmon {

namespace {

/// Minimal (pattern, config) cover of one period's fault `share`;
/// `entries` are the period's target-fault entries.
PatternConfigMemo::Solved solve_period(
    std::span<const DetectionEntry* const> entries,
    std::span<const std::uint32_t> share,
    std::span<const std::uint32_t> assigned_period,
    std::span<const std::uint32_t> element_of, std::uint32_t pi,
    const PatternConfigOptions& options) {
    // Columns: (pattern, config) -> covered elements at this period.
    std::map<std::pair<std::uint32_t, std::uint16_t>,
             std::vector<std::uint32_t>>
        columns;
    for (const DetectionEntry* e : entries) {
        if (assigned_period[e->fault_index] != pi) continue;
        columns[{e->pattern, e->config}].push_back(element_of[e->fault_index]);
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
    PatternConfigMemo::Solved solved;
    solved.proven_optimal = cover.proven_optimal;
    solved.lower_bound =
        cover.proven_optimal ? cover.chosen.size() : cover.lower_bound;
    for (std::uint32_t s : cover.chosen) {
        solved.chosen.push_back(column_keys[s]);
    }
    if (!cover.feasible) {
        // Elements uncoverable at the assigned period (should not
        // happen; defensive accounting).
        std::vector<bool> covered(inst.num_elements, false);
        for (std::uint32_t s : cover.chosen) {
            for (std::uint32_t e : inst.sets[s]) covered[e] = true;
        }
        for (std::uint32_t k = 0; k < share.size(); ++k) {
            if (!covered[k]) solved.uncovered.push_back(share[k]);
        }
    }
    return solved;
}

}  // namespace

PatternConfigResult select_pattern_configs(
    std::span<const DetectionEntry> entries, std::span<const Time> periods,
    std::span<const std::uint32_t> target_faults,
    const PatternConfigOptions& options, PatternConfigMemo* memo) {
    const TraceSpan span("pattern_config_select", "schedule");
    MetricsRegistry& reg = MetricsRegistry::global();
    reg.counter("schedule.pattern_config.calls").add(1);
    reg.counter("schedule.pattern_config.entries").add(entries.size());
    reg.counter("schedule.pattern_config.periods").add(periods.size());
    PatternConfigResult result;
    result.proven_optimal = true;
    result.schedule.periods.assign(periods.begin(), periods.end());

    // Dense per-fault arrays over the target fault indices.
    constexpr std::uint32_t kNone = UINT32_MAX;
    std::uint32_t num_faults = 0;
    for (std::uint32_t fi : target_faults) {
        num_faults = std::max(num_faults, fi + 1);
    }
    std::vector<char> is_target(num_faults, 0);
    for (std::uint32_t fi : target_faults) is_target[fi] = 1;

    // Target-fault entries bucketed by period, in table order.
    std::vector<std::vector<const DetectionEntry*>> by_period(periods.size());
    for (const DetectionEntry& e : entries) {
        if (e.fault_index < num_faults && is_target[e.fault_index] != 0) {
            by_period[e.period].push_back(&e);
        }
    }

    // Per period: how many target faults are detectable there at all.
    std::vector<std::size_t> detectable(periods.size(), 0);
    {
        std::vector<std::uint32_t> seen_at(num_faults, kNone);
        for (std::uint32_t pi = 0; pi < periods.size(); ++pi) {
            for (const DetectionEntry* e : by_period[pi]) {
                if (seen_at[e->fault_index] != pi) {
                    seen_at[e->fault_index] = pi;
                    ++detectable[pi];
                }
            }
        }
    }

    // Fault dropping: periods ordered by detectable count (descending);
    // each fault is assigned to the first period that detects it.
    std::vector<std::uint32_t> period_order(periods.size());
    for (std::uint32_t i = 0; i < periods.size(); ++i) period_order[i] = i;
    std::sort(period_order.begin(), period_order.end(),
              [&detectable](std::uint32_t a, std::uint32_t b) {
                  return detectable[a] > detectable[b];
              });
    std::vector<std::uint32_t> assigned_period(num_faults, kNone);
    for (std::uint32_t pi : period_order) {
        for (const DetectionEntry* e : by_period[pi]) {
            if (assigned_period[e->fault_index] == kNone) {
                assigned_period[e->fault_index] = pi;
            }
        }
    }
    for (std::uint32_t fi : target_faults) {
        if (assigned_period[fi] == kNone) result.uncovered_faults.push_back(fi);
    }

    // Fault share of each period, ascending; element_of maps a fault to
    // its position in its own period's share.
    std::vector<std::vector<std::uint32_t>> shares(periods.size());
    std::vector<std::uint32_t> element_of(num_faults, kNone);
    for (std::uint32_t fi = 0; fi < num_faults; ++fi) {
        if (assigned_period[fi] == kNone) continue;  // not a detected target
        std::vector<std::uint32_t>& share = shares[assigned_period[fi]];
        element_of[fi] = static_cast<std::uint32_t>(share.size());
        share.push_back(fi);
    }

    const auto fold = [&](std::uint32_t pi,
                          const PatternConfigMemo::Solved& solved) {
        if (options.method == SelectMethod::BranchAndBound &&
            !solved.proven_optimal) {
            result.proven_optimal = false;
        }
        result.lower_bound += solved.lower_bound;
        for (const auto& [pattern, config] : solved.chosen) {
            result.schedule.entries.push_back(
                ScheduleEntry{pi, pattern, config});
        }
        result.uncovered_faults.insert(result.uncovered_faults.end(),
                                       solved.uncovered.begin(),
                                       solved.uncovered.end());
    };

    // Per period: set cover over (pattern, config) pairs.
    for (std::uint32_t pi = 0; pi < periods.size(); ++pi) {
        if (shares[pi].empty()) continue;
        auto key = std::make_pair(periods[pi], std::move(shares[pi]));
        if (memo != nullptr) {
            if (const auto it = memo->solved.find(key);
                it != memo->solved.end()) {
                reg.counter("schedule.pattern_config.reused").add(1);
                fold(pi, it->second);
                continue;
            }
        }
        PatternConfigMemo::Solved solved =
            solve_period(by_period[pi], key.second, assigned_period,
                         element_of, pi, options);
        fold(pi, solved);
        if (memo != nullptr) {
            memo->solved.emplace(std::move(key), std::move(solved));
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
