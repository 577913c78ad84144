// Cross-module integration: the full pipeline's invariants, checked on
// circuits small enough to reason about, plus an end-to-end schedule
// validation against the detection table.
#include <gtest/gtest.h>

#include "fault/detection_range.hpp"
#include "flow/hdf_flow.hpp"
#include "monitor/shifting.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas_data.hpp"
#include "schedule/schedule.hpp"
#include "schedule/validate.hpp"
#include "util/metrics.hpp"

namespace fastmon {
namespace {

HdfFlowConfig quick_config(std::uint64_t seed) {
    HdfFlowConfig config;
    config.seed = seed;
    config.atpg.max_random_batches = 25;
    config.atpg.max_idle_batches = 4;
    config.solver.time_limit_sec = 3.0;
    return config;
}

// The headline mechanism, end to end: a fault whose effects settle
// before t_min is invisible to conventional FAST but becomes visible
// through the monitor's shift.
TEST(Integration, ShortPathFaultVisibleOnlyThroughMonitor) {
    GeneratorConfig gc;
    gc.name = "mechanism";
    gc.n_gates = 500;
    gc.n_ffs = 60;
    gc.n_inputs = 14;
    gc.n_outputs = 14;
    gc.depth = 16;
    gc.spread = 0.9;
    gc.seed = 321;
    const Netlist nl = generate_circuit(gc);
    HdfFlow flow(nl, quick_config(321));
    flow.prepare();

    const Time t_min = flow.sta().clock_period / 3.0;
    std::size_t monitor_only = 0;
    for (std::size_t i = 0; i < flow.ranges().size(); ++i) {
        const FaultRanges& r = flow.ranges()[i];
        const bool conv = !flow.ff_range_in_window(i).empty();
        const bool prop = !flow.full_range_in_window(i).empty();
        if (prop && !conv) {
            ++monitor_only;
            // Such a fault's FF range must lie (partly) below t_min.
            ASSERT_FALSE(r.ff.empty());
            EXPECT_LT(r.ff.min(), t_min);
        }
        if (conv) {
            EXPECT_TRUE(prop);  // monitors never lose coverage
        }
    }
    EXPECT_GT(monitor_only, 10u);
}

// Detection ranges are consistent with the timing analysis.  Note the
// sound bound is the *output* arrival, not the path through the site:
// a fault effect can change the circuit state and thereby echo on
// later transitions that arrive over site-free paths.
TEST(Integration, RangesRespectStructuralBounds) {
    GeneratorConfig gc;
    gc.name = "bounds";
    gc.n_gates = 400;
    gc.n_ffs = 40;
    gc.n_inputs = 12;
    gc.n_outputs = 12;
    gc.depth = 12;
    gc.spread = 0.5;
    gc.seed = 322;
    const Netlist nl = generate_circuit(gc);
    HdfFlow flow(nl, quick_config(322));
    flow.prepare();
    const auto& sta = flow.sta();
    const auto& uni = flow.universe();
    const auto faults = flow.simulated_faults();
    for (std::size_t i = 0; i < faults.size(); ++i) {
        const FaultRanges& r = flow.ranges()[i];
        if (r.ff.empty()) continue;
        const DelayFault& f = uni.fault(faults[i]);
        EXPECT_LE(r.ff.max(), sta.critical_path_length + f.delta + 1e-6)
            << uni.fault_name(nl, faults[i]);
        // The difference cannot begin before the fastest path through
        // the site even starts switching.
        EXPECT_GE(r.ff.min(), sta.min_arrival[f.site.gate] - 1e-6)
            << uni.fault_name(nl, faults[i]);
    }
}

// The full schedule produced by the flow validates against an
// independently computed detection table.
TEST(Integration, ScheduleValidatesAgainstDetectionTable) {
    GeneratorConfig gc;
    gc.name = "sched_valid";
    gc.n_gates = 450;
    gc.n_ffs = 50;
    gc.n_inputs = 12;
    gc.n_outputs = 12;
    gc.depth = 14;
    gc.spread = 0.8;
    gc.seed = 323;
    const Netlist nl = generate_circuit(gc);
    HdfFlow flow(nl, quick_config(323));
    flow.prepare();

    // Recreate step 1 + pass B + step 2 by hand from flow artifacts.
    std::vector<IntervalSet> target_ranges;
    std::vector<DelayFault> target_faults;
    std::vector<FaultRanges> target_fault_ranges;
    for (std::uint32_t pos : flow.target_positions()) {
        target_ranges.push_back(flow.full_range_in_window(pos));
        target_faults.push_back(
            flow.universe().fault(flow.simulated_faults()[pos]));
        target_fault_ranges.push_back(flow.ranges()[pos]);
    }
    ASSERT_FALSE(target_faults.empty());

    FrequencySelectOptions fopts;
    const FrequencySelection sel = select_frequencies(target_ranges, fopts);
    ASSERT_TRUE(sel.feasible);

    const WaveSim wave_sim(nl, flow.delays(), flow.config().wave);
    DetectionAnalysisConfig dac;
    dac.glitch_threshold = flow.delays().glitch_threshold();
    dac.horizon = flow.sta().clock_period * 1.02;
    const DetectionAnalyzer analyzer(wave_sim, flow.patterns().patterns,
                                     flow.placement().monitored, dac);
    const auto entries = analyzer.detection_table(
        target_faults, target_fault_ranges, sel.periods,
        flow.placement().config_delays);

    std::vector<std::uint32_t> all_targets(target_faults.size());
    for (std::uint32_t i = 0; i < all_targets.size(); ++i) all_targets[i] = i;
    PatternConfigOptions pco;
    const PatternConfigResult pc =
        select_pattern_configs(entries, sel.periods, all_targets, pco);
    EXPECT_TRUE(pc.uncovered_faults.empty());

    const ScheduleValidation v =
        validate_schedule(pc.schedule, entries, all_targets);
    EXPECT_TRUE(v.valid) << v.uncovered_faults.size() << " faults uncovered";
    EXPECT_EQ(v.covered, all_targets.size());
}

// The flow solves each distinct (period, fault share) instance once: its
// full schedule and Table III rows equal fresh, memo-less selections on
// the same detection table.
TEST(HdfFlow, PatternConfigMemoMatchesFreshSolves) {
    GeneratorConfig gc;
    gc.name = "memo";
    gc.n_gates = 450;
    gc.n_ffs = 50;
    gc.n_inputs = 12;
    gc.n_outputs = 12;
    gc.depth = 14;
    gc.spread = 0.8;
    gc.seed = 323;
    const Netlist nl = generate_circuit(gc);
    const HdfFlowConfig config = quick_config(323);
    MetricsRegistry& reg = MetricsRegistry::global();
    reg.reset();
    HdfFlow flow(nl, config);
    const HdfFlowResult r = flow.run();
    ASSERT_TRUE(r.status.complete());
    EXPECT_GT(reg.counter("schedule.pattern_config.reused").value(), 0u);

    // Rebuild the flow's period selections and pass-B table.
    std::vector<IntervalSet> target_ranges;
    std::vector<DelayFault> target_faults;
    std::vector<FaultRanges> target_fault_ranges;
    for (std::uint32_t pos : flow.target_positions()) {
        target_ranges.push_back(flow.full_range_in_window(pos));
        target_faults.push_back(
            flow.universe().fault(flow.simulated_faults()[pos]));
        target_fault_ranges.push_back(flow.ranges()[pos]);
    }
    FrequencySelectOptions fopts;
    fopts.discretize = config.discretize;
    fopts.solver = config.solver;
    const FrequencySelection sel_prop =
        select_frequencies(target_ranges, fopts);
    std::vector<FrequencySelection> cov_selections;
    std::vector<Time> all_periods = sel_prop.periods;
    for (double cov : config.coverage_targets) {
        FrequencySelectOptions copts = fopts;
        copts.coverage = cov;
        cov_selections.push_back(select_frequencies(target_ranges, copts));
        all_periods.insert(all_periods.end(),
                           cov_selections.back().periods.begin(),
                           cov_selections.back().periods.end());
    }
    std::sort(all_periods.begin(), all_periods.end());
    all_periods.erase(std::unique(all_periods.begin(), all_periods.end(),
                                  [](Time a, Time b) {
                                      return std::abs(a - b) <= kTimeEps;
                                  }),
                      all_periods.end());
    const WaveSim wave_sim(nl, flow.delays(), config.wave);
    DetectionAnalysisConfig dac;
    dac.glitch_threshold = flow.delays().glitch_threshold();
    dac.horizon = flow.sta().clock_period * 1.02;
    const DetectionAnalyzer analyzer(wave_sim, flow.patterns().patterns,
                                     flow.placement().monitored, dac);
    const std::vector<DetectionEntry> all_entries = analyzer.detection_table(
        target_faults, target_fault_ranges, all_periods,
        flow.placement().config_delays);
    const auto entries_for = [&](std::span<const Time> periods) {
        std::vector<DetectionEntry> out;
        for (DetectionEntry e : all_entries) {
            const auto it = std::find_if(
                periods.begin(), periods.end(), [&](Time t) {
                    return std::abs(t - all_periods[e.period]) <= kTimeEps;
                });
            if (it == periods.end()) continue;
            e.period = static_cast<std::uint16_t>(it - periods.begin());
            out.push_back(e);
        }
        return out;
    };

    PatternConfigOptions pco;
    pco.solver = config.solver;
    std::vector<std::uint32_t> all_targets(target_faults.size());
    for (std::uint32_t i = 0; i < all_targets.size(); ++i) all_targets[i] = i;
    const PatternConfigResult full = select_pattern_configs(
        entries_for(sel_prop.periods), sel_prop.periods, all_targets, pco);
    EXPECT_EQ(r.opti_pc, full.schedule.size());
    EXPECT_EQ(r.schedule_lower_bound, full.lower_bound);
    EXPECT_EQ(r.schedule_uncovered, full.uncovered_faults.size());

    ASSERT_EQ(r.coverage_rows.size(), cov_selections.size());
    for (std::size_t k = 0; k < cov_selections.size(); ++k) {
        const FrequencySelection& sel = cov_selections[k];
        std::vector<std::uint32_t> cov_targets;
        for (const auto& covered : sel.covered) {
            cov_targets.insert(cov_targets.end(), covered.begin(),
                               covered.end());
        }
        std::sort(cov_targets.begin(), cov_targets.end());
        cov_targets.erase(std::unique(cov_targets.begin(), cov_targets.end()),
                          cov_targets.end());
        const PatternConfigResult row = select_pattern_configs(
            entries_for(sel.periods), sel.periods, cov_targets, pco);
        CoverageRow expected;
        expected.coverage = config.coverage_targets[k];
        expected.num_frequencies = sel.periods.size();
        expected.naive_pc = flow.patterns().size() *
                            flow.placement().config_delays.size() *
                            sel.periods.size();
        expected.schedule_size = row.schedule.size();
        expected.reduction_percent = schedule_reduction_percent(
            expected.schedule_size, expected.naive_pc);
        EXPECT_EQ(r.coverage_rows[k], expected)
            << "coverage " << expected.coverage;
    }
}

// The aggregated pass-A range equals the union of per-(pattern) ranges
// implied by pass-B detections: every (fault, period) claimed by the
// pass-B table is inside the aggregate full range.
TEST(Integration, PassBConsistentWithPassA) {
    const Netlist nl = make_mini_alu();
    HdfFlowConfig config = quick_config(324);
    config.monitor_fraction = 1.0;
    HdfFlow flow(nl, config);
    flow.prepare();

    std::vector<DelayFault> faults;
    std::vector<FaultRanges> ranges;
    for (std::size_t i = 0; i < flow.ranges().size(); ++i) {
        faults.push_back(flow.universe().fault(flow.simulated_faults()[i]));
        ranges.push_back(flow.ranges()[i]);
    }
    // Probe periods across the window.
    const Time clk = flow.sta().clock_period;
    std::vector<Time> periods;
    for (double f = 0.36; f < 1.0; f += 0.08) periods.push_back(f * clk);

    const WaveSim wave_sim(nl, flow.delays(), config.wave);
    DetectionAnalysisConfig dac;
    dac.glitch_threshold = flow.delays().glitch_threshold();
    dac.horizon = clk * 1.02;
    const DetectionAnalyzer analyzer(wave_sim, flow.patterns().patterns,
                                     flow.placement().monitored, dac);
    const auto entries = analyzer.detection_table(
        faults, ranges, periods, flow.placement().config_delays);
    EXPECT_FALSE(entries.empty());
    for (const DetectionEntry& e : entries) {
        const Time t = periods[e.period];
        const Time d = flow.placement().config_delays[e.config];
        const FaultRanges& r = ranges[e.fault_index];
        const bool in_ff = r.ff.contains(t);
        const bool in_sr = e.config != 0 && r.sr.contains(t - d);
        EXPECT_TRUE(in_ff || in_sr)
            << "fault " << e.fault_index << " period " << t << " config "
            << e.config;
    }
}

}  // namespace
}  // namespace fastmon
