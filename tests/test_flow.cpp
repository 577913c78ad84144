#include "flow/hdf_flow.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "flow/report.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas_data.hpp"

namespace fastmon {
namespace {

HdfFlowConfig small_config() {
    HdfFlowConfig config;
    config.seed = 5;
    config.atpg.max_random_batches = 30;
    config.atpg.max_idle_batches = 4;
    config.solver.time_limit_sec = 3.0;
    return config;
}

TEST(HdfFlow, S27EndToEnd) {
    const Netlist nl = make_s27();
    HdfFlowConfig config = small_config();
    config.monitor_fraction = 0.5;
    HdfFlow flow(nl, config);
    const HdfFlowResult r = flow.run();

    EXPECT_EQ(r.circuit, "s27");
    EXPECT_EQ(r.num_gates, 10u);
    EXPECT_EQ(r.num_ffs, 3u);
    EXPECT_EQ(r.num_monitors, 2u);  // ceil(0.5 * 3) pseudo outputs
    EXPECT_EQ(r.fault_universe, 56u);
    EXPECT_EQ(r.fault_universe,
              r.at_speed_detectable + r.timing_redundant + r.candidate_faults);
    EXPECT_GE(r.detected_prop, r.detected_conv);
    EXPECT_LE(r.target_faults, r.detected_prop);
    EXPECT_GT(r.clock_period, 0.0);
    EXPECT_NEAR(r.t_min, r.clock_period / 3.0, 1e-9);
    EXPECT_EQ(r.schedule_uncovered, 0u);
    // Schedule consistency: optimized never exceeds naive.
    EXPECT_LE(r.opti_pc, r.orig_pc);
    ASSERT_EQ(r.coverage_rows.size(), 4u);
    for (std::size_t k = 1; k < r.coverage_rows.size(); ++k) {
        EXPECT_LE(r.coverage_rows[k].num_frequencies,
                  r.coverage_rows[k - 1].num_frequencies);
        EXPECT_LE(r.coverage_rows[k].schedule_size,
                  r.coverage_rows[k - 1].schedule_size);
    }
}

TEST(HdfFlow, PhasesAndManifestCoverTheRun) {
    const Netlist nl = make_s27();
    HdfFlow flow(nl, small_config());
    const HdfFlowResult r = flow.run();

    // Every flow phase is recorded, in execution order.
    const std::vector<std::string> expected{
        "sta",         "monitor_placement",    "atpg",
        "classify",    "fault_sim_pass_a",     "shifting",
        "table1",      "freq_select",          "fault_sim_pass_b",
        "pattern_config_select",               "coverage_rows"};
    ASSERT_EQ(r.phases.size(), expected.size());
    double phase_wall = 0.0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(r.phases[i].name, expected[i]);
        EXPECT_GE(r.phases[i].wall_seconds, 0.0);
        phase_wall += r.phases[i].wall_seconds;
    }
    EXPECT_GT(r.total_wall_seconds, 0.0);
    // Phases are parts of the run: their sum cannot exceed the total.
    EXPECT_LE(phase_wall, r.total_wall_seconds * 1.001);

    const RunManifest m = flow.manifest(r);
    EXPECT_EQ(m.phases().size(), expected.size());
    ASSERT_NE(m.circuit().find("name"), nullptr);
    EXPECT_EQ(m.circuit().find("name")->as_string(), "s27");
    ASSERT_NE(m.config().find("seed"), nullptr);
    EXPECT_NE(m.metrics().find("detection"), nullptr);
    // The schedule is reported with its lower bound and optimality note.
    const Json* schedule = m.metrics().find("schedule");
    ASSERT_NE(schedule, nullptr);
    EXPECT_LE(r.schedule_lower_bound, r.opti_pc);
    EXPECT_EQ(schedule->find("size")->as_number(),
              static_cast<double>(r.opti_pc));
    EXPECT_EQ(schedule->find("lower_bound")->as_number(),
              static_cast<double>(r.schedule_lower_bound));
    EXPECT_EQ(schedule->find("optimality")->as_string(),
              r.schedule_optimality());
    // The manifest document round-trips through JSON.
    const auto back = RunManifest::from_json(m.to_json());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, m);
}

TEST(HdfFlow, CoverageCurveIsMonotone) {
    GeneratorConfig gc;
    gc.name = "flow_gen";
    gc.n_gates = 700;
    gc.n_ffs = 80;
    gc.n_inputs = 16;
    gc.n_outputs = 16;
    gc.depth = 16;
    gc.spread = 0.7;
    gc.seed = 77;
    const Netlist nl = generate_circuit(gc);
    HdfFlow flow(nl, small_config());
    flow.prepare();
    const std::vector<double> factors{1.0, 1.5, 2.0, 2.5, 3.0};
    const auto curve = flow.coverage_curve(factors);
    ASSERT_EQ(curve.size(), factors.size());
    for (std::size_t i = 0; i < curve.size(); ++i) {
        EXPECT_GE(curve[i].prop, curve[i].conv - 1e-12);
        EXPECT_LE(curve[i].prop, 1.0 + 1e-12);
        if (i > 0) {
            EXPECT_GE(curve[i].conv, curve[i - 1].conv - 1e-12);
            EXPECT_GE(curve[i].prop, curve[i - 1].prop - 1e-12);
        }
    }
    // The monitor-friendly circuit must show a real gap at fmax = 3.
    EXPECT_GT(curve.back().prop, curve.back().conv);
}

TEST(HdfFlow, MonitorsShiftUndetectableFaultsIntoWindow) {
    GeneratorConfig gc;
    gc.name = "flow_gain";
    gc.n_gates = 700;
    gc.n_ffs = 80;
    gc.n_inputs = 16;
    gc.n_outputs = 16;
    gc.depth = 16;
    gc.spread = 0.8;
    gc.seed = 78;
    const Netlist nl = generate_circuit(gc);
    HdfFlow flow(nl, small_config());
    const HdfFlowResult r = flow.run();
    EXPECT_GT(r.gain_percent, 10.0);
    EXPECT_GT(r.target_faults, 0u);
    EXPECT_GT(r.freq_prop, 0u);
    EXPECT_LE(r.freq_prop, r.freq_heur);
}

TEST(HdfFlow, SuppliedTestSetSkipsAtpg) {
    const Netlist nl = make_s27();
    HdfFlowConfig config = small_config();
    // A minimal hand-rolled pattern set.
    TestSet ts;
    const std::size_t n = nl.comb_sources().size();
    for (std::size_t i = 0; i < 8; ++i) {
        PatternPair p;
        p.v1.assign(n, 0);
        p.v2.assign(n, 0);
        for (std::size_t s = 0; s < n; ++s) {
            p.v1[s] = static_cast<Bit>((i >> (s % 3)) & 1);
            p.v2[s] = static_cast<Bit>(((i + 1) >> (s % 3)) & 1);
        }
        ts.patterns.push_back(std::move(p));
    }
    config.test_set = ts;
    HdfFlow flow(nl, config);
    const HdfFlowResult r = flow.run();
    EXPECT_EQ(r.num_patterns, 8u);
    EXPECT_DOUBLE_EQ(r.atpg_coverage, 0.0);
}

TEST(HdfFlow, SamplingCapsSimulatedFaults) {
    GeneratorConfig gc;
    gc.name = "flow_sample";
    gc.n_gates = 600;
    gc.n_ffs = 60;
    gc.n_inputs = 14;
    gc.n_outputs = 14;
    gc.depth = 14;
    gc.spread = 0.5;
    gc.seed = 79;
    const Netlist nl = generate_circuit(gc);
    HdfFlowConfig config = small_config();
    config.max_simulated_faults = 200;
    HdfFlow flow(nl, config);
    const HdfFlowResult r = flow.run();
    EXPECT_LE(r.simulated_faults, 200u);
    // Scaled estimates stay in the universe's ballpark.
    EXPECT_LE(r.detected_prop, r.candidate_faults);
}

TEST(HdfFlow, DeterministicAcrossRuns) {
    const Netlist nl = make_s27();
    HdfFlow a(nl, small_config());
    HdfFlow b(nl, small_config());
    const HdfFlowResult ra = a.run();
    const HdfFlowResult rb = b.run();
    EXPECT_EQ(ra.detected_conv, rb.detected_conv);
    EXPECT_EQ(ra.detected_prop, rb.detected_prop);
    EXPECT_EQ(ra.freq_prop, rb.freq_prop);
    EXPECT_EQ(ra.opti_pc, rb.opti_pc);
}

TEST(Report, ScheduleOptimalityNamesTheGap) {
    HdfFlowResult r;
    r.opti_pc = 96;
    r.schedule_lower_bound = 90;
    EXPECT_EQ(r.schedule_optimality(), "6 above bound");
    r.schedule_proven_optimal = true;
    EXPECT_EQ(r.schedule_optimality(), "optimal");
}

TEST(Report, TablesRenderWithoutCrashing) {
    const Netlist nl = make_s27();
    HdfFlowConfig config = small_config();
    config.monitor_fraction = 0.5;
    HdfFlow flow(nl, config);
    const std::vector<HdfFlowResult> rows{flow.run()};
    std::ostringstream os;
    print_table1(os, rows);
    print_table2(os, rows);
    print_table3(os, rows);
    const std::vector<double> factors{1.0, 2.0, 3.0};
    print_fig3(os, flow.coverage_curve(factors));
    print_engine_counters(os, rows);
    print_phase_table(os, rows.front());
    const std::string out = os.str();
    EXPECT_NE(out.find("s27"), std::string::npos);
    EXPECT_NE(out.find("Phi_tar"), std::string::npos);
    EXPECT_NE(out.find("fmax/fnom"), std::string::npos);
    EXPECT_NE(out.find("pairs_total"), std::string::npos);
    EXPECT_NE(out.find("fault_sim_pass_a"), std::string::npos);
    EXPECT_NE(out.find("total (wall)"), std::string::npos);
}

}  // namespace
}  // namespace fastmon
