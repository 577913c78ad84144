// Randomized differential test of the fault-simulation engine's fast
// path (bit-parallel activation screen + event worklist + dense overlay
// + thread pool) against a naive reference that re-simulates the entire
// circuit for every (fault, pattern) pair with no screening at all.
// The engine promises bit-identical results regardless of worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "fault/detection_range.hpp"
#include "netlist/generator.hpp"
#include "timing/sta_engine.hpp"
#include "util/prng.hpp"

namespace fastmon {
namespace {

struct Scenario {
    Netlist nl;
    DelayAnnotation ann;
    StaResult sta;
    WaveSim sim;
    std::vector<PatternPair> patterns;
    std::vector<DelayFault> faults;
    std::vector<bool> monitored;
    DetectionAnalysisConfig dac;  // num_threads left at default

    explicit Scenario(std::uint64_t seed)
        : nl([&] {
              GeneratorConfig gc;
              gc.name = "equiv_gen";
              gc.n_gates = 220;
              gc.n_ffs = 24;
              gc.n_inputs = 10;
              gc.n_outputs = 10;
              gc.depth = 9;
              gc.spread = 0.5;
              gc.seed = seed + 900;
              return generate_circuit(gc);
          }()),
          ann(DelayAnnotation::nominal(nl)),
          sta(StaEngine(nl, ann).analyze()),
          sim(nl, ann) {
        Prng rng(seed * 13 + 3);
        const std::size_t n = nl.comb_sources().size();
        patterns.resize(12);
        for (auto& p : patterns) {
            p.v1.resize(n);
            p.v2.resize(n);
            for (std::size_t i = 0; i < n; ++i) {
                p.v1[i] = rng.chance(0.5) ? 1 : 0;
                p.v2[i] = rng.chance(0.5) ? 1 : 0;
            }
        }
        // Patterns with v1 == v2 stress the screen's hazard handling:
        // the static values never toggle, but glitches still can.
        patterns.push_back(patterns.front());
        patterns.back().v2 = patterns.back().v1;

        for (int k = 0; k < 60; ++k) {
            const GateId gate =
                static_cast<GateId>(rng.next_below(nl.size()));
            const Gate& g = nl.gate(gate);
            if (!is_combinational(g.type)) continue;
            DelayFault fault;
            const bool on_input = rng.chance(0.5) && !g.fanin.empty();
            fault.site = FaultSite{
                gate, on_input ? static_cast<std::uint32_t>(
                                     rng.next_below(g.fanin.size()))
                               : FaultSite::kOutputPin};
            fault.slow_rising = rng.chance(0.5);
            fault.delta = rng.uniform(2.0, 30.0);
            faults.push_back(fault);
        }

        monitored.assign(nl.observe_points().size(), false);
        for (std::size_t i = 0; i < monitored.size(); i += 3) {
            monitored[i] = true;
        }

        dac.glitch_threshold = ann.glitch_threshold();
        dac.horizon = sta.clock_period * 1.02;
    }

    /// Full-circuit faulty re-simulation, no cone shortcut.
    [[nodiscard]] std::vector<Waveform> full_resim(
        const DelayFault& fault,
        std::span<const Waveform> good) const {
        std::vector<Waveform> faulty(nl.size(), Waveform::constant(false));
        std::vector<const Waveform*> fanin_waves;
        for (GateId id : nl.topo_order()) {
            const Gate& g = nl.gate(id);
            const std::uint32_t src = nl.source_index(id);
            if (src != std::numeric_limits<std::uint32_t>::max()) {
                faulty[id] = good[id];
                continue;
            }
            Waveform pin_wave;
            fanin_waves.clear();
            for (std::uint32_t p = 0; p < g.fanin.size(); ++p) {
                fanin_waves.push_back(&faulty[g.fanin[p]]);
            }
            if (fault.site.gate == id &&
                fault.site.pin != FaultSite::kOutputPin) {
                pin_wave =
                    faulty[g.fanin[fault.site.pin]].with_slowed_edges(
                        fault.slow_rising, fault.delta);
                fanin_waves[fault.site.pin] = &pin_wave;
            }
            faulty[id] = sim.eval_gate(id, fanin_waves);
            if (fault.site.gate == id &&
                fault.site.pin == FaultSite::kOutputPin) {
                faulty[id] = faulty[id].with_slowed_edges(
                    fault.slow_rising, fault.delta);
            }
        }
        return faulty;
    }

    /// Reference analyze(): every pair fully re-simulated, no screen,
    /// no activation check, no cache, no pool.
    [[nodiscard]] std::vector<FaultRanges> reference_analyze() const {
        std::vector<FaultRanges> result(faults.size());
        const auto ops = nl.observe_points();
        for (std::uint32_t pi = 0; pi < patterns.size(); ++pi) {
            const auto good =
                sim.simulate(patterns[pi].v1, patterns[pi].v2);
            for (std::uint32_t fi = 0; fi < faults.size(); ++fi) {
                const auto faulty = full_resim(faults[fi], good);
                IntervalSet ff;
                IntervalSet sr;
                for (std::uint32_t oi = 0; oi < ops.size(); ++oi) {
                    const Waveform diff = Waveform::xor_of(
                        good[ops[oi].signal], faulty[ops[oi].signal]);
                    if (diff.is_constant() && !diff.initial()) continue;
                    IntervalSet ivals = diff.ones(dac.horizon);
                    ivals.filter_glitches(dac.glitch_threshold);
                    if (ivals.empty()) continue;
                    ff.unite(ivals);
                    if (monitored[oi]) sr.unite(ivals);
                }
                if (ff.empty() && sr.empty()) continue;
                result[fi].ff.unite(ff);
                result[fi].sr.unite(sr);
                result[fi].active_patterns.push_back(pi);
            }
        }
        return result;
    }
};

void expect_ranges_equal(std::span<const FaultRanges> got,
                         std::span<const FaultRanges> want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].ff, want[i].ff) << "fault " << i;
        EXPECT_EQ(got[i].sr, want[i].sr) << "fault " << i;
        EXPECT_EQ(got[i].active_patterns, want[i].active_patterns)
            << "fault " << i;
    }
}

class FaultSimEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultSimEquivalence, FastPathMatchesNaiveReference) {
    const Scenario sc(GetParam());
    const std::vector<FaultRanges> want = sc.reference_analyze();

    for (const std::size_t threads : {std::size_t{0}, std::size_t{1},
                                      std::size_t{3}}) {
        DetectionAnalysisConfig dac = sc.dac;
        dac.num_threads = threads;
        const DetectionAnalyzer analyzer(sc.sim, sc.patterns, sc.monitored,
                                         dac);
        const std::vector<FaultRanges> got = analyzer.analyze(sc.faults);
        SCOPED_TRACE("num_threads=" + std::to_string(threads));
        expect_ranges_equal(got, want);

        const DetectionCounters c = analyzer.counters();
        EXPECT_EQ(c.pairs_total,
                  sc.faults.size() * sc.patterns.size());
        EXPECT_EQ(c.pairs_screened_out + c.pairs_inactive +
                      c.pairs_simulated,
                  c.pairs_total);
        EXPECT_LE(c.pairs_detected, c.pairs_simulated);
        EXPECT_GT(c.gates_reevaluated, 0u);
    }
}

TEST_P(FaultSimEquivalence, ScreenIsConservative) {
    const Scenario sc(GetParam());
    const ActivationScreen screen(sc.nl, sc.patterns);
    const FaultSim fsim(sc.sim);
    for (std::uint32_t pi = 0; pi < sc.patterns.size(); ++pi) {
        const auto good =
            sc.sim.simulate(sc.patterns[pi].v1, sc.patterns[pi].v2);
        for (const DelayFault& f : sc.faults) {
            if (fsim.activated(f, good)) {
                EXPECT_TRUE(screen.may_activate(sc.nl, f.site, pi))
                    << "screen dropped an activated pair (pattern " << pi
                    << ")";
            }
        }
        // Stronger: the screen bit must be set for ANY signal that
        // toggles at all (either direction).
        for (GateId g = 0; g < sc.nl.size(); ++g) {
            if (!good[g].is_constant()) {
                EXPECT_TRUE(screen.may_toggle(g, pi))
                    << "signal " << g << " toggles but screen bit is 0";
            }
        }
    }
}

TEST_P(FaultSimEquivalence, DetectionTableMatchesAcrossThreadCounts) {
    const Scenario sc(GetParam());
    const std::vector<Time> periods{sc.sta.clock_period,
                                    sc.sta.clock_period * 0.8,
                                    sc.sta.clock_period * 0.6};
    const std::vector<Time> config_delays{0.0, sc.sta.clock_period * 0.1,
                                          sc.sta.clock_period * 0.3};

    std::vector<std::vector<DetectionEntry>> tables;
    for (const std::size_t threads : {std::size_t{0}, std::size_t{1},
                                      std::size_t{3}}) {
        DetectionAnalysisConfig dac = sc.dac;
        dac.num_threads = threads;
        const DetectionAnalyzer analyzer(sc.sim, sc.patterns, sc.monitored,
                                         dac);
        const auto ranges = analyzer.analyze(sc.faults);
        tables.push_back(analyzer.detection_table(sc.faults, ranges,
                                                  periods, config_delays));
    }
    ASSERT_EQ(tables.size(), 3u);
    for (std::size_t t = 1; t < tables.size(); ++t) {
        ASSERT_EQ(tables[t].size(), tables[0].size());
        for (std::size_t i = 0; i < tables[t].size(); ++i) {
            EXPECT_EQ(tables[t][i].fault_index, tables[0][i].fault_index);
            EXPECT_EQ(tables[t][i].pattern, tables[0][i].pattern);
            EXPECT_EQ(tables[t][i].config, tables[0][i].config);
            EXPECT_EQ(tables[t][i].period, tables[0][i].period);
        }
    }
}

// Pass B reads pass A's per-pattern ranges.  The oracle is the
// re-simulating pass B the engine once ran: every (fault, active
// pattern) pair simulated again with FaultSim, its ranges tested at
// every period and configuration, the entries sorted by (fault,
// period, pattern, config).  detection_table() itself must simulate
// nothing.
TEST_P(FaultSimEquivalence, DetectionTableMatchesResimulation) {
    const Scenario sc(GetParam());
    const std::vector<Time> periods{sc.sta.clock_period,
                                    sc.sta.clock_period * 0.8,
                                    sc.sta.clock_period * 0.6};
    const std::vector<Time> config_delays{0.0, sc.sta.clock_period * 0.1,
                                          sc.sta.clock_period * 0.3};
    for (const std::size_t threads : {std::size_t{0}, std::size_t{1},
                                      std::size_t{3}}) {
        SCOPED_TRACE("num_threads=" + std::to_string(threads));
        DetectionAnalysisConfig dac = sc.dac;
        dac.num_threads = threads;
        const DetectionAnalyzer analyzer(sc.sim, sc.patterns, sc.monitored,
                                         dac);
        const auto ranges = analyzer.analyze(sc.faults);

        std::vector<DetectionEntry> want;
        const FaultSim fsim(sc.sim);
        for (std::uint32_t pi = 0; pi < sc.patterns.size(); ++pi) {
            const auto good =
                sc.sim.simulate(sc.patterns[pi].v1, sc.patterns[pi].v2);
            for (std::uint32_t fi = 0; fi < sc.faults.size(); ++fi) {
                const auto& active = ranges[fi].active_patterns;
                if (std::find(active.begin(), active.end(), pi) ==
                    active.end()) {
                    continue;
                }
                IntervalSet ff;
                IntervalSet sr;
                for (const ObserveDiff& od : fsim.simulate(sc.faults[fi], good)) {
                    IntervalSet ivals = od.diff.ones(dac.horizon);
                    ivals.filter_glitches(dac.glitch_threshold);
                    ff.unite(ivals);
                    if (sc.monitored[od.observe_index]) sr.unite(ivals);
                }
                for (std::uint16_t ti = 0; ti < periods.size(); ++ti) {
                    const Time t = periods[ti];
                    for (std::uint16_t ci = 0; ci < config_delays.size();
                         ++ci) {
                        if (ff.contains(t) ||
                            (ci != 0 && sr.contains(t - config_delays[ci]))) {
                            want.push_back(DetectionEntry{fi, pi, ci, ti});
                        }
                    }
                }
            }
        }
        std::sort(want.begin(), want.end(),
                  [](const DetectionEntry& a, const DetectionEntry& b) {
                      if (a.fault_index != b.fault_index)
                          return a.fault_index < b.fault_index;
                      if (a.period != b.period) return a.period < b.period;
                      if (a.pattern != b.pattern) return a.pattern < b.pattern;
                      return a.config < b.config;
                  });
        ASSERT_FALSE(want.empty());

        const DetectionCounters before = analyzer.counters();
        const std::vector<DetectionEntry> got = analyzer.detection_table(
            sc.faults, ranges, periods, config_delays);
        const DetectionCounters after = analyzer.counters();
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].fault_index, want[i].fault_index) << i;
            EXPECT_EQ(got[i].pattern, want[i].pattern) << i;
            EXPECT_EQ(got[i].config, want[i].config) << i;
            EXPECT_EQ(got[i].period, want[i].period) << i;
        }
        EXPECT_EQ(after.pairs_simulated, before.pairs_simulated);
        EXPECT_EQ(after.gates_reevaluated, before.gates_reevaluated);
        EXPECT_EQ(after.good_wave_sims, before.good_wave_sims);
        EXPECT_FALSE(analyzer.interrupted());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultSimEquivalence,
                         ::testing::Range<std::uint64_t>(1, 6));

}  // namespace
}  // namespace fastmon
