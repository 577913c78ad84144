#include "sim/fault_sim.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "netlist/builder.hpp"
#include "netlist/generator.hpp"
#include "timing/sta_engine.hpp"
#include "util/prng.hpp"

namespace fastmon {
namespace {

// a -> buf -> y (observed): the simplest fault propagation path.
struct BufFixture {
    Netlist nl;
    DelayAnnotation ann;
    WaveSim sim;
    FaultSim fsim;

    BufFixture()
        : nl(NetlistBuilder("buf1")
                 .input("a")
                 .buf("g", "a")
                 .output("g")
                 .build()),
          ann(DelayAnnotation::nominal(nl)),
          sim(nl, ann),
          fsim(sim) {}
};

TEST(FaultSim, OutputFaultShiftsEdgeByDelta) {
    BufFixture f;
    const GateId g = f.nl.find("g");
    const std::vector<Bit> v1{0};
    const std::vector<Bit> v2{1};
    const auto good = f.sim.simulate(v1, v2);

    DelayFault fault;
    fault.site = FaultSite{g, FaultSite::kOutputPin};
    fault.slow_rising = true;
    fault.delta = 7.5;
    const auto diffs = f.fsim.simulate(fault, good);
    ASSERT_EQ(diffs.size(), 1u);
    // Difference window: exactly [t_good_edge, t_good_edge + delta).
    const Time edge = good[g].transitions()[0];
    const IntervalSet ones = diffs[0].diff.ones(1000.0);
    ASSERT_EQ(ones.size(), 1u);
    EXPECT_NEAR(ones[0].lo, edge, 1e-9);
    EXPECT_NEAR(ones[0].hi, edge + 7.5, 1e-9);
}

TEST(FaultSim, WrongPolarityNotActivated) {
    BufFixture f;
    const GateId g = f.nl.find("g");
    const std::vector<Bit> v1{0};
    const std::vector<Bit> v2{1};
    const auto good = f.sim.simulate(v1, v2);

    DelayFault fault;
    fault.site = FaultSite{g, FaultSite::kOutputPin};
    fault.slow_rising = false;  // slow-to-fall, but the edge rises
    fault.delta = 7.5;
    EXPECT_FALSE(f.fsim.activated(fault, good));
    EXPECT_TRUE(f.fsim.simulate(fault, good).empty());
}

TEST(FaultSim, InputPinFaultOnlyAffectsThatBranch) {
    // a fans out to two buffers; the fault on one branch leaves the
    // other path clean.
    NetlistBuilder b("branch");
    b.input("a");
    b.buf("p", "a");
    b.buf("q", "a");
    b.output("p");
    b.output("q");
    const Netlist nl = b.build();
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    const WaveSim sim(nl, ann);
    const FaultSim fsim(sim);
    const std::vector<Bit> v1{0};
    const std::vector<Bit> v2{1};
    const auto good = sim.simulate(v1, v2);

    DelayFault fault;
    fault.site = FaultSite{nl.find("p"), 0};  // branch a->p
    fault.slow_rising = true;
    fault.delta = 5.0;
    const auto diffs = fsim.simulate(fault, good);
    ASSERT_EQ(diffs.size(), 1u);
    const auto ops = nl.observe_points();
    EXPECT_EQ(ops[diffs[0].observe_index].signal, nl.find("p"));
}

TEST(FaultSim, StemFaultAffectsAllBranches) {
    NetlistBuilder b("stem");
    b.input("a");
    b.inv("s", "a");
    b.buf("p", "s");
    b.buf("q", "s");
    b.output("p");
    b.output("q");
    const Netlist nl = b.build();
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    const WaveSim sim(nl, ann);
    const FaultSim fsim(sim);
    const std::vector<Bit> v1{1};
    const std::vector<Bit> v2{0};  // a falls -> s rises
    const auto good = sim.simulate(v1, v2);

    DelayFault fault;
    fault.site = FaultSite{nl.find("s"), FaultSite::kOutputPin};
    fault.slow_rising = true;
    fault.delta = 6.0;
    const auto diffs = fsim.simulate(fault, good);
    EXPECT_EQ(diffs.size(), 2u);
}

TEST(FaultSim, DeltaZeroProducesNoDifference) {
    BufFixture f;
    const std::vector<Bit> v1{0};
    const std::vector<Bit> v2{1};
    const auto good = f.sim.simulate(v1, v2);
    DelayFault fault;
    fault.site = FaultSite{f.nl.find("g"), FaultSite::kOutputPin};
    fault.slow_rising = true;
    fault.delta = 0.0;
    EXPECT_TRUE(f.fsim.simulate(fault, good).empty());
}

// Properties of the difference waveforms.  Note that a measure bound of
// edges * delta would be UNSOUND: inertial pulse swallowing downstream
// can amplify a shifted edge into a much longer disagreement, and the
// faulty circuit can glitch where the good output was quiet.  What must
// hold: the difference starts no earlier than the first slow-direction
// edge at the site, and ends no later than the STA maximum arrival at
// the output plus delta (a single lumped fault retards any path at most
// once).
class FaultSimProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultSimProperty, DifferenceWindowBounds) {
    GeneratorConfig gc;
    gc.name = "fs_gen";
    gc.n_gates = 250;
    gc.n_ffs = 25;
    gc.n_inputs = 10;
    gc.n_outputs = 10;
    gc.depth = 10;
    gc.spread = 0.5;
    gc.seed = GetParam();
    const Netlist nl = generate_circuit(gc);
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    const StaResult sta = StaEngine(nl, ann).analyze();
    const WaveSim sim(nl, ann);
    const FaultSim fsim(sim);
    Prng rng(GetParam() * 3 + 1);
    const std::size_t n = nl.comb_sources().size();
    std::vector<Bit> v1(n);
    std::vector<Bit> v2(n);
    for (std::size_t s = 0; s < n; ++s) {
        v1[s] = rng.chance(0.5) ? 1 : 0;
        v2[s] = rng.chance(0.5) ? 1 : 0;
    }
    const auto good = sim.simulate(v1, v2);

    for (int k = 0; k < 40; ++k) {
        const GateId gate =
            static_cast<GateId>(rng.next_below(nl.size()));
        if (!is_combinational(nl.gate(gate).type)) continue;
        DelayFault fault;
        fault.site = FaultSite{gate, FaultSite::kOutputPin};
        fault.slow_rising = rng.chance(0.5);
        fault.delta = rng.uniform(1.0, 40.0);
        const auto diffs = fsim.simulate(fault, good);
        if (!fsim.activated(fault, good)) {
            EXPECT_TRUE(diffs.empty());
            continue;
        }
        // Earliest possible divergence: the first slow-direction edge at
        // the site signal.
        Time first_slow_edge = std::numeric_limits<Time>::max();
        bool value = good[gate].initial();
        for (Time t : good[gate].transitions()) {
            value = !value;
            if (value == fault.slow_rising) {
                first_slow_edge = t;
                break;
            }
        }
        const auto ops = nl.observe_points();
        for (const ObserveDiff& od : diffs) {
            const IntervalSet ones = od.diff.ones(1e6);
            ASSERT_FALSE(ones.empty());
            EXPECT_GE(ones.min(), first_slow_edge - 1e-6)
                << "gate " << nl.gate(gate).name;
            const Time latest =
                sta.max_arrival[ops[od.observe_index].signal];
            EXPECT_LE(ones.max(), latest + fault.delta + 1e-6)
                << "gate " << nl.gate(gate).name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultSimProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

// Property: fault simulation via cone overlay equals full re-simulation
// with a modified annotation (for output-pin faults, slowing a gate's
// arcs in the slow direction by delta is NOT identical in general, but
// a brute-force overlay re-simulation of the full circuit must match).
class ConeVsFullResim : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConeVsFullResim, OverlayMatchesFullResimulation) {
    GeneratorConfig gc;
    gc.name = "cone_gen";
    gc.n_gates = 200;
    gc.n_ffs = 20;
    gc.n_inputs = 8;
    gc.n_outputs = 8;
    gc.depth = 9;
    gc.spread = 0.5;
    gc.seed = GetParam() + 100;
    const Netlist nl = generate_circuit(gc);
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    const WaveSim sim(nl, ann);
    const FaultSim fsim(sim);
    Prng rng(GetParam() * 7 + 5);
    const std::size_t n = nl.comb_sources().size();
    std::vector<Bit> v1(n);
    std::vector<Bit> v2(n);
    for (std::size_t s = 0; s < n; ++s) {
        v1[s] = rng.chance(0.5) ? 1 : 0;
        v2[s] = rng.chance(0.5) ? 1 : 0;
    }
    const auto good = sim.simulate(v1, v2);

    // Full re-simulation: evaluate every gate with the faulty waveform
    // overlay (no cone shortcut).
    auto full_resim = [&](const DelayFault& fault) {
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
                pin_wave = faulty[g.fanin[fault.site.pin]].with_slowed_edges(
                    fault.slow_rising, fault.delta);
                fanin_waves[fault.site.pin] = &pin_wave;
            }
            faulty[id] = sim.eval_gate(id, fanin_waves);
            if (fault.site.gate == id &&
                fault.site.pin == FaultSite::kOutputPin) {
                faulty[id] = faulty[id].with_slowed_edges(fault.slow_rising,
                                                          fault.delta);
            }
        }
        return faulty;
    };

    for (int k = 0; k < 15; ++k) {
        const GateId gate = static_cast<GateId>(rng.next_below(nl.size()));
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

        const auto expected = full_resim(fault);
        const auto diffs = fsim.simulate(fault, good);
        // Build the diff map from the full re-simulation.
        const auto ops = nl.observe_points();
        std::vector<Waveform> expect_diffs;
        for (std::uint32_t oi = 0; oi < ops.size(); ++oi) {
            const Waveform x =
                Waveform::xor_of(good[ops[oi].signal], expected[ops[oi].signal]);
            if (!x.is_constant() || x.initial()) {
                expect_diffs.push_back(x);
            }
        }
        ASSERT_EQ(diffs.size(), expect_diffs.size());
        for (std::size_t d = 0; d < diffs.size(); ++d) {
            EXPECT_EQ(diffs[d].diff, expect_diffs[d]);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConeVsFullResim,
                         ::testing::Range<std::uint64_t>(1, 7));

// Whole-circuit faulty re-simulation, observed like FaultSim::simulate:
// the slow reference the event worklist must reproduce.
std::vector<ObserveDiff> full_resim_diffs(const WaveSim& sim,
                                          const DelayFault& fault,
                                          std::span<const Waveform> good) {
    const Netlist& nl = sim.netlist();
    const FaultSite& site = fault.site;
    std::vector<Waveform> faulty(good.begin(), good.end());
    std::vector<const Waveform*> fanin_waves;
    for (GateId id : nl.topo_order()) {
        if (nl.source_index(id) != std::numeric_limits<std::uint32_t>::max()) {
            continue;
        }
        const Gate& g = nl.gate(id);
        fanin_waves.clear();
        for (GateId f : g.fanin) fanin_waves.push_back(&faulty[f]);
        Waveform pin_wave;
        if (site.gate == id && site.pin != FaultSite::kOutputPin) {
            pin_wave = faulty[g.fanin[site.pin]].with_slowed_edges(
                fault.slow_rising, fault.delta);
            fanin_waves[site.pin] = &pin_wave;
        }
        faulty[id] = sim.eval_gate(id, fanin_waves);
        if (site.gate == id && site.pin == FaultSite::kOutputPin) {
            faulty[id] =
                faulty[id].with_slowed_edges(fault.slow_rising, fault.delta);
        }
    }
    std::vector<ObserveDiff> diffs;
    const auto ops = nl.observe_points();
    for (std::uint32_t oi = 0; oi < ops.size(); ++oi) {
        Waveform x =
            Waveform::xor_of(good[ops[oi].signal], faulty[ops[oi].signal]);
        if (!x.is_constant() || x.initial()) {
            diffs.push_back(ObserveDiff{oi, std::move(x)});
        }
    }
    return diffs;
}

void expect_same_diffs(const std::vector<ObserveDiff>& got,
                       const std::vector<ObserveDiff>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t d = 0; d < got.size(); ++d) {
        EXPECT_EQ(got[d].observe_index, want[d].observe_index) << "diff " << d;
        EXPECT_EQ(got[d].diff, want[d].diff) << "diff " << d;
    }
}

// One scratch recycled across interleaved faults, patterns and two
// netlists of different sizes must behave exactly like a fresh scratch
// per call (same diffs, same number of gate evaluations), and both must
// match whole-circuit re-simulation.
TEST(FaultSim, ReusedScratchMatchesFreshPerCall) {
    // s fans out to a Dff D input (d1 -> q, observe index 3) at a low
    // topological rank and, through a three-gate chain, to the primary
    // output o (observe index 0) at a high one, so its effect reaches
    // the observation points out of index order.  m drives the primary
    // output m and the D input of r (two observation points) and feeds
    // both sinks directly.  k = c & b masks a fault on its b pin while
    // c is 0: the effect dies at the site.
    NetlistBuilder b("reuse");
    b.input("a").input("b").input("c").dff_declare("q");
    b.nand2("s", "a", "b");
    b.buf("d1", "s").buf("t1", "s").inv("t2", "t1").buf("t3", "t2");
    b.and2("o", "t3", "q");
    b.xor2("m", "s", "c");
    b.and2("k", "c", "b");
    b.output("o").output("m").output("k");
    b.dff_connect("q", "d1").dff("r", "m");
    const Netlist small = b.build();
    ASSERT_EQ(small.observe_points().size(), 5u);
    ASSERT_EQ(small.observe_points()[3].signal, small.find("d1"));
    ASSERT_EQ(small.observe_indices(small.find("m")).size(), 2u);

    GeneratorConfig gc;
    gc.name = "reuse_gen";
    gc.n_gates = 150;
    gc.n_ffs = 12;
    gc.n_inputs = 8;
    gc.n_outputs = 8;
    gc.depth = 8;
    gc.spread = 0.5;
    gc.seed = 4242;
    const Netlist big = generate_circuit(gc);
    ASSERT_NE(big.size(), small.size());

    const DelayAnnotation small_ann = DelayAnnotation::nominal(small);
    const DelayAnnotation big_ann = DelayAnnotation::nominal(big);
    const WaveSim small_sim(small, small_ann);
    const WaveSim big_sim(big, big_ann);

    struct Case {
        const WaveSim* sim;
        std::shared_ptr<const std::vector<Waveform>> good;
        DelayFault fault;
    };
    std::vector<Case> cases;
    Prng rng(77);
    auto add_pattern = [&](const WaveSim& sim, std::vector<Bit> v1,
                           std::vector<Bit> v2, std::size_t max_faults) {
        auto good = std::make_shared<const std::vector<Waveform>>(
            sim.simulate(v1, v2));
        const Netlist& nl = sim.netlist();
        std::size_t added = 0;
        for (GateId id = 0; id < nl.size() && added < max_faults; ++id) {
            const Gate& g = nl.gate(id);
            if (!is_combinational(g.type)) continue;
            for (std::uint32_t pin = 0; pin <= g.fanin.size(); ++pin) {
                for (const bool rising : {true, false}) {
                    DelayFault f;
                    f.site = FaultSite{id, pin == g.fanin.size()
                                               ? FaultSite::kOutputPin
                                               : pin};
                    f.slow_rising = rising;
                    f.delta = rng.uniform(2.0, 30.0);
                    cases.push_back(Case{&sim, good, f});
                }
                ++added;
            }
        }
    };
    // Sources: a, b, c, q, r.  a: 1 -> 0 makes s rise (b = 1, c = 0);
    // b: 0 -> 1 under c = 0 is masked at k; c: 0 -> 1 toggles m.
    add_pattern(small_sim, {1, 1, 0, 1, 0}, {0, 1, 0, 1, 0}, SIZE_MAX);
    add_pattern(small_sim, {1, 0, 0, 1, 1}, {1, 1, 0, 1, 1}, SIZE_MAX);
    add_pattern(small_sim, {0, 0, 0, 0, 0}, {0, 0, 1, 0, 0}, SIZE_MAX);
    const std::size_t n_src = big.comb_sources().size();
    for (int p = 0; p < 4; ++p) {
        std::vector<Bit> v1(n_src);
        std::vector<Bit> v2(n_src);
        for (std::size_t i = 0; i < n_src; ++i) {
            v1[i] = rng.chance(0.5) ? 1 : 0;
            v2[i] = rng.chance(0.5) ? 1 : 0;
        }
        add_pattern(big_sim, v1, v2, 60);
    }
    // Interleave netlists, patterns and faults on the recycled scratch.
    for (std::size_t i = cases.size(); i > 1; --i) {
        std::swap(cases[i - 1], cases[rng.next_below(i)]);
    }

    FaultSimScratch reused;
    std::size_t died_at_site = 0;
    std::size_t multi_observe = 0;
    for (const Case& c : cases) {
        const FaultSim fsim(*c.sim);
        const std::vector<Waveform>& good = *c.good;
        FaultSimScratch fresh;
        const std::vector<ObserveDiff> want =
            fsim.simulate(c.fault, good, fresh);
        const std::uint64_t before = reused.gates_evaluated();
        const std::vector<ObserveDiff> got =
            fsim.simulate(c.fault, good, reused);
        expect_same_diffs(got, want);
        EXPECT_EQ(reused.gates_evaluated() - before, fresh.gates_evaluated());
        expect_same_diffs(got, full_resim_diffs(*c.sim, c.fault, good));
        if (fsim.activated(c.fault, good) && got.empty()) ++died_at_site;
        if (got.size() >= 2) ++multi_observe;
    }
    EXPECT_GT(died_at_site, 0u);
    EXPECT_GT(multi_observe, 0u);

    // Directed: the b-pin fault of k under pattern 2 is masked at the
    // site; the output fault of m reaches both of m's observation points.
    const FaultSim small_fsim(small_sim);
    const auto good2 = small_sim.simulate(std::vector<Bit>{1, 0, 0, 1, 1},
                                          std::vector<Bit>{1, 1, 0, 1, 1});
    DelayFault masked;
    masked.site = FaultSite{small.find("k"), 1};
    masked.slow_rising = true;
    masked.delta = 10.0;
    ASSERT_TRUE(small_fsim.activated(masked, good2));
    EXPECT_TRUE(small_fsim.simulate(masked, good2, reused).empty());

    const auto good3 = small_sim.simulate(std::vector<Bit>{0, 0, 0, 0, 0},
                                          std::vector<Bit>{0, 0, 1, 0, 0});
    DelayFault at_m;
    at_m.site = FaultSite{small.find("m"), FaultSite::kOutputPin};
    at_m.slow_rising = false;  // s = 1, so m = !c falls
    at_m.delta = 10.0;
    const auto m_diffs = small_fsim.simulate(at_m, good3, reused);
    ASSERT_EQ(m_diffs.size(), 2u);
    EXPECT_EQ(m_diffs[0].observe_index, 1u);
    EXPECT_EQ(m_diffs[1].observe_index, 4u);
}

}  // namespace
}  // namespace fastmon
