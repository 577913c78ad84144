#include "atpg/tdf_atpg.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "netlist/builder.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas_data.hpp"
#include "property_circuits.hpp"
#include "util/metrics.hpp"
#include "util/prng.hpp"

namespace fastmon {
namespace {

TEST(TfaultSim, EnumeratesBothDirectionsPerPin) {
    NetlistBuilder b("e");
    b.input("a").input("c");
    b.nand2("g", "a", "c");
    b.output("g");
    const Netlist nl = b.build();
    const auto faults = enumerate_tdf_faults(nl);
    EXPECT_EQ(faults.size(), 6u);  // (out + 2 pins) x 2 directions
}

TEST(TfaultSim, DetectsSimpleTransition) {
    // y = BUF(a): STR at y detected by (0 -> 1) transition, pattern at
    // lane 0.
    NetlistBuilder b("buf");
    b.input("a");
    b.buf("y", "a");
    b.output("y");
    const Netlist nl = b.build();
    TransitionFaultSim sim(nl);
    std::vector<PatternPair> pats{{{0}, {1}}, {{1}, {0}}, {{1}, {1}}};
    const auto batch = sim.pack(pats, 0);
    const auto values = sim.evaluate(batch);
    const GateId y = nl.find("y");
    const std::uint64_t str = sim.detect_mask(
        TdfFault{FaultSite{y, FaultSite::kOutputPin}, true}, values);
    EXPECT_EQ(str & 0b111, 0b001u);
    const std::uint64_t stf = sim.detect_mask(
        TdfFault{FaultSite{y, FaultSite::kOutputPin}, false}, values);
    EXPECT_EQ(stf & 0b111, 0b010u);
}

TEST(TfaultSim, PropagationBlockedByOffPath) {
    // y = AND(a, b): transition on a undetected when b = 0.
    NetlistBuilder b("blk");
    b.input("a").input("c");
    b.and2("y", "a", "c");
    b.output("y");
    const Netlist nl = b.build();
    TransitionFaultSim sim(nl);
    // a: 0->1 with c = 0 (blocked), then with c = 1 (detected).
    std::vector<PatternPair> pats{{{0, 0}, {1, 0}}, {{0, 1}, {1, 1}}};
    const auto batch = sim.pack(pats, 0);
    const auto values = sim.evaluate(batch);
    const std::uint64_t m = sim.detect_mask(
        TdfFault{FaultSite{nl.find("y"), 0}, true}, values);
    EXPECT_EQ(m & 0b11, 0b10u);
}

std::vector<PatternPair> random_pairs(const Netlist& nl, std::size_t count,
                                      Prng& rng) {
    const std::size_t n = nl.comb_sources().size();
    std::vector<PatternPair> pats(count);
    for (PatternPair& p : pats) {
        p.v1.resize(n);
        p.v2.resize(n);
        for (std::size_t s = 0; s < n; ++s) {
            p.v1[s] = rng.chance(0.5) ? 1 : 0;
            p.v2[s] = rng.chance(0.5) ? 1 : 0;
        }
    }
    return pats;
}

TEST(TfaultSim, FaultSimulateReportsFirstDetectingPattern) {
    const Netlist nl = make_s27();
    Prng rng(7);
    const std::vector<PatternPair> pats = random_pairs(nl, 96, rng);
    const auto faults = enumerate_tdf_faults(nl);
    const auto first = fault_simulate_tdf(nl, faults, pats);
    ASSERT_EQ(first.size(), faults.size());
    TransitionFaultSim sim(nl);
    std::size_t detected = 0;
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
        if (first[fi] == SIZE_MAX) continue;
        ++detected;
        // Confirm: the reported pattern detects, and no earlier one does.
        for (std::size_t pi = 0; pi <= first[fi]; ++pi) {
            const auto batch = sim.pack(pats, pi);
            const std::uint64_t m =
                sim.detect_mask(faults[fi], sim.evaluate(batch)) & 1ULL;
            EXPECT_EQ(m != 0, pi == first[fi])
                << "fault " << fi << " pattern " << pi;
        }
    }
    EXPECT_GT(detected, faults.size() / 2);
}

// --- TdfSim: detect_mask against a brute-force whole-circuit oracle ---

/// The generated circuits of StaEngineProperty (seeds 1..20) plus the
/// embedded suite.
std::vector<Netlist> oracle_circuits() {
    std::vector<Netlist> out;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Prng rng = Prng::stream(seed, 0x57A9ULL);
        out.push_back(property_circuit("tdf_prop", seed, rng));
    }
    for (const std::string& name : embedded_circuit_names()) {
        out.push_back(make_embedded_circuit(name));
    }
    return out;
}

/// Re-simulates the whole circuit under v2 with the site signal (or,
/// for a pin fault, that pin only) holding s2 ^ act in the active lanes;
/// returns the OR over observe points of faulty ^ good, masked by act.
std::uint64_t reference_detect_mask(
    const Netlist& nl, const TdfFault& fault,
    const TransitionFaultSim::BatchValues& values) {
    const bool at_output = fault.site.pin == FaultSite::kOutputPin;
    const GateId signal =
        at_output ? fault.site.gate
                  : nl.gate(fault.site.gate).fanin[fault.site.pin];
    const std::uint64_t s1 = values.val1[signal];
    const std::uint64_t s2 = values.val2[signal];
    const std::uint64_t act = fault.slow_rising ? (~s1 & s2) : (s1 & ~s2);
    const std::uint64_t stale = s2 ^ act;

    std::vector<std::uint64_t> faulty(nl.size(), 0);
    std::vector<std::uint64_t> ins;
    for (GateId id : nl.topo_order()) {
        const Gate& g = nl.gate(id);
        if (nl.source_index(id) != std::numeric_limits<std::uint32_t>::max()) {
            faulty[id] = values.val2[id];
        } else {
            ins.resize(g.fanin.size());
            for (std::uint32_t p = 0; p < g.fanin.size(); ++p) {
                const bool faulty_pin = !at_output && id == fault.site.gate &&
                                        p == fault.site.pin;
                ins[p] = faulty_pin ? stale : faulty[g.fanin[p]];
            }
            faulty[id] = g.type == CellType::Output ? ins[0]
                                                    : eval_cell64(g.type, ins);
        }
        if (at_output && id == fault.site.gate) faulty[id] = stale;
    }
    std::uint64_t detected = 0;
    for (const ObservePoint& op : nl.observe_points()) {
        detected |= faulty[op.signal] ^ values.val2[op.signal];
    }
    return detected & act;
}

TEST(TdfSim, DetectMaskMatchesWholeCircuitOracle) {
    std::size_t nonzero = 0;
    for (const Netlist& nl : oracle_circuits()) {
        const std::vector<TdfFault> faults = enumerate_tdf_faults(nl);
        TransitionFaultSim sim(nl);
        Prng rng = Prng::stream(nl.size(), 0x7DF5ULL);
        for (int b = 0; b < 3; ++b) {
            const auto pats = random_pairs(nl, 64, rng);
            const auto values = sim.evaluate(sim.pack(pats, 0));
            for (std::size_t fi = 0; fi < faults.size(); ++fi) {
                const std::uint64_t want =
                    reference_detect_mask(nl, faults[fi], values);
                ASSERT_EQ(sim.detect_mask(faults[fi], values), want)
                    << nl.name() << " (" << nl.size() << " nodes) fault "
                    << fi << " batch " << b;
                if (want != 0) ++nonzero;
            }
        }
    }
    EXPECT_GT(nonzero, 1000u);  // the oracle is not vacuous
}

TEST(TdfSim, ReusedSimulatorMatchesFreshPerCall) {
    // One simulator across interleaved faults and batches must give the
    // masks of a fresh simulator per call: no stale overlay stamp or
    // queued gate may leak from one call into the next.
    for (const char* name : {"s27", "mini_alu"}) {
        const Netlist nl = make_embedded_circuit(name);
        const std::vector<TdfFault> faults = enumerate_tdf_faults(nl);
        const TransitionFaultSim reused(nl);
        Prng rng(11);
        std::vector<TransitionFaultSim::BatchValues> batches;
        for (int b = 0; b < 4; ++b) {
            const auto pats = random_pairs(nl, 64, rng);
            batches.push_back(reused.evaluate(reused.pack(pats, 0)));
        }
        for (std::size_t k = 0; k < 4 * faults.size(); ++k) {
            const TdfFault& fault = faults[rng.next_below(faults.size())];
            const auto& values = batches[rng.next_below(batches.size())];
            EXPECT_EQ(reused.detect_mask(fault, values),
                      TransitionFaultSim(nl).detect_mask(fault, values))
                << name << " call " << k;
        }
        EXPECT_GT(reused.gates_evaluated(), 0u);
    }
}

TEST(Atpg, FullCoverageOnS27) {
    AtpgConfig cfg;
    cfg.seed = 3;
    const AtpgResult r = generate_tdf_tests(make_s27(), cfg);
    EXPECT_EQ(r.num_faults, 56u);
    // s27 TDF faults are all testable with enhanced scan.
    EXPECT_EQ(r.num_detected + r.num_untestable, r.num_faults);
    EXPECT_GT(r.coverage(), 0.95);
    EXPECT_GT(r.test_set.size(), 0u);
    EXPECT_LT(r.test_set.size(), 30u);  // compaction works
}

TEST(Atpg, PublishesTdfSimulationWork) {
    MetricsRegistry& reg = MetricsRegistry::global();
    Counter& evaluated = reg.counter("atpg.tdf_gates_evaluated");
    Counter& unconfirmed = reg.counter("atpg.unconfirmed_witnesses");
    const std::uint64_t evaluated_before = evaluated.value();
    const std::uint64_t unconfirmed_before = unconfirmed.value();
    AtpgConfig cfg;
    cfg.seed = 3;
    const AtpgResult r = generate_tdf_tests(make_s27(), cfg);
    EXPECT_GT(evaluated.value(), evaluated_before);
    EXPECT_EQ(r.num_unconfirmed, 0u);
    EXPECT_EQ(unconfirmed.value(), unconfirmed_before);
}

TEST(Atpg, ResultConfirmedByFaultSimulation) {
    const Netlist nl = make_mini_alu();
    AtpgConfig cfg;
    cfg.seed = 4;
    const AtpgResult r = generate_tdf_tests(nl, cfg);
    const auto faults = enumerate_tdf_faults(nl);
    const auto first = fault_simulate_tdf(nl, faults, r.test_set.patterns);
    std::size_t confirmed = 0;
    for (std::size_t fd : first) {
        if (fd != SIZE_MAX) ++confirmed;
    }
    EXPECT_EQ(confirmed, r.num_detected);
}

TEST(Atpg, CompactionKeepsCoverage) {
    // Deterministic phase off: random + compaction only; re-simulating
    // the compacted set must reach the reported coverage.
    const Netlist nl = generate_circuit(
        GeneratorConfig{"atpg_gen", 400, 40, 12, 12, 12, 0.5, 31});
    AtpgConfig cfg;
    cfg.seed = 9;
    cfg.deterministic_phase = false;
    const AtpgResult r = generate_tdf_tests(nl, cfg);
    const auto faults = enumerate_tdf_faults(nl);
    const auto first = fault_simulate_tdf(nl, faults, r.test_set.patterns);
    std::size_t detected = 0;
    for (std::size_t fd : first) {
        if (fd != SIZE_MAX) ++detected;
    }
    EXPECT_EQ(detected, r.num_detected);
    EXPECT_GT(r.coverage(), 0.5);
}

TEST(Atpg, DeterministicPhaseImprovesCoverage) {
    const Netlist nl = generate_circuit(
        GeneratorConfig{"atpg_det", 300, 30, 10, 10, 10, 0.5, 33});
    AtpgConfig random_only;
    random_only.seed = 11;
    random_only.deterministic_phase = false;
    random_only.max_random_batches = 10;
    random_only.max_idle_batches = 3;
    AtpgConfig with_podem = random_only;
    with_podem.deterministic_phase = true;
    const AtpgResult r1 = generate_tdf_tests(nl, random_only);
    const AtpgResult r2 = generate_tdf_tests(nl, with_podem);
    EXPECT_GE(r2.num_detected, r1.num_detected);
    EXPECT_GT(r2.efficiency(), r1.coverage());
}

TEST(Atpg, DeterministicAcrossRuns) {
    AtpgConfig cfg;
    cfg.seed = 21;
    const AtpgResult a = generate_tdf_tests(make_s27(), cfg);
    const AtpgResult b = generate_tdf_tests(make_s27(), cfg);
    EXPECT_EQ(a.test_set.patterns, b.test_set.patterns);
    EXPECT_EQ(a.num_detected, b.num_detected);
}

}  // namespace
}  // namespace fastmon
