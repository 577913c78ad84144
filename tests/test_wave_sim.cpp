#include "sim/wave_sim.hpp"

#include "timing/sta_engine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "netlist/builder.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas_data.hpp"
#include "sim/fault_sim.hpp"
#include "util/prng.hpp"

namespace fastmon {
namespace {

TEST(WaveSim, ConstantInputsGiveConstantWaves) {
    const Netlist nl = make_s27();
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    const WaveSim sim(nl, ann);
    const std::size_t n = nl.comb_sources().size();
    const std::vector<Bit> v(n, 1);
    const std::vector<Waveform> waves = sim.simulate(v, v);
    for (GateId id = 0; id < nl.size(); ++id) {
        EXPECT_TRUE(waves[id].is_constant()) << nl.gate(id).name;
    }
}

TEST(WaveSim, SingleInverterDelaysEdge) {
    NetlistBuilder b("inv1");
    b.input("a");
    b.inv("y", "a");
    b.output("y");
    const Netlist nl = b.build();
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    const WaveSim sim(nl, ann);
    const std::vector<Bit> v1{0};
    const std::vector<Bit> v2{1};
    const std::vector<Waveform> waves = sim.simulate(v1, v2);
    const GateId y = nl.find("y");
    ASSERT_EQ(waves[y].num_transitions(), 1u);
    // Input rises at 0 -> output falls after the fall delay.
    EXPECT_TRUE(waves[y].initial());
    EXPECT_FALSE(waves[y].final());
    EXPECT_NEAR(waves[y].transitions()[0], ann.arc(y, 0).fall, 1e-9);
}

TEST(WaveSim, ChainAccumulatesDelay) {
    NetlistBuilder b("chain");
    b.input("a");
    b.buf("b1", "a");
    b.buf("b2", "b1");
    b.buf("b3", "b2");
    b.output("b3");
    const Netlist nl = b.build();
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    const WaveSim sim(nl, ann);
    const std::vector<Bit> v1{0};
    const std::vector<Bit> v2{1};
    const std::vector<Waveform> waves = sim.simulate(v1, v2);
    const GateId b3 = nl.find("b3");
    ASSERT_EQ(waves[b3].num_transitions(), 1u);
    Time expect = 0.0;
    expect += ann.arc(nl.find("b1"), 0).rise;
    expect += ann.arc(nl.find("b2"), 0).rise;
    expect += ann.arc(nl.find("b3"), 0).rise;
    EXPECT_NEAR(waves[b3].transitions()[0], expect, 1e-9);
}

TEST(WaveSim, StaticHazardProducesGlitchWithoutFilter) {
    // Classic XOR hazard: a -> xor(a, inv(a)); unequal path delays make
    // the output pulse once on an input edge.
    NetlistBuilder b("hazard");
    b.input("a");
    b.inv("n", "a");
    b.buf("d1", "a");
    b.buf("d2", "d1");
    b.xor2("y", "d2", "n");
    b.output("y");
    const Netlist nl = b.build();
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    WaveSimConfig raw;
    raw.inertial_fraction = 0.0;  // keep all pulses
    const WaveSim sim(nl, ann, raw);
    const std::vector<Bit> v1{0};
    const std::vector<Bit> v2{1};
    const std::vector<Waveform> waves = sim.simulate(v1, v2);
    const GateId y = nl.find("y");
    // XOR(delayed a, !a): both steady states are 1; the mismatch window
    // produces a 1->0->1 glitch: two transitions.
    EXPECT_TRUE(waves[y].initial());
    EXPECT_TRUE(waves[y].final());
    EXPECT_EQ(waves[y].num_transitions(), 2u);
}

TEST(WaveSim, InertialFilterSwallowsGlitch) {
    NetlistBuilder b("hazard2");
    b.input("a");
    b.inv("n", "a");
    b.xor2("y", "a", "n");  // minimal skew: tiny pulse
    b.output("y");
    const Netlist nl = b.build();
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    WaveSimConfig strong;
    strong.inertial_fraction = 1.0;
    const WaveSim sim(nl, ann, strong);
    const std::vector<Bit> v1{0};
    const std::vector<Bit> v2{1};
    const std::vector<Waveform> waves = sim.simulate(v1, v2);
    const GateId y = nl.find("y");
    EXPECT_EQ(waves[y].num_transitions(), 0u);
}

TEST(WaveSim, FinalValuesMatchLogicSim) {
    const Netlist nl = generate_circuit(
        GeneratorConfig{"ws_gen", 400, 40, 12, 12, 12, 0.6, 21});
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    const WaveSim wave_sim(nl, ann);
    const LogicSim logic_sim(nl);
    Prng rng(77);
    const std::size_t n = nl.comb_sources().size();
    for (int trial = 0; trial < 10; ++trial) {
        std::vector<Bit> v1(n);
        std::vector<Bit> v2(n);
        for (std::size_t s = 0; s < n; ++s) {
            v1[s] = rng.chance(0.5) ? 1 : 0;
            v2[s] = rng.chance(0.5) ? 1 : 0;
        }
        const std::vector<Waveform> waves = wave_sim.simulate(v1, v2);
        const std::vector<Bit> initial = logic_sim.eval(v1);
        const std::vector<Bit> final_values = logic_sim.eval(v2);
        for (GateId id = 0; id < nl.size(); ++id) {
            EXPECT_EQ(waves[id].initial(), initial[id] != 0)
                << "initial of " << nl.gate(id).name;
            EXPECT_EQ(waves[id].final(), final_values[id] != 0)
                << "final of " << nl.gate(id).name;
        }
    }
}

TEST(WaveSim, SettleTimesRespectSta) {
    const Netlist nl = generate_circuit(
        GeneratorConfig{"ws_sta", 500, 50, 12, 12, 14, 0.5, 22});
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    const StaResult sta = StaEngine(nl, ann).analyze();
    const WaveSim sim(nl, ann);
    Prng rng(78);
    const std::size_t n = nl.comb_sources().size();
    std::vector<Bit> v1(n);
    std::vector<Bit> v2(n);
    for (std::size_t s = 0; s < n; ++s) {
        v1[s] = rng.chance(0.5) ? 1 : 0;
        v2[s] = rng.chance(0.5) ? 1 : 0;
    }
    const std::vector<Waveform> waves = sim.simulate(v1, v2);
    for (GateId id = 0; id < nl.size(); ++id) {
        // No signal settles after its STA max arrival.
        EXPECT_LE(waves[id].settle_time(), sta.max_arrival[id] + 1e-6)
            << nl.gate(id).name;
        // And no transition happens before the STA min arrival.
        if (waves[id].num_transitions() > 0 &&
            is_combinational(nl.gate(id).type)) {
            EXPECT_GE(waves[id].transitions()[0],
                      sta.min_arrival[id] - 1e-6)
                << nl.gate(id).name;
        }
    }
}

TEST(WaveSim, InertialThresholdScalesWithConfig) {
    const Netlist nl = make_s27();
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    const WaveSim a(nl, ann, WaveSimConfig{0.4});
    const WaveSim b(nl, ann, WaveSimConfig{0.8});
    const WaveSim off(nl, ann, WaveSimConfig{0.0});
    const GateId g = nl.find("G9");
    EXPECT_NEAR(b.inertial_threshold(g), 2.0 * a.inertial_threshold(g), 1e-9);
    EXPECT_DOUBLE_EQ(off.inertial_threshold(g), 0.0);
}

/// FNV-1a over the exact bits of waveforms and diffs.
struct Fnv1a {
    std::uint64_t h = 1469598103934665603ULL;

    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 1099511628211ULL;
        }
    }
    void wave(const Waveform& w) {
        u64(w.initial() ? 1 : 0);
        u64(w.num_transitions());
        for (Time t : w.transitions()) u64(std::bit_cast<std::uint64_t>(t));
    }
};

std::vector<Bit> random_bits(Prng& rng, std::size_t n) {
    std::vector<Bit> v(n);
    for (Bit& b : v) b = rng.chance(0.5) ? 1 : 0;
    return v;
}

/// Hashes every waveform of `patterns` random pattern pairs and the
/// observation-point diffs of every fault in `faults` under each.
std::pair<std::uint64_t, std::uint64_t> kernel_hashes(
    const WaveSim& sim, std::span<const DelayFault> faults,
    std::size_t patterns, std::uint64_t seed) {
    const Netlist& nl = sim.netlist();
    const FaultSim fsim(sim);
    FaultSimScratch scratch;
    Prng rng(seed);
    Fnv1a waves_hash;
    Fnv1a diffs_hash;
    for (std::size_t pi = 0; pi < patterns; ++pi) {
        const std::vector<Bit> v1 = random_bits(rng, nl.comb_sources().size());
        const std::vector<Bit> v2 = random_bits(rng, nl.comb_sources().size());
        const std::vector<Waveform> good = sim.simulate(v1, v2);
        for (const Waveform& w : good) waves_hash.wave(w);
        for (const DelayFault& f : faults) {
            for (const ObserveDiff& od : fsim.simulate(f, good, scratch)) {
                diffs_hash.u64(od.observe_index);
                diffs_hash.wave(od.diff);
            }
            diffs_hash.u64(0xFFFFFFFFu);
        }
    }
    return {waves_hash.h, diffs_hash.h};
}

/// Faults at every pin and output of every combinational gate (or of
/// `count` random ones when count > 0), both directions.
std::vector<DelayFault> kernel_faults(const Netlist& nl, std::size_t count,
                                      std::span<const Time> deltas,
                                      std::uint64_t seed) {
    std::vector<DelayFault> faults;
    Prng rng(seed);
    auto add_site = [&](GateId g, std::uint32_t pin) {
        for (Time d : deltas) {
            for (bool rising : {true, false}) {
                faults.push_back(DelayFault{FaultSite{g, pin}, rising, d});
            }
        }
    };
    if (count == 0) {
        for (GateId g = 0; g < nl.size(); ++g) {
            if (!is_combinational(nl.gate(g).type)) continue;
            add_site(g, FaultSite::kOutputPin);
            for (std::uint32_t p = 0; p < nl.gate(g).fanin.size(); ++p) {
                add_site(g, p);
            }
        }
        return faults;
    }
    while (faults.size() < count * deltas.size() * 2) {
        const auto g = static_cast<GateId>(rng.next_below(nl.size()));
        const Gate& gate = nl.gate(g);
        if (!is_combinational(gate.type)) continue;
        add_site(g, rng.chance(0.5)
                        ? FaultSite::kOutputPin
                        : static_cast<std::uint32_t>(
                              rng.next_below(gate.fanin.size())));
    }
    return faults;
}

// Pins the exact output of the waveform kernel (gate evaluation,
// preemption, inertial filtering) and of the fault-simulation walk, so
// a rewrite of either must reproduce them bit for bit.  Two circuits:
// a generated one with asymmetric per-pin rise/fall delays, and a
// block with every cell type at its maximum arity whose sources are
// skewed by less than kTimeEps (and so fall into one event group).
TEST(WaveSim, KernelMatchesPinnedWaveforms) {
    const WaveSimConfig inertial{0.4};
    const std::vector<Time> deltas{2.5, 11.0};
    {
        const Netlist nl = generate_circuit(
            GeneratorConfig{"pin_gen", 300, 24, 10, 10, 10, 0.5, 4242});
        DelayAnnotation ann = DelayAnnotation::nominal(nl);
        Prng rng(17);
        for (GateId id = 0; id < nl.size(); ++id) {
            if (!is_combinational(nl.gate(id).type)) continue;
            for (std::uint32_t p = 0; p < nl.gate(id).fanin.size(); ++p) {
                ann.set_arc(id, p, PinDelay{rng.uniform(3.0, 40.0),
                                            rng.uniform(3.0, 40.0)});
            }
        }
        const WaveSim sim(nl, ann, inertial);
        const auto faults = kernel_faults(nl, 40, deltas, 5);
        const auto [waves, diffs] = kernel_hashes(sim, faults, 24, 99);
        EXPECT_EQ(waves, 1379404771617838070ULL) << "generated circuit waveforms";
        EXPECT_EQ(diffs, 2860829166983131855ULL) << "generated circuit diffs";
    }
    {
        NetlistBuilder b("every_cell");
        std::vector<std::string> in;
        std::vector<std::string> bf;
        for (int k = 0; k < 8; ++k) {
            in.push_back(std::string(1, 'i') + std::to_string(k));
            bf.push_back(std::string(1, 'b') + std::to_string(k));
            b.input(in.back());
            b.buf(bf.back(), in.back());
        }
        b.gate(CellType::And, "and8", bf);
        b.gate(CellType::Nand, "nand8",
               {in[0], in[1], in[2], in[3], bf[4], bf[5], bf[6], bf[7]});
        b.gate(CellType::Or, "or8",
               {bf[7], bf[6], bf[5], bf[4], bf[3], bf[2], bf[1], bf[0]});
        b.gate(CellType::Nor, "nor8", in);
        b.gate(CellType::Xor, "xor4", {bf[0], bf[1], bf[2], bf[3]});
        b.gate(CellType::Xnor, "xnor4", {in[4], bf[5], in[6], bf[7]});
        b.gate(CellType::Mux2, "mux", {bf[0], bf[1], bf[2]});
        b.gate(CellType::Aoi21, "aoi", {bf[3], bf[4], bf[5]});
        b.gate(CellType::Oai21, "oai", {in[5], bf[6], bf[7]});
        b.buf("buf", bf[2]);
        b.inv("inv", bf[3]);
        b.gate(CellType::Xor, "x2", {"xor4", "xnor4", "mux", "aoi"});
        b.gate(CellType::Xnor, "xn2", {"oai", "buf", "inv", "xor4"});
        b.gate(CellType::And, "a2",
               {"nand8", "or8", "xor4", "xnor4", "mux", "aoi", "oai", "inv"});
        b.gate(CellType::Nor, "n2",
               {"and8", "nor8", "xor4", "xnor4", "mux", "aoi", "oai", "buf"});
        b.gate(CellType::Or, "o2", {"and8", "nand8", "xor4", "inv"});
        b.gate(CellType::Nand, "na2", {"or8", "nor8", "aoi", "buf"});
        b.gate(CellType::Mux2, "m2", {"x2", "xn2", "a2"});
        b.gate(CellType::Aoi21, "ao2", {"x2", "n2", "o2"});
        b.gate(CellType::Oai21, "oa2", {"xn2", "na2", "a2"});
        b.gate(CellType::Xor, "x3", {"m2", "ao2", "oa2", "x2"});
        for (const char* o : {"x3", "m2", "ao2", "oa2", "n2", "o2", "na2",
                              "and8", "nor8", "xor4", "mux", "inv"}) {
            b.output(o);
        }
        const Netlist nl = b.build();
        DelayAnnotation ann = DelayAnnotation::nominal(nl);
        Prng rng(23);
        for (GateId id = 0; id < nl.size(); ++id) {
            const Gate& g = nl.gate(id);
            if (!is_combinational(g.type)) continue;
            for (std::uint32_t p = 0; p < g.fanin.size(); ++p) {
                if (g.name.size() == 2 && g.name[0] == 'b') {
                    // Source buffers: edges a few 1e-10 apart, so
                    // neighbouring sources land inside one kTimeEps
                    // group and a chain of them straddles its edge.
                    const Time k = g.name[1] - '0';
                    ann.set_arc(id, p, PinDelay{10.0 + k * 3e-10,
                                                12.0 + k * 2e-10});
                } else if (p % 3 == 0) {
                    ann.set_arc(id, p, PinDelay{6.0, 6.0 + 5e-10});
                } else {
                    ann.set_arc(id, p, PinDelay{rng.uniform(2.0, 14.0),
                                                rng.uniform(2.0, 14.0)});
                }
            }
        }
        const WaveSim sim(nl, ann, inertial);
        const std::vector<Time> block_deltas{4e-10, 1.5, 9.0};
        const auto faults = kernel_faults(nl, 0, block_deltas, 0);
        const auto [waves, diffs] = kernel_hashes(sim, faults, 64, 7);
        EXPECT_EQ(waves, 4378334720255702338ULL) << "every-cell block waveforms";
        EXPECT_EQ(diffs, 17935561838636476013ULL) << "every-cell block diffs";
    }
}

}  // namespace
}  // namespace fastmon
