#include "netlist/netlist.hpp"

#include <gtest/gtest.h>

#include "netlist/builder.hpp"
#include "netlist/iscas_data.hpp"

namespace fastmon {
namespace {

Netlist small_seq() {
    NetlistBuilder b("small_seq");
    b.input("a").input("b");
    b.dff_declare("q");
    b.nand2("n1", "a", "q");
    b.or2("n2", "n1", "b");
    b.dff_connect("q", "n2");
    b.output("n2");
    return b.build();
}

TEST(Netlist, BasicCounts) {
    const Netlist nl = small_seq();
    EXPECT_EQ(nl.primary_inputs().size(), 2u);
    EXPECT_EQ(nl.primary_outputs().size(), 1u);
    EXPECT_EQ(nl.flip_flops().size(), 1u);
    EXPECT_EQ(nl.num_comb_gates(), 2u);
    EXPECT_EQ(nl.size(), 6u);  // 2 PI + 1 FF + 2 gates + 1 pad
}

TEST(Netlist, FindByName) {
    const Netlist nl = small_seq();
    EXPECT_NE(nl.find("n1"), kNoGate);
    EXPECT_NE(nl.find("q"), kNoGate);
    EXPECT_EQ(nl.find("nope"), kNoGate);
    EXPECT_EQ(nl.gate(nl.find("n1")).type, CellType::Nand);
}

TEST(Netlist, CombSourcesAreInputsThenFfs) {
    const Netlist nl = small_seq();
    const auto sources = nl.comb_sources();
    ASSERT_EQ(sources.size(), 3u);
    EXPECT_EQ(nl.gate(sources[0]).type, CellType::Input);
    EXPECT_EQ(nl.gate(sources[1]).type, CellType::Input);
    EXPECT_EQ(nl.gate(sources[2]).type, CellType::Dff);
    for (std::uint32_t i = 0; i < sources.size(); ++i) {
        EXPECT_EQ(nl.source_index(sources[i]), i);
    }
    EXPECT_EQ(nl.source_index(nl.find("n1")),
              std::numeric_limits<std::uint32_t>::max());
}

TEST(Netlist, ObservePointsArePosThenPpos) {
    const Netlist nl = small_seq();
    const auto ops = nl.observe_points();
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_FALSE(ops[0].is_pseudo);
    EXPECT_EQ(ops[0].signal, nl.find("n2"));
    EXPECT_TRUE(ops[1].is_pseudo);
    EXPECT_EQ(ops[1].signal, nl.find("n2"));
}

TEST(Netlist, TopoOrderRespectsDependencies) {
    const Netlist nl = make_s27();
    const auto order = nl.topo_order();
    EXPECT_EQ(order.size(), nl.size());
    for (GateId id = 0; id < nl.size(); ++id) {
        const Gate& g = nl.gate(id);
        if (g.type == CellType::Input || g.type == CellType::Dff) continue;
        for (GateId f : g.fanin) {
            EXPECT_LT(nl.topo_rank(f), nl.topo_rank(id))
                << nl.gate(f).name << " must precede " << g.name;
        }
    }
}

TEST(Netlist, LevelsIncreaseAlongEdges) {
    const Netlist nl = make_s27();
    for (GateId id = 0; id < nl.size(); ++id) {
        const Gate& g = nl.gate(id);
        if (g.type == CellType::Input || g.type == CellType::Dff) {
            EXPECT_EQ(nl.level(id), 0u);
            continue;
        }
        for (GateId f : g.fanin) {
            EXPECT_LT(nl.level(f), nl.level(id));
        }
    }
    EXPECT_GT(nl.depth(), 0u);
}

TEST(Netlist, RejectsCombinationalCycle) {
    Netlist nl("cycle");
    const GateId a = nl.add_gate(CellType::Input, "a", {});
    // g1 and g2 feed each other.
    const GateId g1 = nl.add_gate(CellType::Nand, "g1", {a, a});
    const GateId g2 = nl.add_gate(CellType::Nand, "g2", {g1, a});
    nl.add_gate(CellType::Output, "o$po", {g2});
    // Rewire g1 to depend on g2 (append beyond is blocked; rebuild).
    Netlist bad("cycle2");
    const GateId ba = bad.add_gate(CellType::Input, "a", {});
    const GateId bg1 = bad.add_gate(CellType::Nand, "g1", {});
    const GateId bg2 = bad.add_gate(CellType::Nand, "g2", {});
    bad.append_fanin(bg1, bg2);
    bad.append_fanin(bg1, ba);
    bad.append_fanin(bg2, bg1);
    bad.append_fanin(bg2, ba);
    bad.add_gate(CellType::Output, "o$po", {bg2});
    EXPECT_THROW(bad.finalize(), std::runtime_error);
}

TEST(Netlist, RejectsBadArity) {
    Netlist nl("bad_arity");
    const GateId a = nl.add_gate(CellType::Input, "a", {});
    nl.add_gate(CellType::Inv, "g", {a, a});  // Inv with two fanins
    EXPECT_THROW(nl.finalize(), std::runtime_error);
}

TEST(Netlist, RejectsDuplicateNames) {
    Netlist nl("dups");
    nl.add_gate(CellType::Input, "a", {});
    EXPECT_THROW(nl.add_gate(CellType::Input, "a", {}), std::runtime_error);
}

TEST(Netlist, SequentialLoopThroughDffIsFine) {
    // s27 contains FF feedback loops; finalize must succeed.
    EXPECT_NO_THROW(make_s27());
}

TEST(Netlist, S27MatchesPublishedStatistics) {
    const Netlist nl = make_s27();
    EXPECT_EQ(nl.primary_inputs().size(), 4u);
    EXPECT_EQ(nl.primary_outputs().size(), 1u);
    EXPECT_EQ(nl.flip_flops().size(), 3u);
    EXPECT_EQ(nl.num_comb_gates(), 10u);
}

TEST(Netlist, MiniCircuitsBuild) {
    const Netlist adder = make_mini_adder();
    EXPECT_EQ(adder.primary_outputs().size(), 5u);
    EXPECT_EQ(adder.flip_flops().size(), 8u);
    const Netlist alu = make_mini_alu();
    EXPECT_EQ(alu.flip_flops().size(), 4u);
    EXPECT_GT(alu.num_comb_gates(), 20u);
    for (const std::string& name : embedded_circuit_names()) {
        EXPECT_NO_THROW(make_embedded_circuit(name));
    }
    EXPECT_THROW(make_embedded_circuit("nope"), std::runtime_error);
}

}  // namespace
}  // namespace fastmon
