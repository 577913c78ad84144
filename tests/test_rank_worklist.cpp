#include "netlist/rank_worklist.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "netlist/iscas_data.hpp"

namespace fastmon {

/// Reaches the epoch counter so the wrap reset can be exercised without
/// 2^32 begin() calls.
struct RankWorklistTestPeer {
    static std::uint32_t& epoch(RankWorklist& work) { return work.epoch_; }
};

namespace {

TEST(RankWorklist, PopsComeInRankOrder) {
    const Netlist nl = make_s27();
    RankWorklist work;
    work.begin(nl);
    // Push every gate, highest rank first.
    const auto topo = nl.topo_order();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) work.push(*it);
    std::uint32_t popped = 0;
    while (!work.empty()) {
        const GateId id = work.pop();
        EXPECT_EQ(nl.topo_rank(id), popped);
        ++popped;
    }
    EXPECT_EQ(popped, nl.size());
}

TEST(RankWorklist, SecondPushInTheSameEpochIsANoOp) {
    const Netlist nl = make_s27();
    const GateId g11 = nl.find("G11");
    RankWorklist work;
    work.begin(nl);
    work.push(g11);
    work.push(g11);
    EXPECT_EQ(work.pop(), g11);
    EXPECT_TRUE(work.empty());
    work.push(g11);  // already popped in this epoch: stays out
    EXPECT_TRUE(work.empty());
}

TEST(RankWorklist, BeginClearsBothStamps) {
    const Netlist nl = make_s27();
    const GateId g11 = nl.find("G11");
    const GateId g8 = nl.find("G8");
    RankWorklist work;
    work.begin(nl);
    work.push(g11);
    work.mark_changed(g8);
    EXPECT_TRUE(work.changed(g8));
    EXPECT_FALSE(work.changed(g11));

    work.begin(nl);
    EXPECT_TRUE(work.empty());
    EXPECT_FALSE(work.changed(g8));
    work.push(g11);
    EXPECT_EQ(work.pop(), g11);
}

TEST(RankWorklist, EpochWrapClearsStaleStamps) {
    const Netlist nl = make_s27();
    const GateId g11 = nl.find("G11");
    const GateId g8 = nl.find("G8");
    RankWorklist work;
    work.begin(nl);  // epoch 1
    work.push(g11);
    work.mark_changed(g8);
    ASSERT_EQ(RankWorklistTestPeer::epoch(work), 1u);

    // As after 2^32 - 2 more walks: the next begin() wraps to epoch 1,
    // where the stamps above would alias without the reset.
    RankWorklistTestPeer::epoch(work) =
        std::numeric_limits<std::uint32_t>::max();
    work.begin(nl);
    EXPECT_EQ(RankWorklistTestPeer::epoch(work), 1u);
    EXPECT_FALSE(work.changed(g8));
    work.push(g11);
    ASSERT_FALSE(work.empty());
    EXPECT_EQ(work.pop(), g11);
}

TEST(RankWorklist, WalkFromS27G11StopsAtRegisters) {
    const Netlist nl = make_s27();
    const GateId g11 = nl.find("G11");
    const GateId g6 = nl.find("G6");  // G6 = DFF(G11)
    const GateId g8 = nl.find("G8");  // G8 = AND(G14, G6): behind the FF
    ASSERT_NE(g11, kNoGate);
    RankWorklist work;
    work.begin(nl);
    work.push(g11);
    std::vector<GateId> reached;
    while (!work.empty()) {
        const GateId id = work.pop();
        reached.push_back(id);
        for (GateId out : nl.gate(id).fanout) {
            if (nl.gate(out).type != CellType::Dff) work.push(out);
        }
    }
    ASSERT_FALSE(reached.empty());
    EXPECT_EQ(reached.front(), g11);
    EXPECT_EQ(std::count(reached.begin(), reached.end(), g6), 0);
    EXPECT_EQ(std::count(reached.begin(), reached.end(), g8), 0);
    EXPECT_GT(reached.size(), 1u);  // G11 does fan out within the cycle
}

}  // namespace
}  // namespace fastmon
