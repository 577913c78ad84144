#include "opt/set_cover.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include <gtest/gtest.h>

#include "util/prng.hpp"

namespace fastmon {
namespace {

SetCoverInstance make_instance(std::uint32_t n_elems,
                               std::vector<std::vector<std::uint32_t>> sets) {
    SetCoverInstance inst;
    inst.num_elements = n_elems;
    inst.sets = std::move(sets);
    for (auto& s : inst.sets) std::sort(s.begin(), s.end());
    return inst;
}

TEST(SetCover, GreedyCoversEverything) {
    const SetCoverInstance inst =
        make_instance(4, {{0, 1}, {2}, {3}, {0, 1, 2}});
    const SetCoverResult r = greedy_set_cover(inst);
    EXPECT_TRUE(r.feasible);
    EXPECT_EQ(r.covered_weight, 4u);
}

TEST(SetCover, ExactBeatsGreedyOnClassicTrap) {
    // Classic greedy trap: elements 0..5; the big "trap" set {0,1,2,3}
    // attracts greedy, forcing 3 sets, while {0,1,4} + {2,3,5} cover in 2.
    const SetCoverInstance inst = make_instance(
        6, {{0, 1, 2, 3}, {0, 1, 4}, {2, 3, 5}, {4}, {5}});
    const SetCoverResult greedy = greedy_set_cover(inst);
    const SetCoverResult exact = solve_set_cover(inst);
    EXPECT_TRUE(exact.feasible);
    EXPECT_TRUE(exact.proven_optimal);
    EXPECT_EQ(exact.chosen.size(), 2u);
    EXPECT_GE(greedy.chosen.size(), exact.chosen.size());
}

TEST(SetCover, UncoverableElementMakesFullCoverInfeasible) {
    const SetCoverInstance inst = make_instance(3, {{0}, {1}});
    const SetCoverResult r = solve_set_cover(inst);
    EXPECT_FALSE(r.feasible);
    // Partial cover of 2/3 is fine.
    SetCoverOptions opt;
    opt.coverage = 0.66;
    const SetCoverResult partial = solve_set_cover(inst, opt);
    EXPECT_TRUE(partial.feasible);
}

TEST(SetCover, EssentialSetsAreForced) {
    // Element 3 only in set 2; sets 0/1 redundant after set 2 chosen.
    const SetCoverInstance inst =
        make_instance(4, {{0, 1}, {1, 2}, {0, 1, 2, 3}});
    const SetCoverResult r = solve_set_cover(inst);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.chosen, (std::vector<std::uint32_t>{2}));
}

TEST(SetCover, WeightedPartialCover) {
    SetCoverInstance inst = make_instance(3, {{0}, {1}, {2}});
    inst.element_weight = {100, 1, 1};
    SetCoverOptions opt;
    opt.coverage = 0.9;  // target ceil(0.9 * 102) = 92
    const SetCoverResult r = solve_set_cover(inst, opt);
    ASSERT_TRUE(r.feasible);
    // The heavy element alone reaches the target: one set.
    EXPECT_EQ(r.chosen.size(), 1u);
    EXPECT_EQ(r.chosen[0], 0u);
    EXPECT_EQ(r.covered_weight, 100u);
    // At 100 % every set is needed.
    SetCoverOptions full;
    const SetCoverResult rf = solve_set_cover(inst, full);
    ASSERT_TRUE(rf.feasible);
    EXPECT_EQ(rf.chosen.size(), 3u);
}

TEST(SetCover, PartialCoverPicksHeavyElements) {
    SetCoverInstance inst = make_instance(4, {{0}, {1}, {2}, {3}});
    inst.element_weight = {10, 10, 10, 70};
    SetCoverOptions opt;
    opt.coverage = 0.7;  // target 70
    const SetCoverResult r = solve_set_cover(inst, opt);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.chosen, (std::vector<std::uint32_t>{3}));
}

/// Brute-force minimal (partial) cover by weight over every subset of
/// at most 16 sets and 32 elements; SIZE_MAX when no subset reaches the
/// target.
std::size_t brute_optimum(const SetCoverInstance& inst, double coverage) {
    const std::size_t n = inst.sets.size();
    const auto target = static_cast<std::uint64_t>(
        std::ceil(coverage * static_cast<double>(inst.total_weight()) - 1e-9));
    std::vector<std::uint32_t> set_mask(n, 0);
    for (std::size_t s = 0; s < n; ++s) {
        for (std::uint32_t e : inst.sets[s]) set_mask[s] |= 1u << e;
    }
    // covered[m] = union of the sets in subset m, built from m minus its
    // lowest set.
    std::vector<std::uint32_t> covered(std::size_t{1} << n, 0);
    std::size_t best = SIZE_MAX;
    for (std::uint32_t m = 0; m < covered.size(); ++m) {
        if (m != 0) {
            covered[m] = covered[m & (m - 1)] |
                         set_mask[static_cast<std::size_t>(std::countr_zero(m))];
        }
        std::uint64_t w = 0;
        for (std::uint32_t bits = covered[m]; bits != 0; bits &= bits - 1) {
            w += inst.weight_of(static_cast<std::uint32_t>(std::countr_zero(bits)));
        }
        if (w >= target) {
            best = std::min<std::size_t>(best, std::popcount(m));
        }
    }
    return best;
}

// Property: exact solver matches brute force on random instances.
class SetCoverBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SetCoverBruteForce, MatchesExhaustive) {
    Prng rng(GetParam() * 41 + 3);
    for (int instance = 0; instance < 15; ++instance) {
        const std::uint32_t n_elems = 10 + static_cast<std::uint32_t>(
                                               rng.next_below(8));
        const std::size_t n_sets = 8 + rng.next_below(5);
        SetCoverInstance inst;
        inst.num_elements = n_elems;
        inst.sets.resize(n_sets);
        for (std::uint32_t e = 0; e < n_elems; ++e) {
            // Ensure coverability.
            inst.sets[e % n_sets].push_back(e);
            inst.sets[rng.next_below(n_sets)].push_back(e);
        }
        for (auto& s : inst.sets) {
            std::sort(s.begin(), s.end());
            s.erase(std::unique(s.begin(), s.end()), s.end());
        }
        const std::size_t bf = brute_optimum(inst, 1.0);
        const SetCoverResult r = solve_set_cover(inst);
        ASSERT_TRUE(r.feasible);
        ASSERT_TRUE(r.proven_optimal);
        EXPECT_EQ(r.chosen.size(), bf) << "instance " << instance;
        // Validate the cover.
        std::vector<bool> covered(n_elems, false);
        for (std::uint32_t s : r.chosen) {
            for (std::uint32_t e : inst.sets[s]) covered[e] = true;
        }
        EXPECT_TRUE(std::all_of(covered.begin(), covered.end(),
                                [](bool b) { return b; }));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetCoverBruteForce,
                         ::testing::Range<std::uint64_t>(1, 11));

class PartialCoverBruteForce : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PartialCoverBruteForce, MatchesExhaustive) {
    Prng rng(GetParam() * 97 + 11);
    for (int instance = 0; instance < 10; ++instance) {
        const std::uint32_t n_elems = 12;
        const std::size_t n_sets = 9;
        SetCoverInstance inst;
        inst.num_elements = n_elems;
        inst.sets.resize(n_sets);
        inst.element_weight.resize(n_elems);
        for (std::uint32_t e = 0; e < n_elems; ++e) {
            inst.element_weight[e] =
                1 + static_cast<std::uint32_t>(rng.next_below(9));
            inst.sets[rng.next_below(n_sets)].push_back(e);
            inst.sets[rng.next_below(n_sets)].push_back(e);
        }
        for (auto& s : inst.sets) {
            std::sort(s.begin(), s.end());
            s.erase(std::unique(s.begin(), s.end()), s.end());
        }
        for (double coverage : {0.9, 0.75, 0.5}) {
            SetCoverOptions opt;
            opt.coverage = coverage;
            const std::size_t bf = brute_optimum(inst, coverage);
            const SetCoverResult r = solve_set_cover(inst, opt);
            ASSERT_TRUE(r.feasible) << coverage;
            if (r.proven_optimal) {
                EXPECT_EQ(r.chosen.size(), bf)
                    << "instance " << instance << " cov " << coverage;
            } else {
                EXPECT_GE(r.chosen.size(), bf);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartialCoverBruteForce,
                         ::testing::Range<std::uint64_t>(1, 9));

// Property: the reported lower bound is sound.  For full and partial
// covers, lower_bound <= brute-force optimum <= chosen.size(), and a
// proven-optimal result is the optimum.
class CoverBoundProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoverBoundProperty, LowerBoundBracketsOptimum) {
    Prng rng(GetParam() * 13 + 5);
    for (int instance = 0; instance < 3; ++instance) {
        const std::size_t n_sets = 12 + rng.next_below(5);
        const std::uint32_t n_elems = 20;
        SetCoverInstance inst;
        inst.num_elements = n_elems;
        inst.sets.resize(n_sets);
        inst.element_weight.resize(n_elems);
        // Element e is in set e % n_sets plus two random ones, so a full
        // cover always exists.
        for (std::uint32_t e = 0; e < n_elems; ++e) {
            inst.element_weight[e] =
                1 + static_cast<std::uint32_t>(rng.next_below(9));
            inst.sets[e % n_sets].push_back(e);
            inst.sets[rng.next_below(n_sets)].push_back(e);
            inst.sets[rng.next_below(n_sets)].push_back(e);
        }
        for (auto& s : inst.sets) {
            std::sort(s.begin(), s.end());
            s.erase(std::unique(s.begin(), s.end()), s.end());
        }
        for (double coverage : {1.0, 0.9, 0.75, 0.5}) {
            SetCoverOptions opt;
            opt.coverage = coverage;
            const std::size_t bf = brute_optimum(inst, coverage);
            const SetCoverResult r = solve_set_cover(inst, opt);
            ASSERT_TRUE(r.feasible) << coverage;
            EXPECT_LE(r.lower_bound, bf)
                << "instance " << instance << " cov " << coverage;
            EXPECT_LE(bf, r.chosen.size());
            if (r.proven_optimal) {
                EXPECT_EQ(r.chosen.size(), bf);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverBoundProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(SetCover, TightPackingProvesOptimumWithinBudget) {
    // Sets are runs of consecutive elements plus two private elements
    // each.  On this seed greedy takes 10 sets and the optimum is 9; the
    // root packing bound is also 9, so the search stops at the first
    // 9-set cover instead of exhausting the remaining tree (90 nodes).
    Prng rng(158);
    SetCoverInstance inst;
    inst.num_elements = 60;
    inst.sets.resize(30);
    for (std::uint32_t s = 0; s < 30; ++s) {
        const auto lo = static_cast<std::uint32_t>(rng.next_below(60));
        const auto len = 2 + static_cast<std::uint32_t>(rng.next_below(10));
        for (std::uint32_t e = lo; e < std::min(60u, lo + len); ++e) {
            inst.sets[s].push_back(e);
        }
        inst.sets[s].push_back(s);
        inst.sets[s].push_back(s + 30);
        std::sort(inst.sets[s].begin(), inst.sets[s].end());
        inst.sets[s].erase(
            std::unique(inst.sets[s].begin(), inst.sets[s].end()),
            inst.sets[s].end());
    }
    SetCoverOptions opt;
    opt.max_nodes = 40;
    const SetCoverResult r = solve_set_cover(inst, opt);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(greedy_set_cover(inst, opt).chosen.size(), 10u);
    EXPECT_EQ(r.chosen.size(), 9u);
    EXPECT_EQ(r.lower_bound, 9u);
    EXPECT_TRUE(r.proven_optimal);
    EXPECT_LT(r.nodes_explored, opt.max_nodes);
}

TEST(SetCover, BudgetFallsBackToGreedy) {
    Prng rng(17);
    SetCoverInstance inst;
    inst.num_elements = 200;
    inst.sets.resize(60);
    for (std::uint32_t e = 0; e < inst.num_elements; ++e) {
        for (int k = 0; k < 3; ++k) {
            inst.sets[rng.next_below(60)].push_back(e);
        }
    }
    for (auto& s : inst.sets) {
        std::sort(s.begin(), s.end());
        s.erase(std::unique(s.begin(), s.end()), s.end());
    }
    SetCoverOptions opt;
    opt.max_nodes = 2;
    opt.time_limit_sec = 0.01;
    const SetCoverResult r = solve_set_cover(inst, opt);
    // Still feasible (greedy incumbent), but not proven optimal.
    if (greedy_set_cover(inst).feasible) {
        EXPECT_TRUE(r.feasible);
        EXPECT_FALSE(r.proven_optimal);
    }
}

}  // namespace
}  // namespace fastmon
