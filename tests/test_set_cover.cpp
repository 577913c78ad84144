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

TEST(SetCover, PartialCoverStopsAtItsRootBound) {
    // Target ceil(0.75 * 8) = 6.  Greedy takes {0..3} then {4,5}; the two
    // largest static weights (4 + 2) are the root bound, so greedy is
    // optimal and the search never starts.
    const SetCoverInstance inst =
        make_instance(8, {{0, 1, 2, 3}, {4, 5}, {6}, {7}, {3, 4}});
    SetCoverOptions opt;
    opt.coverage = 0.75;
    const SetCoverResult r = solve_set_cover(inst, opt);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.chosen, (std::vector<std::uint32_t>{0, 1}));
    EXPECT_EQ(r.lower_bound, 2u);
    EXPECT_EQ(r.nodes_explored, 0u);
    EXPECT_TRUE(r.proven_optimal);
}

/// Seeded instance for the kernel pins: element e lies in set
/// e % n_sets and in `memberships` random sets; with `runs`, every set
/// also takes a run of consecutive elements (the nested, overlapping
/// shape of detection ranges, which merges many elements).
SetCoverInstance kernel_instance(std::uint64_t seed, std::uint32_t n_elems,
                                 std::uint32_t n_sets,
                                 std::uint32_t memberships, bool runs,
                                 bool weighted) {
    Prng rng(seed);
    SetCoverInstance inst;
    inst.num_elements = n_elems;
    inst.sets.resize(n_sets);
    if (weighted) inst.element_weight.resize(n_elems);
    for (std::uint32_t e = 0; e < n_elems; ++e) {
        if (weighted) {
            inst.element_weight[e] =
                1 + static_cast<std::uint32_t>(rng.next_below(5));
        }
        inst.sets[e % n_sets].push_back(e);
        for (std::uint32_t k = 0; k < memberships; ++k) {
            inst.sets[rng.next_below(n_sets)].push_back(e);
        }
    }
    for (std::uint32_t s = 0; runs && s < n_sets; ++s) {
        const auto lo = static_cast<std::uint32_t>(rng.next_below(n_elems));
        const auto len =
            static_cast<std::uint32_t>(rng.next_below(n_elems / 4 + 1));
        for (std::uint32_t e = lo; e < std::min(n_elems, lo + len); ++e) {
            inst.sets[s].push_back(e);
        }
    }
    for (auto& s : inst.sets) {
        std::sort(s.begin(), s.end());
        s.erase(std::unique(s.begin(), s.end()), s.end());
    }
    return inst;
}

/// FNV-1a over the chosen set indices.
std::uint64_t chosen_hash(const std::vector<std::uint32_t>& chosen) {
    std::uint64_t h = 1469598103934665603ULL;
    for (std::uint32_t s : chosen) {
        h ^= s;
        h *= 1099511628211ULL;
    }
    return h;
}

struct PinnedSolve {
    std::uint32_t elements;
    std::uint32_t sets;
    std::uint32_t memberships;
    bool runs;
    bool weighted;
    double coverage;
    std::size_t max_nodes;
    // The search's result, pinned from the element-list search the
    // bitset kernel replaced.
    std::size_t chosen_size;
    std::uint64_t chosen_hash;
    std::size_t nodes;
    bool proven_optimal;
    std::size_t lower_bound;
};

// 63/64/65 elements straddle one bitset word, 130 spans three and 700
// eleven; the weighted and run-merged instances take the ctz weight
// walk, the others the popcount.  Budget 300 binds on most instances,
// 20000 on few.
constexpr PinnedSolve kPinnedSolves[] = {
    {63, 24, 2, false, false, 0.90, 300, 9, 0xf4278b8426256cd2ULL, 301, false, 6},
    {63, 24, 2, false, false, 0.90, 20000, 8, 0xbf6ed84d93cb07ceULL, 7315, true, 6},
    {63, 24, 2, false, false, 0.95, 300, 10, 0xe5a516a835aa2bd4ULL, 301, false, 6},
    {63, 24, 2, false, false, 0.95, 20000, 9, 0xad300fc95af39790ULL, 20001, false, 6},
    {63, 24, 2, false, false, 0.99, 300, 11, 0x17ce1cd9cd18c087ULL, 301, false, 7},
    {63, 24, 2, false, false, 0.99, 20000, 11, 0x17ce1cd9cd18c087ULL, 20001, false, 7},
    {63, 24, 2, false, false, 1.00, 300, 11, 0x17ce1cd9cd18c087ULL, 301, false, 8},
    {63, 24, 2, false, false, 1.00, 20000, 11, 0x17ce1cd9cd18c087ULL, 2750, true, 8},
    {64, 20, 1, true, true, 0.90, 300, 4, 0x28bbcea081c8aad4ULL, 13, true, 3},
    {64, 20, 1, true, true, 0.90, 20000, 4, 0x28bbcea081c8aad4ULL, 13, true, 3},
    {64, 20, 1, true, true, 0.95, 300, 4, 0x28bbcea081c8aad4ULL, 1, true, 4},
    {64, 20, 1, true, true, 0.95, 20000, 4, 0x28bbcea081c8aad4ULL, 1, true, 4},
    {64, 20, 1, true, true, 0.99, 300, 6, 0x7af92f41e47b3380ULL, 301, false, 4},
    {64, 20, 1, true, true, 0.99, 20000, 6, 0x7af92f41e47b3380ULL, 1979, true, 4},
    {64, 20, 1, true, true, 1.00, 300, 6, 0x7af92f41e47b3380ULL, 51, true, 4},
    {64, 20, 1, true, true, 1.00, 20000, 6, 0x7af92f41e47b3380ULL, 51, true, 4},
    {65, 24, 2, false, false, 0.90, 300, 9, 0xb5d4cc530fdea532ULL, 301, false, 6},
    {65, 24, 2, false, false, 0.90, 20000, 8, 0xd8b56e788eed9bfeULL, 3307, true, 6},
    {65, 24, 2, false, false, 0.95, 300, 10, 0xd78de523f797e804ULL, 301, false, 6},
    {65, 24, 2, false, false, 0.95, 20000, 9, 0x106b55dacf75ae19ULL, 16239, true, 6},
    {65, 24, 2, false, false, 0.99, 300, 12, 0xc2c79e1361fd5460ULL, 301, false, 7},
    {65, 24, 2, false, false, 0.99, 20000, 11, 0x995eef7c5dd0f131ULL, 20001, false, 7},
    {65, 24, 2, false, false, 1.00, 300, 11, 0x685ef42fec8f32a4ULL, 301, false, 7},
    {65, 24, 2, false, false, 1.00, 20000, 11, 0x685ef42fec8f32a4ULL, 8372, true, 7},
    {130, 24, 1, true, true, 0.90, 300, 6, 0x00b5557502a10a7cULL, 301, false, 4},
    {130, 24, 1, true, true, 0.90, 20000, 6, 0x00b5557502a10a7cULL, 3903, true, 4},
    {130, 24, 1, true, true, 0.95, 300, 7, 0x5c21c9caa65959abULL, 301, false, 4},
    {130, 24, 1, true, true, 0.95, 20000, 7, 0x5c21c9caa65959abULL, 20001, false, 4},
    {130, 24, 1, true, true, 0.99, 300, 9, 0xb7ebf91b6c46680eULL, 301, false, 4},
    {130, 24, 1, true, true, 0.99, 20000, 9, 0xb7ebf91b6c46680eULL, 20001, false, 4},
    {130, 24, 1, true, true, 1.00, 300, 10, 0xaf4478ebe9e7f4b7ULL, 178, true, 10},
    {130, 24, 1, true, true, 1.00, 20000, 10, 0xaf4478ebe9e7f4b7ULL, 178, true, 10},
    {700, 40, 0, true, false, 0.90, 300, 4, 0xce9f47d27852e73fULL, 223, true, 4},
    {700, 40, 0, true, false, 0.90, 20000, 4, 0xce9f47d27852e73fULL, 223, true, 4},
    {700, 40, 0, true, false, 0.95, 300, 4, 0x1a77f1b101d29621ULL, 109, true, 4},
    {700, 40, 0, true, false, 0.95, 20000, 4, 0x1a77f1b101d29621ULL, 109, true, 4},
    {700, 40, 0, true, false, 0.99, 300, 6, 0xef384c647299f209ULL, 301, false, 4},
    {700, 40, 0, true, false, 0.99, 20000, 6, 0xef384c647299f209ULL, 4809, true, 4},
    {700, 40, 0, true, false, 1.00, 300, 9, 0x5923f29d2877dfdcULL, 301, false, 6},
    {700, 40, 0, true, false, 1.00, 20000, 9, 0x5923f29d2877dfdcULL, 866, true, 6},
    {700, 30, 1, true, true, 0.90, 300, 5, 0xc56d9b66a174d29cULL, 301, false, 4},
    {700, 30, 1, true, true, 0.90, 20000, 5, 0xc56d9b66a174d29cULL, 1277, true, 4},
    {700, 30, 1, true, true, 0.95, 300, 7, 0xfab10562feb61564ULL, 301, false, 4},
    {700, 30, 1, true, true, 0.95, 20000, 6, 0x6db16a090a21bb58ULL, 20001, false, 4},
    {700, 30, 1, true, true, 0.99, 300, 12, 0x9975ab5a079d04d3ULL, 301, false, 4},
    {700, 30, 1, true, true, 0.99, 20000, 12, 0x9975ab5a079d04d3ULL, 20001, false, 4},
    {700, 30, 1, true, true, 1.00, 300, 18, 0x9a5c1c859d1b17f3ULL, 301, false, 12},
    {700, 30, 1, true, true, 1.00, 20000, 17, 0x3d1628c9a7add7f1ULL, 20001, false, 12},
};

TEST(SetCover, KernelMatchesPinnedSearch) {
    for (const PinnedSolve& pin : kPinnedSolves) {
        const bool weighted = pin.weighted;
        const SetCoverInstance inst = kernel_instance(
            pin.elements * 7 + pin.sets + (weighted ? 1 : 0), pin.elements,
            pin.sets, pin.memberships, pin.runs, weighted);
        SetCoverOptions opt;
        opt.coverage = pin.coverage;
        opt.max_nodes = pin.max_nodes;
        opt.time_limit_sec = 600.0;  // only the node budget may bind
        const SetCoverResult r = solve_set_cover(inst, opt);
        SCOPED_TRACE(::testing::Message()
                     << pin.elements << " elements, " << pin.sets
                     << " sets, weighted " << weighted << ", coverage "
                     << pin.coverage << ", budget " << pin.max_nodes);
        EXPECT_EQ(r.chosen.size(), pin.chosen_size);
        EXPECT_EQ(chosen_hash(r.chosen), pin.chosen_hash);
        EXPECT_EQ(r.lower_bound, pin.lower_bound);
        if (pin.coverage < 1.0 && pin.chosen_size == pin.lower_bound) {
            // Partial cover now stops once the incumbent meets its root
            // bound, so it may prove the same cover in fewer nodes.
            EXPECT_LE(r.nodes_explored, pin.nodes);
            EXPECT_TRUE(r.proven_optimal);
        } else {
            EXPECT_EQ(r.nodes_explored, pin.nodes);
            EXPECT_EQ(r.proven_optimal, pin.proven_optimal);
        }
    }
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
