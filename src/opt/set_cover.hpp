// (Partial) set covering — the combinatorial core of both scheduling
// steps (Sec. IV-B): frequency selection covers target faults with test
// periods; pattern-configuration selection covers the per-frequency
// fault sets with (pattern, configuration) pairs.
//
// Instances are preprocessed (identical-element merging, essential
// sets, set dominance) and solved either greedily (the baseline
// heuristic of [17]) or exactly by branch and bound within a node/time
// budget, in place of the paper's commercial ILP with a 1 h timeout.
// A root lower bound (a disjoint-element packing for full cover, the
// largest static set weights for partial cover) ends the search as
// soon as the incumbent meets it and reports the gap when the budget
// runs out.  The tests cross-check both against brute-force
// enumeration.
//
// The greedy heuristic, the dominance test and the search are
// word-parallel: the covered set is a uint64_t bitset, and every set a
// row of its nonzero words (16 bytes each with the word index), at most
// sets x ceil(elements / 64) of them.  The largest perfbench instance,
// 1985 elements x 1245 sets, has 23k such words (0.36 MB); the search
// adds an undo trail of at most one entry per element.  The node budget
// and cancellation are checked at every node, the clock at the first
// node and every 64th, so `time_limit_sec` can overrun by up to 63
// nodes (microseconds).
#pragma once

#include <cstdint>
#include <vector>

namespace fastmon {

struct SetCoverInstance {
    std::uint32_t num_elements = 0;
    /// Element weights (empty = all 1); partial coverage targets count
    /// weight, e.g. merged fault classes carry their multiplicity.
    std::vector<std::uint32_t> element_weight;
    /// sets[s] lists the element ids covered by set s (sorted, unique).
    std::vector<std::vector<std::uint32_t>> sets;

    [[nodiscard]] std::uint64_t total_weight() const;
    [[nodiscard]] std::uint32_t weight_of(std::uint32_t element) const {
        return element_weight.empty() ? 1 : element_weight[element];
    }
};

struct SetCoverOptions {
    /// Fraction of the total element weight that must be covered
    /// (1.0 = full cover).
    double coverage = 1.0;
    std::size_t max_nodes = 200000;
    double time_limit_sec = 10.0;
};

struct SetCoverResult {
    std::vector<std::uint32_t> chosen;  ///< selected set indices (sorted)
    std::uint64_t covered_weight = 0;
    bool feasible = false;
    bool proven_optimal = false;
    /// Lower bound on the optimal number of sets, from the root of the
    /// search: forced sets plus the element packing (full cover) or the
    /// fewest sets whose static weights reach the target (partial
    /// cover).  0 when infeasible and for the greedy heuristic.
    std::size_t lower_bound = 0;
    /// Branch-and-bound nodes expanded (0 for the greedy heuristic).
    std::size_t nodes_explored = 0;
};

/// Greedy heuristic: repeatedly pick the set covering the most
/// uncovered weight (ties: lowest index).
SetCoverResult greedy_set_cover(const SetCoverInstance& instance,
                                const SetCoverOptions& options = {});

/// Exact (within budget) solver via preprocessing + branch and bound.
/// Falls back to the greedy incumbent when the budget is exhausted.
SetCoverResult solve_set_cover(const SetCoverInstance& instance,
                               const SetCoverOptions& options = {});

}  // namespace fastmon
