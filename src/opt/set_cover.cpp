#include "opt/set_cover.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cmath>
#include <map>
#include <numeric>
#include <span>

#include "util/cancel.hpp"
#include "util/fault_inject.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace fastmon {

std::uint64_t SetCoverInstance::total_weight() const {
    if (element_weight.empty()) return num_elements;
    return std::accumulate(element_weight.begin(), element_weight.end(),
                           std::uint64_t{0});
}

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t coverage_target(const SetCoverInstance& inst, double coverage) {
    const double t = coverage * static_cast<double>(inst.total_weight());
    return static_cast<std::uint64_t>(std::ceil(t - 1e-9));
}

/// The sets as rows of one bitset over the elements, so covering
/// arithmetic runs 64 elements at a time.  A row keeps only its nonzero
/// words, in ascending word order: a sparse set costs a few words, a
/// dense one its full width.
struct SetRows {
    struct Word {
        std::uint32_t index;  ///< word of the bitset
        std::uint64_t bits;
    };
    std::size_t words;                 ///< bitset width, ceil(elements / 64)
    std::vector<Word> nonzero;         ///< all rows, back to back
    std::vector<std::size_t> offset;   ///< row s: [offset[s], offset[s + 1])

    /// `sets` lists sorted, unique element ids.
    SetRows(std::uint32_t num_elements,
            const std::vector<std::vector<std::uint32_t>>& sets)
        : words((num_elements + 63) / 64) {
        offset.reserve(sets.size() + 1);
        offset.push_back(0);
        for (const std::vector<std::uint32_t>& set : sets) {
            for (std::uint32_t e : set) {
                const std::uint64_t bit = std::uint64_t{1} << (e % 64);
                if (nonzero.size() > offset.back() &&
                    nonzero.back().index == e / 64) {
                    nonzero.back().bits |= bit;
                } else {
                    nonzero.push_back({e / 64, bit});
                }
            }
            offset.push_back(nonzero.size());
        }
    }
    [[nodiscard]] std::span<const Word> row(std::size_t s) const {
        return {nonzero.data() + offset[s], offset[s + 1] - offset[s]};
    }
};

/// Weight of the elements in `bits`, word `word` of a bitset.
std::uint64_t weight_of_bits(const SetCoverInstance& inst, std::size_t word,
                             std::uint64_t bits) {
    if (inst.element_weight.empty()) {
        return static_cast<std::uint64_t>(std::popcount(bits));
    }
    std::uint64_t w = 0;
    for (; bits != 0; bits &= bits - 1) {
        w += inst.element_weight[word * 64 + std::countr_zero(bits)];
    }
    return w;
}

}  // namespace

SetCoverResult greedy_set_cover(const SetCoverInstance& instance,
                                const SetCoverOptions& options) {
    SetCoverResult result;
    const std::uint64_t target = coverage_target(instance, options.coverage);
    const SetRows rows(instance.num_elements, instance.sets);
    std::vector<std::uint64_t> covered(rows.words, 0);
    std::vector<bool> used(instance.sets.size(), false);
    std::uint64_t covered_weight = 0;

    while (covered_weight < target) {
        std::size_t best = SIZE_MAX;
        std::uint64_t best_gain = 0;
        for (std::size_t s = 0; s < instance.sets.size(); ++s) {
            if (used[s]) continue;
            std::uint64_t gain = 0;
            for (const SetRows::Word& w : rows.row(s)) {
                gain += weight_of_bits(instance, w.index,
                                       w.bits & ~covered[w.index]);
            }
            if (gain > best_gain) {
                best_gain = gain;
                best = s;
            }
        }
        if (best == SIZE_MAX) break;  // nothing improves coverage
        used[best] = true;
        result.chosen.push_back(static_cast<std::uint32_t>(best));
        for (const SetRows::Word& w : rows.row(best)) {
            covered_weight += weight_of_bits(instance, w.index,
                                             w.bits & ~covered[w.index]);
            covered[w.index] |= w.bits;
        }
    }
    std::sort(result.chosen.begin(), result.chosen.end());
    result.covered_weight = covered_weight;
    result.feasible = covered_weight >= target;
    return result;
}

namespace {

/// Reduced instance after preprocessing, with maps back to the original.
struct Reduced {
    SetCoverInstance inst;                ///< merged elements, pruned sets
    std::vector<std::uint32_t> set_map;   ///< reduced set -> original set
    std::vector<std::uint32_t> forced;    ///< original sets forced (essential)
    std::uint64_t forced_weight = 0;      ///< weight covered by forced sets
    std::uint64_t uncoverable_weight = 0; ///< weight no set covers
};

Reduced preprocess(const SetCoverInstance& instance, bool full_cover) {
    Reduced red;

    // element -> covering sets.
    std::vector<std::vector<std::uint32_t>> cover_by(instance.num_elements);
    for (std::uint32_t s = 0; s < instance.sets.size(); ++s) {
        for (std::uint32_t e : instance.sets[s]) cover_by[e].push_back(s);
    }

    std::vector<bool> element_removed(instance.num_elements, false);
    std::vector<bool> set_forced(instance.sets.size(), false);

    for (std::uint32_t e = 0; e < instance.num_elements; ++e) {
        if (cover_by[e].empty()) {
            element_removed[e] = true;
            red.uncoverable_weight += instance.weight_of(e);
        }
    }

    // Essential sets (full cover only): an element with exactly one
    // covering set forces that set; iterate to closure.
    if (full_cover) {
        bool changed = true;
        while (changed) {
            changed = false;
            for (std::uint32_t e = 0; e < instance.num_elements; ++e) {
                if (element_removed[e] || cover_by[e].size() != 1) continue;
                const std::uint32_t s = cover_by[e][0];
                if (set_forced[s]) {
                    element_removed[e] = true;
                    red.forced_weight += instance.weight_of(e);
                    continue;
                }
                set_forced[s] = true;
                changed = true;
                for (std::uint32_t ce : instance.sets[s]) {
                    if (!element_removed[ce]) {
                        element_removed[ce] = true;
                        red.forced_weight += instance.weight_of(ce);
                    }
                }
            }
        }
        for (std::uint32_t s = 0; s < instance.sets.size(); ++s) {
            if (set_forced[s]) red.forced.push_back(s);
        }
    }

    // Merge elements with identical covering-set signatures (restricted
    // to non-forced sets).
    std::map<std::vector<std::uint32_t>, std::uint32_t> signature_to_new;
    std::vector<std::uint32_t> new_weight;
    std::vector<std::vector<std::uint32_t>> new_cover_by;
    for (std::uint32_t e = 0; e < instance.num_elements; ++e) {
        if (element_removed[e]) continue;
        std::vector<std::uint32_t> sig;
        for (std::uint32_t s : cover_by[e]) {
            if (!set_forced[s]) sig.push_back(s);
        }
        if (sig.empty()) continue;  // only coverable by forced sets
        auto [it, inserted] = signature_to_new.emplace(
            std::move(sig), static_cast<std::uint32_t>(new_weight.size()));
        if (inserted) {
            new_weight.push_back(instance.weight_of(e));
            new_cover_by.push_back(it->first);
        } else {
            new_weight[it->second] += instance.weight_of(e);
        }
    }

    // Rebuild sets over merged elements.
    std::vector<std::vector<std::uint32_t>> new_sets(instance.sets.size());
    for (std::uint32_t ne = 0; ne < new_cover_by.size(); ++ne) {
        for (std::uint32_t s : new_cover_by[ne]) new_sets[s].push_back(ne);
    }

    // Drop empty and dominated sets (unit costs: a subset of another set
    // is never needed).  Subset checks only for moderate set counts.
    std::vector<std::uint32_t> alive;
    for (std::uint32_t s = 0; s < new_sets.size(); ++s) {
        if (!new_sets[s].empty() && !set_forced[s]) alive.push_back(s);
    }
    // Exact-duplicate removal.
    {
        std::map<std::vector<std::uint32_t>, std::uint32_t> seen;
        std::vector<std::uint32_t> kept;
        for (std::uint32_t s : alive) {
            auto [it, inserted] = seen.emplace(new_sets[s], s);
            if (inserted) kept.push_back(s);
        }
        alive = std::move(kept);
    }
    if (alive.size() <= 768) {
        const SetRows rows(static_cast<std::uint32_t>(new_weight.size()),
                           new_sets);
        const auto includes = [&rows](std::uint32_t a, std::uint32_t b) {
            const std::span<const SetRows::Word> ra = rows.row(a);
            auto wa = ra.begin();
            for (const SetRows::Word& wb : rows.row(b)) {
                while (wa != ra.end() && wa->index < wb.index) ++wa;
                if (wa == ra.end() || wa->index != wb.index ||
                    (wb.bits & ~wa->bits) != 0) {
                    return false;
                }
            }
            return true;
        };
        std::vector<bool> dominated(new_sets.size(), false);
        for (std::uint32_t a : alive) {
            for (std::uint32_t b : alive) {
                if (a == b || dominated[a] || dominated[b]) continue;
                if (new_sets[a].size() < new_sets[b].size() ||
                    (new_sets[a].size() == new_sets[b].size() && a > b)) {
                    continue;
                }
                if (includes(a, b)) dominated[b] = true;
            }
        }
        std::erase_if(alive,
                      [&dominated](std::uint32_t s) { return dominated[s]; });
    }

    red.inst.num_elements = static_cast<std::uint32_t>(new_weight.size());
    // Unit weights stay implicit, so the bitset kernels can popcount.
    if (std::any_of(new_weight.begin(), new_weight.end(),
                    [](std::uint32_t w) { return w != 1; })) {
        red.inst.element_weight = std::move(new_weight);
    }
    for (std::uint32_t s : alive) {
        red.set_map.push_back(s);
        red.inst.sets.push_back(std::move(new_sets[s]));
    }
    return red;
}

/// Exact branch and bound on a (preprocessed) instance.  The covered
/// set is a bitset and every set is a row of the same width, so a node
/// applies or undoes a set one 64-element word at a time.
struct CoverSearch {
    /// Search state to restore after a branch: the trail length and the
    /// covered weight before the set was applied.
    struct Mark {
        std::size_t trail_size;
        std::uint64_t covered_weight;
    };

    const SetCoverInstance& inst;
    std::uint64_t target;
    Clock::time_point deadline;
    std::size_t max_nodes;

    SetRows rows;
    std::vector<std::uint64_t> covered;  ///< one bit per element
    /// The covered bits each apply() newly set, so unapply() can clear
    /// exactly those again.
    std::vector<SetRows::Word> trail;
    /// element -> covering sets, largest static weight first.
    std::vector<std::vector<std::uint32_t>> cover_by;
    std::vector<bool> chosen;
    std::vector<std::uint64_t> set_weight;  // static total weight per set
    std::uint64_t covered_weight = 0;
    std::size_t chosen_count = 0;

    std::size_t best_count = SIZE_MAX;
    std::vector<bool> best_chosen;
    /// No cover has fewer sets; both DFS variants stop once the
    /// incumbent meets it.
    std::size_t root_bound = 0;
    std::size_t nodes = 0;
    bool exhausted = false;
    std::uint64_t max_set_weight = 1;

    CoverSearch(const SetCoverInstance& instance, std::uint64_t tgt,
                const SetCoverOptions& options)
        : inst(instance), target(tgt), rows(inst.num_elements, inst.sets) {
        deadline = Clock::now() +
                   std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(options.time_limit_sec));
        max_nodes = options.max_nodes;
        cover_by.resize(inst.num_elements);
        for (std::uint32_t s = 0; s < inst.sets.size(); ++s) {
            std::uint64_t w = 0;
            for (std::uint32_t e : inst.sets[s]) {
                cover_by[e].push_back(s);
                w += inst.weight_of(e);
            }
            set_weight.push_back(w);
            max_set_weight = std::max(max_set_weight, std::max<std::uint64_t>(w, 1));
        }
        for (std::vector<std::uint32_t>& sets : cover_by) {
            std::sort(sets.begin(), sets.end(),
                      [this](std::uint32_t a, std::uint32_t b) {
                          return set_weight[a] > set_weight[b];
                      });
        }
        covered.assign(rows.words, 0);
        // The bits newly covered along one DFS path are disjoint, so the
        // trail never holds more entries than there are elements.
        trail.reserve(inst.num_elements);
        chosen.assign(inst.sets.size(), false);
    }

    /// Node budget and cancellation at every node; the clock only every
    /// 64 nodes (the first node included).
    [[nodiscard]] bool out_of_budget() {
        if (nodes > max_nodes || CancelToken::global().cancelled() ||
            ((nodes & 63) == 1 && Clock::now() > deadline)) {
            // A cancellation request counts as budget exhaustion: the
            // search unwinds and the caller keeps the greedy incumbent.
            exhausted = true;
            return true;
        }
        return false;
    }

    void seed_incumbent(const SetCoverResult& greedy) {
        if (!greedy.feasible) return;
        best_count = greedy.chosen.size();
        best_chosen.assign(inst.sets.size(), false);
        for (std::uint32_t s : greedy.chosen) best_chosen[s] = true;
    }

    Mark apply(std::uint32_t s) {
        const Mark mark{trail.size(), covered_weight};
        chosen[s] = true;
        ++chosen_count;
        for (const SetRows::Word& w : rows.row(s)) {
            const std::uint64_t fresh = w.bits & ~covered[w.index];
            if (fresh == 0) continue;
            covered[w.index] |= fresh;
            covered_weight += weight_of_bits(inst, w.index, fresh);
            trail.push_back({w.index, fresh});
        }
        return mark;
    }

    void unapply(std::uint32_t s, const Mark& mark) {
        chosen[s] = false;
        --chosen_count;
        while (trail.size() > mark.trail_size) {
            covered[trail.back().index] &= ~trail.back().bits;
            trail.pop_back();
        }
        covered_weight = mark.covered_weight;
    }

    void record() {
        if (chosen_count < best_count) {
            best_count = chosen_count;
            best_chosen = chosen;
        }
    }

    /// Greedy disjoint-element packing (ascending cover degree): no set
    /// covers two packed elements, so every full cover needs at least
    /// one set per packed element.
    [[nodiscard]] std::size_t packing_bound() const {
        std::vector<std::uint32_t> elements(inst.num_elements);
        std::iota(elements.begin(), elements.end(), 0);
        std::stable_sort(elements.begin(), elements.end(),
                         [this](std::uint32_t a, std::uint32_t b) {
                             return cover_by[a].size() < cover_by[b].size();
                         });
        std::vector<bool> stamped(inst.sets.size(), false);
        std::size_t packed = 0;
        for (std::uint32_t e : elements) {
            if (std::any_of(cover_by[e].begin(), cover_by[e].end(),
                            [&stamped](std::uint32_t s) { return stamped[s]; })) {
                continue;
            }
            for (std::uint32_t s : cover_by[e]) stamped[s] = true;
            ++packed;
        }
        return packed;
    }

    /// Fewest of order[idx..] (descending static weight) that reach the
    /// target if each covered its full static weight; SIZE_MAX if all of
    /// them fall short.
    [[nodiscard]] std::size_t weight_bound(
        std::size_t idx, const std::vector<std::uint32_t>& order) const {
        const std::uint64_t remaining = target - covered_weight;
        std::uint64_t acc = 0;
        std::size_t need = 0;
        for (std::size_t k = idx; k < order.size() && acc < remaining; ++k) {
            acc += set_weight[order[k]];
            ++need;
        }
        return acc < remaining ? SIZE_MAX : need;
    }

    /// Full-cover DFS with element branching.
    void dfs_full() {
        ++nodes;
        if (out_of_budget()) return;
        if (covered_weight >= target) {
            record();
            return;
        }
        // Bound: remaining uncovered weight / largest set weight.
        const std::uint64_t remaining = target - covered_weight;
        const std::size_t lb =
            chosen_count + static_cast<std::size_t>(
                               (remaining + max_set_weight - 1) / max_set_weight);
        if (lb >= best_count) return;

        // Branch on the uncovered element with the fewest covering sets
        // (the lowest such element on ties).
        std::uint32_t pick = UINT32_MAX;
        std::size_t pick_degree = SIZE_MAX;
        for (std::uint32_t w = 0; w < rows.words; ++w) {
            std::uint64_t open = ~covered[w];
            if (w + 1 == rows.words && inst.num_elements % 64 != 0) {
                open &= (std::uint64_t{1} << (inst.num_elements % 64)) - 1;
            }
            for (; open != 0; open &= open - 1) {
                const auto e = static_cast<std::uint32_t>(
                    w * 64 + std::countr_zero(open));
                if (cover_by[e].size() < pick_degree) {
                    pick_degree = cover_by[e].size();
                    pick = e;
                }
            }
        }
        if (pick == UINT32_MAX) return;
        // An uncovered element lies in no chosen set, so every covering
        // set is a candidate.
        for (std::uint32_t s : cover_by[pick]) {
            const Mark mark = apply(s);
            dfs_full();
            unapply(s, mark);
            if (exhausted || best_count <= root_bound) return;
        }
    }

    /// Partial-cover DFS: include/exclude in static-weight order.
    void dfs_partial(std::size_t idx,
                     const std::vector<std::uint32_t>& order) {
        ++nodes;
        if (out_of_budget()) return;
        if (covered_weight >= target) {
            record();
            return;
        }
        if (idx >= order.size()) return;
        const std::size_t need = weight_bound(idx, order);
        if (need == SIZE_MAX || chosen_count + need >= best_count) return;

        // Include.
        const std::uint32_t s = order[idx];
        const Mark mark = apply(s);
        if (chosen_count < best_count) {
            dfs_partial(idx + 1, order);
        }
        unapply(s, mark);
        if (exhausted || best_count <= root_bound) return;
        // Exclude.
        dfs_partial(idx + 1, order);
    }
};

SetCoverResult solve_set_cover_impl(const SetCoverInstance& instance,
                                    const SetCoverOptions& options) {
    const bool full = options.coverage >= 1.0 - 1e-12;
    const std::uint64_t global_target =
        coverage_target(instance, options.coverage);

    const Reduced red = preprocess(instance, full);
    const SetCoverResult greedy_fallback = greedy_set_cover(instance, options);

    // Residual target for the reduced instance.
    const std::uint64_t already = red.forced_weight;
    if (full && red.uncoverable_weight > 0) {
        // Full cover impossible; report the greedy best effort.
        SetCoverResult r = greedy_fallback;
        r.feasible = false;
        return r;
    }
    std::uint64_t reduced_target =
        global_target > already ? global_target - already : 0;
    reduced_target = std::min<std::uint64_t>(reduced_target,
                                             red.inst.total_weight());

    // Greedy incumbent on the reduced instance.
    SetCoverOptions reduced_opts = options;
    reduced_opts.coverage = red.inst.total_weight() == 0
                                ? 1.0
                                : static_cast<double>(reduced_target) /
                                      static_cast<double>(red.inst.total_weight());
    CoverSearch search(red.inst, reduced_target, options);
    search.seed_incumbent(greedy_set_cover(red.inst, reduced_opts));

    if (reduced_target > 0) {
        if (full) {
            search.root_bound = search.packing_bound();
            if (search.best_count > search.root_bound) search.dfs_full();
        } else {
            std::vector<std::uint32_t> order(red.inst.sets.size());
            std::iota(order.begin(), order.end(), 0);
            std::sort(order.begin(), order.end(),
                      [&search](std::uint32_t a, std::uint32_t b) {
                          return search.set_weight[a] > search.set_weight[b];
                      });
            search.root_bound = search.weight_bound(0, order);
            if (search.best_count > search.root_bound) {
                search.dfs_partial(0, order);
            }
        }
    } else {
        search.best_count = 0;
        search.best_chosen.assign(red.inst.sets.size(), false);
    }

    // Finite: the reduced sets cover every reduced element, so their
    // static weights reach the (capped) reduced target.
    const std::size_t lower_bound = red.forced.size() + search.root_bound;
    SetCoverResult result;
    result.nodes_explored = search.nodes;
    if (search.best_count == SIZE_MAX) {
        // No feasible cover found within budget; fall back to greedy.
        result = greedy_fallback;
        result.nodes_explored = search.nodes;
        result.proven_optimal = false;
        result.lower_bound = result.feasible ? lower_bound : 0;
        return result;
    }
    for (std::uint32_t s : red.forced) result.chosen.push_back(s);
    for (std::uint32_t rs = 0; rs < red.inst.sets.size(); ++rs) {
        if (search.best_chosen.size() > rs && search.best_chosen[rs]) {
            result.chosen.push_back(red.set_map[rs]);
        }
    }
    std::sort(result.chosen.begin(), result.chosen.end());
    result.proven_optimal = !search.exhausted;

    // Recompute covered weight on the original instance.
    std::vector<bool> covered(instance.num_elements, false);
    for (std::uint32_t s : result.chosen) {
        for (std::uint32_t e : instance.sets[s]) covered[e] = true;
    }
    for (std::uint32_t e = 0; e < instance.num_elements; ++e) {
        if (covered[e]) result.covered_weight += instance.weight_of(e);
    }
    result.feasible = result.covered_weight >= global_target;
    result.lower_bound = result.feasible ? lower_bound : 0;

    // The greedy fallback occasionally beats an exhausted search.
    if (!result.feasible ||
        (greedy_fallback.feasible &&
         greedy_fallback.chosen.size() < result.chosen.size())) {
        if (greedy_fallback.feasible) {
            SetCoverResult r = greedy_fallback;
            r.nodes_explored = search.nodes;
            r.proven_optimal = false;
            r.lower_bound = lower_bound;
            return r;
        }
    }
    return result;
}

}  // namespace

SetCoverResult solve_set_cover(const SetCoverInstance& instance,
                               const SetCoverOptions& options) {
    const TraceSpan span("set_cover", "opt");
    SetCoverOptions effective = options;
    if (FaultInjector::global().trip("solver.budget")) {
        // Injected budget exhaustion: zero the exact-search budget so
        // the solver takes its organic greedy-fallback path unless the
        // root bound already proves the greedy incumbent optimal.
        effective.max_nodes = 0;
        effective.time_limit_sec = 0.0;
    }
    SetCoverResult result = solve_set_cover_impl(instance, effective);
    assert(result.lower_bound <= result.chosen.size());
    MetricsRegistry& reg = MetricsRegistry::global();
    reg.counter("opt.set_cover.solves").add(1);
    reg.counter("opt.set_cover.nodes").add(result.nodes_explored);
    reg.counter("opt.set_cover.elements").add(instance.num_elements);
    reg.counter("opt.set_cover.columns").add(instance.sets.size());
    if (!result.proven_optimal) {
        reg.counter("opt.set_cover.budget_exhausted").add(1);
    }
    return result;
}

}  // namespace fastmon
