#include "atpg/tdf_atpg.hpp"

#include <algorithm>

#include "util/cancel.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/prng.hpp"
#include "util/trace.hpp"

namespace fastmon {

namespace {

PatternPair random_pair(std::size_t n_src, Prng& rng) {
    PatternPair p;
    p.v1.resize(n_src);
    p.v2.resize(n_src);
    for (std::size_t s = 0; s < n_src; ++s) {
        p.v1[s] = rng.chance(0.5) ? 1 : 0;
        p.v2[s] = rng.chance(0.5) ? 1 : 0;
    }
    return p;
}

/// Greedy lane cover: choose a minimal-ish subset of the 64 lanes that
/// covers all faults newly detected by this batch.
std::vector<std::size_t> select_lanes(
    const std::vector<std::uint64_t>& masks, std::size_t lane_count) {
    std::vector<std::size_t> chosen;
    std::vector<bool> covered(masks.size(), false);
    std::size_t remaining = masks.size();
    while (remaining > 0) {
        std::size_t best_lane = SIZE_MAX;
        std::size_t best_gain = 0;
        for (std::size_t lane = 0; lane < lane_count; ++lane) {
            std::size_t gain = 0;
            for (std::size_t f = 0; f < masks.size(); ++f) {
                if (!covered[f] && ((masks[f] >> lane) & 1) != 0) ++gain;
            }
            if (gain > best_gain) {
                best_gain = gain;
                best_lane = lane;
            }
        }
        if (best_lane == SIZE_MAX) break;  // leftover faults uncoverable
        chosen.push_back(best_lane);
        for (std::size_t f = 0; f < masks.size(); ++f) {
            if (((masks[f] >> best_lane) & 1) != 0 && !covered[f]) {
                covered[f] = true;
                --remaining;
            }
        }
    }
    return chosen;
}

}  // namespace

AtpgResult generate_tdf_tests(const Netlist& netlist,
                              const AtpgConfig& config) {
    const TraceSpan span("atpg", "atpg");
    std::uint64_t total_backtracks = 0;
    AtpgResult result;
    const std::vector<TdfFault> faults = enumerate_tdf_faults(netlist);
    result.num_faults = faults.size();
    std::vector<bool> detected(faults.size(), false);

    const std::size_t n_src = netlist.comb_sources().size();
    TransitionFaultSim sim(netlist);
    Prng rng(config.seed ^ 0xA7B6ULL);

    // --- Phase 1: random patterns -------------------------------------
    TraceSpan random_span("atpg_random", "atpg");
    std::size_t idle = 0;
    std::size_t random_batches = 0;
    const CancelToken& cancel = CancelToken::global();
    for (std::size_t batch_no = 0;
         batch_no < config.max_random_batches && idle < config.max_idle_batches;
         ++batch_no) {
        if (cancel.cancelled()) {
            result.interrupted = true;
            break;
        }
        ++random_batches;
        std::vector<PatternPair> cand;
        cand.reserve(64);
        for (int i = 0; i < 64; ++i) cand.push_back(random_pair(n_src, rng));
        const auto batch = sim.pack(cand, 0);
        const auto values = sim.evaluate(batch);

        std::vector<std::uint64_t> masks;
        std::vector<std::size_t> mask_fault;
        for (std::size_t fi = 0; fi < faults.size(); ++fi) {
            if (detected[fi]) continue;
            const std::uint64_t m = sim.detect_mask(faults[fi], values);
            if (m != 0) {
                masks.push_back(m);
                mask_fault.push_back(fi);
            }
        }
        if (masks.empty()) {
            ++idle;
            continue;
        }
        idle = 0;
        for (std::size_t lane : select_lanes(masks, batch.count)) {
            result.test_set.patterns.push_back(cand[lane]);
            for (std::size_t k = 0; k < masks.size(); ++k) {
                if (((masks[k] >> lane) & 1) != 0) detected[mask_fault[k]] = true;
            }
        }
    }

    random_span.end();

    // --- Phase 2: deterministic engine (PODEM / SAT / auto) -----------
    TraceSpan podem_span("atpg_podem", "atpg");
    if (config.deterministic_phase && !result.interrupted) {
        const std::unique_ptr<AtpgEngine> engine =
            make_atpg_engine(netlist, config);
        std::size_t targeted = 0;
        for (std::size_t fi = 0; fi < faults.size(); ++fi) {
            if (cancel.cancelled()) {
                // Patterns found so far still get compacted below; the
                // partial test set is a usable degraded result.
                result.interrupted = true;
                break;
            }
            if (detected[fi]) continue;
            if (config.max_deterministic_faults != 0 &&
                targeted >= config.max_deterministic_faults) {
                break;
            }
            ++targeted;
            AtpgFaultResult target = engine->generate(faults[fi], rng);
            total_backtracks += target.effort;
            if (target.verdict == AtpgVerdict::Untestable) {
                ++result.num_untestable;
                continue;
            }
            if (target.verdict == AtpgVerdict::Aborted) {
                ++result.num_aborted;
                continue;
            }
            PatternPair p = std::move(target.pattern);
            // Confirm and drop any other faults the pattern catches.
            const std::vector<PatternPair> one{p};
            const auto batch = sim.pack(one, 0);
            const auto values = sim.evaluate(batch);
            bool confirms = false;
            for (std::size_t fj = 0; fj < faults.size(); ++fj) {
                if (detected[fj]) continue;
                if ((sim.detect_mask(faults[fj], values) & 1ULL) != 0) {
                    detected[fj] = true;
                    confirms = true;
                }
            }
            if (!detected[fi]) {
                ++result.num_unconfirmed;
                log_warn() << "ATPG " << netlist.name() << ": "
                           << engine->name() << " witness for fault " << fi
                           << " does not detect it";
            }
            if (confirms) result.test_set.patterns.push_back(std::move(p));
        }
    }

    podem_span.end();

    // --- Phase 3: reverse-order compaction -----------------------------
    {
        const TraceSpan compact_span("atpg_compact", "atpg");
        std::vector<PatternPair>& pats = result.test_set.patterns;
        std::reverse(pats.begin(), pats.end());
        const std::vector<std::size_t> first =
            fault_simulate_tdf(sim, faults, pats);
        std::vector<bool> keep(pats.size(), false);
        for (std::size_t fd : first) {
            if (fd != SIZE_MAX) keep[fd] = true;
        }
        std::vector<PatternPair> compacted;
        for (std::size_t i = 0; i < pats.size(); ++i) {
            if (keep[i]) compacted.push_back(std::move(pats[i]));
        }
        pats = std::move(compacted);
    }

    result.num_detected =
        static_cast<std::size_t>(std::count(detected.begin(), detected.end(), true));

    MetricsRegistry& reg = MetricsRegistry::global();
    reg.counter("atpg.faults").add(result.num_faults);
    reg.counter("atpg.detected").add(result.num_detected);
    reg.counter("atpg.untestable").add(result.num_untestable);
    reg.counter("atpg.aborted").add(result.num_aborted);
    reg.counter("atpg.unconfirmed_witnesses").add(result.num_unconfirmed);
    reg.counter("atpg.backtracks").add(total_backtracks);
    reg.counter("atpg.random_batches").add(random_batches);
    reg.counter("atpg.patterns").add(result.test_set.size());
    reg.counter("atpg.tdf_gates_evaluated").add(sim.gates_evaluated());

    log_info() << "ATPG " << netlist.name() << ": " << result.num_detected
               << "/" << result.num_faults << " TDF detected ("
               << result.test_set.size() << " patterns, "
               << result.num_untestable << " untestable, "
               << result.num_aborted << " aborted)";
    return result;
}

}  // namespace fastmon
