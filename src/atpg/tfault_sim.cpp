#include "atpg/tfault_sim.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace fastmon {

std::vector<TdfFault> enumerate_tdf_faults(const Netlist& netlist) {
    std::vector<TdfFault> faults;
    for (GateId id = 0; id < netlist.size(); ++id) {
        const Gate& g = netlist.gate(id);
        if (!is_combinational(g.type)) continue;
        for (bool rising : {true, false}) {
            faults.push_back(
                TdfFault{FaultSite{id, FaultSite::kOutputPin}, rising});
            for (std::uint32_t pin = 0;
                 pin < static_cast<std::uint32_t>(g.fanin.size()); ++pin) {
                faults.push_back(TdfFault{FaultSite{id, pin}, rising});
            }
        }
    }
    return faults;
}

TransitionFaultSim::TransitionFaultSim(const Netlist& netlist)
    : netlist_(&netlist),
      logic_(netlist),
      overlay_(netlist.size(), 0) {
    work_.begin(netlist);  // sizes the worklist up front
}

TransitionFaultSim::Batch TransitionFaultSim::pack(
    std::span<const PatternPair> patterns, std::size_t first) const {
    assert(first < patterns.size());
    const std::size_t n_src = netlist_->comb_sources().size();
    Batch b;
    b.count = std::min<std::size_t>(64, patterns.size() - first);
    b.src1.assign(n_src, 0);
    b.src2.assign(n_src, 0);
    for (std::size_t lane = 0; lane < 64; ++lane) {
        const PatternPair& p =
            patterns[first + (lane < b.count ? lane : 0)];
        for (std::size_t s = 0; s < n_src; ++s) {
            if (p.v1[s] != 0) b.src1[s] |= 1ULL << lane;
            if (p.v2[s] != 0) b.src2[s] |= 1ULL << lane;
        }
    }
    return b;
}

TransitionFaultSim::BatchValues TransitionFaultSim::evaluate(
    const Batch& batch) const {
    return BatchValues{logic_.eval64(batch.src1), logic_.eval64(batch.src2)};
}

std::uint64_t TransitionFaultSim::eval_faulty(GateId id,
                                              std::uint32_t faulty_pin,
                                              std::uint64_t faulty_word,
                                              const BatchValues& values) const {
    const Gate& g = netlist_->gate(id);
    std::uint64_t ins[8];
    for (std::uint32_t p = 0; p < static_cast<std::uint32_t>(g.fanin.size());
         ++p) {
        const GateId f = g.fanin[p];
        ins[p] = p == faulty_pin    ? faulty_word
                 : work_.changed(f) ? overlay_[f]
                                    : values.val2[f];
    }
    ++gates_evaluated_;
    if (g.type == CellType::Output) return ins[0];
    return eval_cell64(g.type,
                       std::span<const std::uint64_t>(ins, g.fanin.size()));
}

std::uint64_t TransitionFaultSim::detect_mask(const TdfFault& fault,
                                              const BatchValues& values) const {
    const Netlist& nl = *netlist_;
    const GateId site = fault.site.gate;

    // Signal at the fault site under both vectors.
    const GateId site_signal = fault_site_signal(nl, fault.site);
    const std::uint64_t s1 = values.val1[site_signal];
    const std::uint64_t s2 = values.val2[site_signal];
    const std::uint64_t act = fault.slow_rising ? (~s1 & s2) : (s1 & ~s2);
    if (act == 0) return 0;

    work_.begin(nl);

    // Faulty propagation of the stale value under v2: the site keeps v1
    // in activated lanes.
    const std::uint64_t faulty_site = s2 ^ act;
    const std::uint64_t site_word =
        fault.site.pin == FaultSite::kOutputPin
            ? faulty_site
            : eval_faulty(site, fault.site.pin, faulty_site, values);
    if (site_word == values.val2[site]) return 0;

    std::uint64_t detected = 0;
    // Records a changed gate and queues its fanouts.  Dff sinks are never
    // queued: fanout does not wrap around a register.
    auto change = [&](GateId id, std::uint64_t word) {
        overlay_[id] = word;
        work_.mark_changed(id);
        if (!nl.observe_indices(id).empty()) {
            detected |= word ^ values.val2[id];
        }
        work_.push_fanouts(id, [](CellType t) { return t != CellType::Dff; });
    };
    change(site, site_word);

    while (!work_.empty()) {
        const GateId id = work_.pop();
        const std::uint64_t w =
            eval_faulty(id, FaultSite::kOutputPin, 0, values);
        if (w != values.val2[id]) change(id, w);
    }
    return detected & act;
}

std::vector<std::size_t> fault_simulate_tdf(
    const Netlist& netlist, std::span<const TdfFault> faults,
    std::span<const PatternPair> patterns) {
    return fault_simulate_tdf(TransitionFaultSim(netlist), faults, patterns);
}

std::vector<std::size_t> fault_simulate_tdf(
    const TransitionFaultSim& sim, std::span<const TdfFault> faults,
    std::span<const PatternPair> patterns) {
    std::vector<std::size_t> first_detect(faults.size(), SIZE_MAX);
    if (patterns.empty()) return first_detect;
    for (std::size_t base = 0; base < patterns.size(); base += 64) {
        const auto batch = sim.pack(patterns, base);
        const auto values = sim.evaluate(batch);
        bool any_open = false;
        for (std::size_t fi = 0; fi < faults.size(); ++fi) {
            if (first_detect[fi] != SIZE_MAX) continue;
            const std::uint64_t mask = sim.detect_mask(faults[fi], values);
            const std::uint64_t valid =
                batch.count == 64 ? ~0ULL : ((1ULL << batch.count) - 1);
            const std::uint64_t hit = mask & valid;
            if (hit != 0) {
                first_detect[fi] =
                    base + static_cast<std::size_t>(std::countr_zero(hit));
            } else {
                any_open = true;
            }
        }
        if (!any_open) break;
    }
    return first_detect;
}

}  // namespace fastmon
