#include "sim/fault_sim.hpp"

#include <algorithm>
#include <cassert>

namespace fastmon {

GateId fault_site_signal(const Netlist& netlist, const FaultSite& site) {
    if (site.pin == FaultSite::kOutputPin) return site.gate;
    return netlist.gate(site.gate).fanin[site.pin];
}

FaultSim::FaultSim(const WaveSim& wave_sim) : wave_sim_(&wave_sim) {}

bool FaultSim::activated(const DelayFault& fault,
                         std::span<const Waveform> good) const {
    const Waveform& w =
        good[fault_site_signal(wave_sim_->netlist(), fault.site)];
    // A slow-to-rise fault needs a rising edge at the site (and vice
    // versa).  Walk the toggle parity to find one.
    bool value = w.initial();
    for (Time t : w.transitions()) {
        (void)t;
        value = !value;
        if (value == fault.slow_rising) return true;
    }
    return false;
}

std::vector<ObserveDiff> FaultSim::simulate(
    const DelayFault& fault, std::span<const Waveform> good) const {
    FaultSimScratch scratch;
    return simulate(fault, good, scratch);
}

void FaultSim::propagate(const DelayFault& fault,
                         std::span<const Waveform> good,
                         FaultSimScratch& scratch) const {
    const WaveSim& ws = *wave_sim_;
    const Netlist& nl = ws.netlist();
    assert(good.size() == nl.size());

    RankWorklist& work = scratch.work_;
    work.begin(nl);
    if (scratch.slot_.size() != nl.size()) scratch.slot_.resize(nl.size());
    scratch.top_ = 0;
    scratch.observed_.clear();
    std::vector<Time>& arena = scratch.arena_;
    WaveView in[8];

    // Evaluates `id` over `in` onto the arena's top.
    auto eval = [&](GateId id) {
        bool initial = false;
        const std::uint32_t n = ws.eval_gate_into(id, in, arena, scratch.top_,
                                                  initial, scratch.eval_);
        scratch.slot_[id] = FaultSimScratch::Slot{scratch.top_, n, initial};
        scratch.top_ += n;
        ++scratch.gates_evaluated_;
    };
    // Keeps the freshly evaluated slot of `id` (the arena's top) if it
    // differs from the fault-free wave: marks it, records the
    // observation points it drives and queues its combinational fanouts
    // (Output and Dff sinks end propagation: fanout does not wrap
    // around a register).  An unchanged result is rewound.
    auto settle = [&](GateId id) {
        const FaultSimScratch::Slot& s = scratch.slot_[id];
        const Waveform& g = good[id];
        if (s.initial == g.initial() && s.n == g.num_transitions() &&
            std::equal(g.transitions().begin(), g.transitions().end(),
                       arena.begin() + s.begin)) {
            scratch.top_ = s.begin;
            return;
        }
        work.mark_changed(id);
        const auto obs = nl.observe_indices(id);
        scratch.observed_.insert(scratch.observed_.end(), obs.begin(),
                                 obs.end());
        for (GateId out : ws.comb_fanouts(id)) work.push(out);
    };

    const GateId site_gate = fault.site.gate;
    if (fault.site.pin == FaultSite::kOutputPin) {
        // Output fault: retard the slow edges of the gate's own output
        // waveform.
        const WaveView src = good[site_gate].view();
        if (arena.size() < src.n) arena.resize(src.n);
        const auto n = static_cast<std::uint32_t>(
            slow_edges(src, fault.slow_rising, fault.delta, arena.data()));
        scratch.slot_[site_gate] = FaultSimScratch::Slot{0, n, src.initial};
        scratch.top_ = n;
    } else {
        // Input-pin fault: the gate sees a retarded version of the
        // driving waveform on that one pin.
        const std::span<const GateId> fin = ws.fanins(site_gate);
        const WaveView src = good[fin[fault.site.pin]].view();
        scratch.pin_wave_.resize(src.n);
        const auto n = static_cast<std::uint32_t>(
            slow_edges(src, fault.slow_rising, fault.delta,
                       scratch.pin_wave_.data()));
        for (std::size_t p = 0; p < fin.size(); ++p) {
            in[p] = p == fault.site.pin
                        ? WaveView{scratch.pin_wave_.data(), n, src.initial}
                        : good[fin[p]].view();
        }
        eval(site_gate);
    }
    settle(site_gate);

    // Topological-rank order: a gate pops only after every fanin that
    // can still change (all of lower rank) has been settled.
    while (!work.empty()) {
        const GateId id = work.pop();
        const std::span<const GateId> fin = ws.fanins(id);
        for (std::size_t p = 0; p < fin.size(); ++p) {
            in[p] = work.changed(fin[p]) ? scratch.faulty(fin[p])
                                         : good[fin[p]].view();
        }
        eval(id);
        settle(id);
    }
    std::sort(scratch.observed_.begin(), scratch.observed_.end());
}

std::vector<ObserveDiff> FaultSim::simulate(
    const DelayFault& fault, std::span<const Waveform> good,
    FaultSimScratch& scratch) const {
    propagate(fault, good, scratch);
    std::vector<ObserveDiff> diffs;
    const auto ops = wave_sim_->netlist().observe_points();
    Waveform faulty;
    for (std::uint32_t oi : scratch.observed()) {
        const GateId sig = ops[oi].signal;
        const WaveView f = scratch.faulty(sig);
        faulty.assign(f.initial, f.transitions());
        Waveform diff = Waveform::xor_of(good[sig], faulty);
        if (!diff.is_constant() || diff.initial()) {
            diffs.push_back(ObserveDiff{oi, std::move(diff)});
        }
    }
    return diffs;
}

}  // namespace fastmon
