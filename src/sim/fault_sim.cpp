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

std::vector<ObserveDiff> FaultSim::simulate(
    const DelayFault& fault, std::span<const Waveform> good,
    FaultSimScratch& scratch) const {
    const Netlist& nl = wave_sim_->netlist();
    assert(good.size() == nl.size());

    // Sparse faulty-waveform overlay: only gates that differ from the
    // fault-free simulation are marked changed in this walk.
    RankWorklist& work = scratch.work_;
    work.begin(nl);
    scratch.overlay_.resize(nl.size());  // a slot is read only once marked
    scratch.observed_.clear();
    std::vector<const Waveform*>& fanin_waves = scratch.fanin_waves_;

    // Keeps the freshly evaluated overlay slot of `id` if it differs
    // from the fault-free wave: marks it, records the observation
    // points it drives and queues its combinational fanouts (Output and
    // Dff sinks end propagation: fanout does not wrap around a
    // register).
    auto settle = [&](GateId id) {
        if (scratch.overlay_[id] == good[id]) return;
        work.mark_changed(id);
        const auto obs = nl.observe_indices(id);
        scratch.observed_.insert(scratch.observed_.end(), obs.begin(),
                                 obs.end());
        work.push_fanouts(id, is_combinational);
    };

    const GateId site_gate = fault.site.gate;
    const Gate& sg = nl.gate(site_gate);
    if (fault.site.pin == FaultSite::kOutputPin) {
        // Output fault: retard the slow edges of the gate's own output
        // waveform.
        scratch.overlay_[site_gate].assign_slowed(
            good[site_gate], fault.slow_rising, fault.delta);
    } else {
        // Input-pin fault: the gate sees a retarded version of the
        // driving waveform on that one pin.
        scratch.pin_wave_.assign_slowed(good[sg.fanin[fault.site.pin]],
                                        fault.slow_rising, fault.delta);
        fanin_waves.clear();
        for (std::uint32_t p = 0; p < sg.fanin.size(); ++p) {
            fanin_waves.push_back(p == fault.site.pin ? &scratch.pin_wave_
                                                      : &good[sg.fanin[p]]);
        }
        wave_sim_->eval_gate_into(site_gate, fanin_waves,
                                  scratch.overlay_[site_gate], scratch.eval_);
        ++scratch.gates_evaluated_;
    }
    settle(site_gate);

    // Topological-rank order: a gate pops only after every fanin that
    // can still change (all of lower rank) has been settled.
    while (!work.empty()) {
        const GateId id = work.pop();
        fanin_waves.clear();
        for (GateId f : nl.gate(id).fanin) {
            fanin_waves.push_back(work.changed(f) ? &scratch.overlay_[f]
                                                  : &good[f]);
        }
        wave_sim_->eval_gate_into(id, fanin_waves, scratch.overlay_[id],
                                  scratch.eval_);
        ++scratch.gates_evaluated_;
        settle(id);
    }

    // Differences at the observation points, in observe-index order.
    std::vector<ObserveDiff> diffs;
    std::sort(scratch.observed_.begin(), scratch.observed_.end());
    const auto ops = nl.observe_points();
    for (std::uint32_t oi : scratch.observed_) {
        const GateId sig = ops[oi].signal;
        Waveform diff = Waveform::xor_of(good[sig], scratch.overlay_[sig]);
        if (!diff.is_constant() || diff.initial()) {
            diffs.push_back(ObserveDiff{oi, std::move(diff)});
        }
    }
    return diffs;
}

}  // namespace fastmon
