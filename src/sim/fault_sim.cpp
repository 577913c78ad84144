#include "sim/fault_sim.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>

namespace fastmon {

GateId fault_site_signal(const Netlist& netlist, const FaultSite& site) {
    if (site.pin == FaultSite::kOutputPin) return site.gate;
    return netlist.gate(site.gate).fanin[site.pin];
}

void FaultSimScratch::begin_epoch(std::size_t num_gates) {
    if (overlay_.size() != num_gates) {
        overlay_.resize(num_gates);  // a slot is read only once stamped
        epoch_ = std::numeric_limits<std::uint32_t>::max();
    }
    if (++epoch_ == 0) {  // first use, new netlist or epoch wrap
        stamp_.assign(num_gates, 0);
        queued_.assign(num_gates, 0);
        epoch_ = 1;
    }
    heap_.clear();
    observed_.clear();
}

FaultSim::FaultSim(const WaveSim& wave_sim) : wave_sim_(&wave_sim) {}

const Waveform& FaultSim::site_signal(const FaultSite& site,
                                      std::span<const Waveform> good) const {
    return good[fault_site_signal(wave_sim_->netlist(), site)];
}

bool FaultSim::activated(const DelayFault& fault,
                         std::span<const Waveform> good) const {
    const Waveform& w = site_signal(fault.site, good);
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
    // fault-free simulation are stamped with the current epoch.
    scratch.begin_epoch(nl.size());
    const std::uint32_t epoch = scratch.epoch_;
    std::vector<std::uint32_t>& heap = scratch.heap_;
    std::vector<const Waveform*>& fanin_waves = scratch.fanin_waves_;

    // Keeps the freshly evaluated overlay slot of `id` if it differs
    // from the fault-free wave: stamps it, records the observation
    // points it drives and queues its combinational fanouts (Output and
    // Dff sinks end propagation: fanout does not wrap around a
    // register).
    auto settle = [&](GateId id) {
        if (scratch.overlay_[id] == good[id]) return;
        scratch.stamp_[id] = epoch;
        const auto obs = nl.observe_indices(id);
        scratch.observed_.insert(scratch.observed_.end(), obs.begin(),
                                 obs.end());
        for (GateId out : nl.gate(id).fanout) {
            if (scratch.queued_[out] == epoch ||
                !is_combinational(nl.gate(out).type)) {
                continue;
            }
            scratch.queued_[out] = epoch;
            heap.push_back(nl.topo_rank(out));
            std::push_heap(heap.begin(), heap.end(), std::greater<>());
        }
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
    const auto topo = nl.topo_order();
    while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>());
        const GateId id = topo[heap.back()];
        heap.pop_back();
        fanin_waves.clear();
        for (GateId f : nl.gate(id).fanin) {
            fanin_waves.push_back(scratch.has(f) ? &scratch.overlay_[f]
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
