#include "sim/wave_sim.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace fastmon {

WaveSim::WaveSim(const Netlist& netlist, const DelayAnnotation& delays,
                 WaveSimConfig config)
    : netlist_(&netlist), delays_(&delays), config_(config) {
    if (!netlist.finalized()) {
        throw std::logic_error("WaveSim requires a finalized netlist");
    }
}

Time WaveSim::inertial_threshold(GateId gate) const {
    if (config_.inertial_fraction <= 0.0) return 0.0;
    const Gate& g = netlist_->gate(gate);
    if (!is_combinational(g.type) || g.fanin.empty()) return 0.0;
    Time mean = 0.0;
    for (std::uint32_t pin = 0; pin < g.fanin.size(); ++pin) {
        const PinDelay d = delays_->arc(gate, pin);
        mean += 0.5 * (d.rise + d.fall);
    }
    mean /= static_cast<Time>(g.fanin.size());
    return config_.inertial_fraction * mean;
}

Waveform WaveSim::eval_gate(
    GateId gate, std::span<const Waveform* const> fanin_waves) const {
    Waveform out;
    GateEvalScratch scratch;
    eval_gate_into(gate, fanin_waves, out, scratch);
    return out;
}

void WaveSim::eval_gate_into(GateId gate,
                             std::span<const Waveform* const> fanin_waves,
                             Waveform& out, GateEvalScratch& scratch) const {
    const Gate& g = netlist_->gate(gate);
    assert(fanin_waves.size() == g.fanin.size());

    if (!is_combinational(g.type)) {
        // Output pads and DFF D pins observe their fanin directly.
        out = *fanin_waves[0];
        return;
    }

    const auto arity = static_cast<std::uint32_t>(g.fanin.size());

    // Gather all input events: (input time, pin).
    using InEvent = GateEvalScratch::InEvent;
    auto& in_events = scratch.in_events_;
    in_events.clear();
    for (std::uint32_t pin = 0; pin < arity; ++pin) {
        for (Time t : fanin_waves[pin]->transitions()) {
            in_events.push_back(InEvent{t, pin});
        }
    }
    std::sort(in_events.begin(), in_events.end(),
              [](const InEvent& a, const InEvent& b) { return a.t < b.t; });

    // Walk input events in time order, tracking the instantaneous input
    // state; every change of the output function value produces an
    // output event delayed by the causing pin's arc.
    bool state[8];
    for (std::uint32_t pin = 0; pin < arity; ++pin) {
        state[pin] = fanin_waves[pin]->initial();
    }
    bool out_value = eval_cell(g.type, std::span<const bool>(state, arity));
    const bool out_initial = out_value;

    // Preemptive transition scheduling: an output event computed from a
    // later input state supersedes any pending output event at an equal
    // or later time (unequal pin delays can schedule out of order; the
    // newest computation of the output value wins).
    auto& pending = scratch.pending_;
    pending.clear();
    auto scheduled_value = [&pending, out_initial] {
        return pending.empty() ? out_initial : pending.back().second;
    };
    std::size_t i = 0;
    while (i < in_events.size()) {
        // Group input events within the comparison tolerance.
        const Time t = in_events[i].t;
        Time min_delay_rise = std::numeric_limits<Time>::max();
        Time min_delay_fall = std::numeric_limits<Time>::max();
        while (i < in_events.size() && in_events[i].t <= t + kTimeEps) {
            const std::uint32_t pin = in_events[i].pin;
            state[pin] = !state[pin];
            const PinDelay d = delays_->arc(gate, pin);
            min_delay_rise = std::min(min_delay_rise, d.rise);
            min_delay_fall = std::min(min_delay_fall, d.fall);
            ++i;
        }
        const bool v = eval_cell(g.type, std::span<const bool>(state, arity));
        if (v == out_value) continue;
        out_value = v;
        const Time when = t + (v ? min_delay_rise : min_delay_fall);
        while (!pending.empty() && pending.back().first >= when - kTimeEps) {
            pending.pop_back();
        }
        if (v != scheduled_value()) pending.emplace_back(when, v);
    }

    out.assign_events(out_initial, pending);
    // filter_pulses is a no-op below two transitions; skip the
    // threshold's fanin walk there.
    if (out.num_transitions() >= 2) {
        out.filter_pulses(inertial_threshold(gate));
    }
}

std::vector<Waveform> WaveSim::simulate(std::span<const Bit> v1,
                                        std::span<const Bit> v2) const {
    const Netlist& nl = *netlist_;
    assert(v1.size() == nl.comb_sources().size());
    assert(v2.size() == v1.size());

    std::vector<Waveform> waves(nl.size(), Waveform::constant(false));
    std::vector<const Waveform*> fanin_waves;
    GateEvalScratch scratch;
    for (GateId id : nl.topo_order()) {
        const Gate& g = nl.gate(id);
        const std::uint32_t src = nl.source_index(id);
        if (src != std::numeric_limits<std::uint32_t>::max()) {
            waves[id] = v1[src] == v2[src]
                            ? Waveform::constant(v1[src] != 0)
                            : Waveform::step(v1[src] != 0, 0.0);
            continue;
        }
        fanin_waves.clear();
        for (GateId f : g.fanin) fanin_waves.push_back(&waves[f]);
        eval_gate_into(id, fanin_waves, waves[id], scratch);
    }
    return waves;
}

}  // namespace fastmon
