#include "sim/wave_sim.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace fastmon {

namespace {

constexpr std::uint32_t kMaxArity = 8;

}  // namespace

WaveSim::WaveSim(const Netlist& netlist, const DelayAnnotation& delays,
                 WaveSimConfig config)
    : netlist_(&netlist), config_(config) {
    if (!netlist.finalized()) {
        throw std::logic_error("WaveSim requires a finalized netlist");
    }
    const std::size_t n = netlist.size();
    table_.assign(n, kPassThrough);
    threshold_.assign(n, 0.0);
    fanin_begin_.reserve(n + 1);
    fanout_begin_.reserve(n + 1);
    // One truth table per (cell type, arity): bit s is the cell's value
    // when input pin p carries bit p of s.
    std::vector<std::uint16_t> table_of(256 * (kMaxArity + 1), kPassThrough);
    for (GateId id = 0; id < n; ++id) {
        const Gate& g = netlist.gate(id);
        const auto arity = static_cast<std::uint32_t>(g.fanin.size());
        assert(arity <= kMaxArity);
        fanin_begin_.push_back(static_cast<std::uint32_t>(fanin_id_.size()));
        for (std::uint32_t pin = 0; pin < arity; ++pin) {
            fanin_id_.push_back(g.fanin[pin]);
            fanin_arc_.push_back(delays.arc(id, pin));
        }
        fanout_begin_.push_back(static_cast<std::uint32_t>(fanout_id_.size()));
        for (GateId out : g.fanout) {
            if (is_combinational(netlist.gate(out).type)) {
                fanout_id_.push_back(out);
            }
        }
        if (!is_combinational(g.type)) continue;

        std::uint16_t& table =
            table_of[static_cast<std::size_t>(g.type) * (kMaxArity + 1) +
                     arity];
        if (table == kPassThrough) {
            std::array<std::uint64_t, 4> bits{};
            for (std::uint32_t s = 0; s < (1U << arity); ++s) {
                bool in[kMaxArity];
                for (std::uint32_t p = 0; p < arity; ++p) {
                    in[p] = ((s >> p) & 1U) != 0;
                }
                if (eval_cell(g.type, std::span<const bool>(in, arity))) {
                    bits[s >> 6] |= 1ULL << (s & 63);
                }
            }
            table = static_cast<std::uint16_t>(tables_.size());
            tables_.push_back(bits);
        }
        table_[id] = table;

        if (config_.inertial_fraction > 0.0 && arity != 0) {
            Time mean = 0.0;
            for (std::uint32_t pin = 0; pin < arity; ++pin) {
                const PinDelay d = delays.arc(id, pin);
                mean += 0.5 * (d.rise + d.fall);
            }
            mean /= static_cast<Time>(arity);
            threshold_[id] = config_.inertial_fraction * mean;
        }
    }
    fanin_begin_.push_back(static_cast<std::uint32_t>(fanin_id_.size()));
    fanout_begin_.push_back(static_cast<std::uint32_t>(fanout_id_.size()));
}

Waveform WaveSim::eval_gate(
    GateId gate, std::span<const Waveform* const> fanin_waves) const {
    assert(fanin_waves.size() == fanins(gate).size());
    WaveView in[kMaxArity];
    for (std::size_t pin = 0; pin < fanin_waves.size(); ++pin) {
        in[pin] = fanin_waves[pin]->view();
    }
    GateEvalScratch scratch;
    bool initial = false;
    const std::uint32_t n =
        eval_gate_into(gate, in, scratch.out_, 0, initial, scratch);
    Waveform out;
    out.assign(initial, std::span<const Time>(scratch.out_.data(), n));
    return out;
}

std::uint32_t WaveSim::eval_gate_into(GateId gate, const WaveView* in,
                                      std::vector<Time>& out, std::size_t at,
                                      bool& initial,
                                      GateEvalScratch& scratch) const {
    using InEvent = GateEvalScratch::InEvent;
    auto& ev = scratch.in_events_;
    ev.clear();
    const std::uint16_t table = table_[gate];
    if (table == kPassThrough) {
        // Output pads and DFF D pins observe their fanin directly.  The
        // toggles go through `ev`: in[0] may point into `out`.
        for (Time t : in[0].transitions()) ev.push_back(InEvent{t, 0});
        initial = in[0].initial;
        if (out.size() < at + ev.size()) out.resize(at + ev.size());
        for (std::size_t k = 0; k < ev.size(); ++k) out[at + k] = ev[k].t;
        return in[0].n;
    }
    const std::uint32_t first = fanin_begin_[gate];
    const std::uint32_t arity = fanin_begin_[gate + 1] - first;
    const PinDelay* arcs = fanin_arc_.data() + first;
    const std::uint64_t* tt = tables_[table].data();
    const auto value = [tt](std::uint32_t s) {
        return ((tt[s >> 6] >> (s & 63)) & 1U) != 0;
    };

    // Gather all input events (time, pin) in time order.  Each fanin's
    // toggles are already sorted, so an insertion merge is cheap.
    // Events tied in time land in one group below, so their relative
    // order cannot change the result.
    std::uint32_t state = 0;
    for (std::uint32_t pin = 0; pin < arity; ++pin) {
        state |= static_cast<std::uint32_t>(in[pin].initial) << pin;
        for (Time t : in[pin].transitions()) {
            std::size_t j = ev.size();
            ev.push_back(InEvent{t, pin});
            for (; j > 0 && ev[j - 1].t > t; --j) ev[j] = ev[j - 1];
            ev[j] = InEvent{t, pin};
        }
    }

    // Walk input events in time order, tracking the instantaneous input
    // state; every change of the output function value produces an
    // output event delayed by the causing pin's arc.
    bool out_value = value(state);
    initial = out_value;

    // Preemptive transition scheduling: an output event computed from a
    // later input state supersedes any pending output event at an equal
    // or later time (unequal pin delays can schedule out of order; the
    // newest computation of the output value wins).  The pending events
    // are a stack written straight into `out`; they alternate in value
    // starting from !initial and stay more than kTimeEps apart, so they
    // are the output toggles as they stand.
    if (out.size() < at + ev.size()) out.resize(at + ev.size());
    Time* pending = out.data() + at;
    std::uint32_t n = 0;
    std::size_t i = 0;
    while (i < ev.size()) {
        // Group input events within the comparison tolerance.
        const Time t = ev[i].t;
        Time min_delay_rise = std::numeric_limits<Time>::max();
        Time min_delay_fall = std::numeric_limits<Time>::max();
        while (i < ev.size() && ev[i].t <= t + kTimeEps) {
            const std::uint32_t pin = ev[i].pin;
            state ^= 1U << pin;
            min_delay_rise = std::min(min_delay_rise, arcs[pin].rise);
            min_delay_fall = std::min(min_delay_fall, arcs[pin].fall);
            ++i;
        }
        const bool v = value(state);
        if (v == out_value) continue;
        out_value = v;
        const Time when = t + (v ? min_delay_rise : min_delay_fall);
        while (n != 0 && pending[n - 1] >= when - kTimeEps) --n;
        const bool scheduled = initial != ((n & 1U) != 0);
        if (v != scheduled) pending[n++] = when;
    }
    return static_cast<std::uint32_t>(
        filter_pulses(pending, n, threshold_[gate]));
}

std::vector<Waveform> WaveSim::simulate(std::span<const Bit> v1,
                                        std::span<const Bit> v2) const {
    const Netlist& nl = *netlist_;
    assert(v1.size() == nl.comb_sources().size());
    assert(v2.size() == v1.size());

    std::vector<Waveform> waves(nl.size(), Waveform::constant(false));
    GateEvalScratch scratch;
    WaveView in[kMaxArity];
    for (GateId id : nl.topo_order()) {
        const std::uint32_t src = nl.source_index(id);
        if (src != std::numeric_limits<std::uint32_t>::max()) {
            waves[id] = v1[src] == v2[src]
                            ? Waveform::constant(v1[src] != 0)
                            : Waveform::step(v1[src] != 0, 0.0);
            continue;
        }
        const std::span<const GateId> fin = fanins(id);
        for (std::size_t pin = 0; pin < fin.size(); ++pin) {
            in[pin] = waves[fin[pin]].view();
        }
        bool initial = false;
        const std::uint32_t n =
            eval_gate_into(id, in, scratch.out_, 0, initial, scratch);
        waves[id].assign(initial,
                         std::span<const Time>(scratch.out_.data(), n));
    }
    return waves;
}

}  // namespace fastmon
