// Timing-accurate full-waveform simulation of pattern pairs.
//
// For a test pattern pair (v1, v2) every combinational source carries a
// step waveform (value v1, toggling to v2 at the launch edge t = 0).
// Gates are evaluated in topological order; each gate maps its fanin
// waveforms to an output waveform using the annotated pin-to-pin
// rise/fall delays, followed by inertial pulse filtering.  This is the
// CPU equivalent of the GPU waveform simulator the paper uses [20].
//
// The gate kernel runs on flat arrays built once at construction, so
// an evaluation never touches a Gate or the DelayAnnotation:
//   * a truth table per (cell type, arity), up to 256 bits (arity <= 8),
//     shared by every gate of that shape and indexed by the input bits;
//   * the inertial threshold of every gate;
//   * CSR fanin ids with their delay arcs in pin order, and a CSR of
//     each gate's combinational fanouts (the fault simulator's walk).
// The delays are therefore read once, when the WaveSim is built: a
// later change to the annotation is not seen by an existing WaveSim
// (build a new one, as every caller does right before simulating).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/logic_sim.hpp"
#include "sim/waveform.hpp"
#include "timing/delay_model.hpp"

namespace fastmon {

struct WaveSimConfig {
    /// Pulses narrower than this fraction of the gate's mean arc delay
    /// are swallowed at the gate output (inertial delay model).
    /// 0 disables gate-level filtering.
    double inertial_fraction = 0.4;
};

/// Reusable buffers of the gate kernel (the gate's input events in
/// time order, and the output toggles of eval_gate / simulate).  Not
/// thread-safe; use one instance per thread.
class GateEvalScratch {
private:
    friend class WaveSim;

    struct InEvent {
        Time t;
        std::uint32_t pin;
    };
    std::vector<InEvent> in_events_;
    std::vector<Time> out_;  ///< output buffer of eval_gate / simulate
};

class WaveSim {
public:
    WaveSim(const Netlist& netlist, const DelayAnnotation& delays,
            WaveSimConfig config = {});

    /// Waveforms of all nodes for the pattern pair (v1, v2); both
    /// vectors are indexed like Netlist::comb_sources().
    /// Output/Dff nodes mirror their fanin waveform (zero-delay pads).
    [[nodiscard]] std::vector<Waveform> simulate(
        std::span<const Bit> v1, std::span<const Bit> v2) const;

    /// Evaluates one gate from explicit fanin waveforms (a fault
    /// injector substitutes the waveform seen by one pin to model an
    /// input-pin delay fault).
    [[nodiscard]] Waveform eval_gate(
        GateId gate, std::span<const Waveform* const> fanin_waves) const;

    /// The gate kernel: evaluates `gate` over its fanin waveforms `in`
    /// (one per pin, in pin order) and writes the output toggles to
    /// out[at, at + count), growing `out` as needed.  The views may
    /// point into `out` below `at` (the inputs are copied before `out`
    /// grows).  Returns count; the output's initial value goes to
    /// `initial`.
    std::uint32_t eval_gate_into(GateId gate, const WaveView* in,
                                 std::vector<Time>& out, std::size_t at,
                                 bool& initial, GateEvalScratch& scratch) const;

    [[nodiscard]] const Netlist& netlist() const { return *netlist_; }
    [[nodiscard]] const WaveSimConfig& config() const { return config_; }

    /// The inertial threshold applied at the output of `gate`.
    [[nodiscard]] Time inertial_threshold(GateId gate) const {
        return threshold_[gate];
    }

    /// Fanin gates of `gate` in pin order.
    [[nodiscard]] std::span<const GateId> fanins(GateId gate) const {
        return {fanin_id_.data() + fanin_begin_[gate],
                fanin_begin_[gate + 1] - fanin_begin_[gate]};
    }

    /// Combinational fanouts of `gate` (Output and Dff sinks omitted).
    [[nodiscard]] std::span<const GateId> comb_fanouts(GateId gate) const {
        return {fanout_id_.data() + fanout_begin_[gate],
                fanout_begin_[gate + 1] - fanout_begin_[gate]};
    }

private:
    static constexpr std::uint16_t kPassThrough = 0xFFFF;

    const Netlist* netlist_;
    WaveSimConfig config_;
    std::vector<std::array<std::uint64_t, 4>> tables_;
    /// Per gate: index into tables_, or kPassThrough for interface
    /// nodes (Output/Dff mirror their fanin, Input has none).
    std::vector<std::uint16_t> table_;
    std::vector<Time> threshold_;
    std::vector<std::uint32_t> fanin_begin_;  ///< CSR row starts, size n + 1
    std::vector<GateId> fanin_id_;
    std::vector<PinDelay> fanin_arc_;
    std::vector<std::uint32_t> fanout_begin_;
    std::vector<GateId> fanout_id_;
};

}  // namespace fastmon
