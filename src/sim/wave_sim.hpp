// Timing-accurate full-waveform simulation of pattern pairs.
//
// For a test pattern pair (v1, v2) every combinational source carries a
// step waveform (value v1, toggling to v2 at the launch edge t = 0).
// Gates are evaluated in topological order; each gate maps its fanin
// waveforms to an output waveform using the annotated pin-to-pin
// rise/fall delays, followed by inertial pulse filtering.  This is the
// CPU equivalent of the GPU waveform simulator the paper uses [20].
#pragma once

#include <cstdint>
#include <span>
#include <utility>
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

/// Reusable buffers of WaveSim::eval_gate_into (the gate's sorted
/// input events and its pending output events).  Not thread-safe; use
/// one instance per thread.
class GateEvalScratch {
private:
    friend class WaveSim;

    struct InEvent {
        Time t;
        std::uint32_t pin;
    };
    std::vector<InEvent> in_events_;
    std::vector<std::pair<Time, bool>> pending_;  ///< (time, value-after)
};

class WaveSim {
public:
    WaveSim(const Netlist& netlist, const DelayAnnotation& delays,
            WaveSimConfig config = {});

    /// Waveforms of all nodes for the pattern pair (v1, v2); both
    /// vectors are indexed like Netlist::comb_sources().
    /// Output/Dff nodes mirror their fanin waveform (zero-delay pads).
    /// Every gate is evaluated through one GateEvalScratch.
    [[nodiscard]] std::vector<Waveform> simulate(
        std::span<const Bit> v1, std::span<const Bit> v2) const;

    /// Evaluates one gate from explicit fanin waveforms (a fault
    /// injector substitutes the waveform seen by one pin to model an
    /// input-pin delay fault).
    [[nodiscard]] Waveform eval_gate(
        GateId gate, std::span<const Waveform* const> fanin_waves) const;

    /// Allocation-free form of eval_gate: writes the result into `out`,
    /// reusing its transition buffer and the buffers of `scratch`.
    /// `out` must not be one of the fanin waveforms.
    void eval_gate_into(GateId gate,
                        std::span<const Waveform* const> fanin_waves,
                        Waveform& out, GateEvalScratch& scratch) const;

    [[nodiscard]] const Netlist& netlist() const { return *netlist_; }
    [[nodiscard]] const DelayAnnotation& delays() const { return *delays_; }
    [[nodiscard]] const WaveSimConfig& config() const { return config_; }

    /// The inertial threshold applied at the output of `gate`.
    [[nodiscard]] Time inertial_threshold(GateId gate) const;

private:
    const Netlist* netlist_;
    const DelayAnnotation* delays_;
    WaveSimConfig config_;
};

}  // namespace fastmon
