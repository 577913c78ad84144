// Per-instance delay annotation.
//
// Each input-pin-to-output arc of every gate carries a rise/fall delay:
// the library's nominal value, scaled by a per-instance process-variation
// factor (sigma = 20 % of nominal in the paper, Sec. III) plus a load
// term per fanout branch.  The annotation is the single timing source
// for STA, waveform simulation and fault sizing; it can be exported to
// and re-imported from (a subset of) SDF, mirroring the paper's flow
// which reads "standard delay format" files.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace fastmon {

struct DelayDelta;

class DelayAnnotation {
public:
    /// Library-nominal delays (no variation).
    static DelayAnnotation nominal(const Netlist& netlist,
                                   const CellLibrary& lib = CellLibrary::nangate45());

    /// Delays with a per-gate Gaussian variation factor
    /// N(1, sigma_fraction), clipped to [1-3*sigma, 1+3*sigma].
    static DelayAnnotation with_variation(const Netlist& netlist,
                                          double sigma_fraction,
                                          std::uint64_t seed,
                                          const CellLibrary& lib = CellLibrary::nangate45());

    /// Delays with a per-gate mean-one lognormal variation factor
    /// exp(N(-s^2/2, s)), s = sigma_log — strictly positive and
    /// right-skewed, the shape device-population studies fit to
    /// manufacturing spread.  The campaign engine samples one such
    /// annotation per simulated device (one seed per device stream).
    static DelayAnnotation with_lognormal_variation(
        const Netlist& netlist, double sigma_log, std::uint64_t seed,
        const CellLibrary& lib = CellLibrary::nangate45());

    /// The per-gate factors with_lognormal_variation() would apply,
    /// written into `factors` (resized to netlist.size(); 1.0 for
    /// non-combinational gates).  Same Prng stream and draw order, so
    /// scaling a nominal annotation's arcs by factors[gate] reproduces
    /// the per-device annotation — the batched campaign engine loads
    /// its lanes from these without materializing the annotation.
    static void lognormal_variation_factors(const Netlist& netlist,
                                            double sigma_log,
                                            std::uint64_t seed,
                                            std::vector<double>& factors);

    /// Annotated delay of the arc from fanin pin `pin` to the output of
    /// gate `gate`.  Interface nodes (Output pads, DFF D pins) have zero
    /// delay arcs.
    [[nodiscard]] PinDelay arc(GateId gate, std::uint32_t pin) const {
        return arcs_[offset_[gate] + pin];
    }

    /// Mean nominal (pre-variation, pre-load) delay of the gate; the
    /// reference for fault sizing: delta = 6 sigma = 6 * 0.2 * this.
    [[nodiscard]] Time nominal_gate_delay(GateId gate) const {
        return nominal_mean_[gate];
    }

    /// Glitch-filtering threshold used in pulse filtering (Sec. II-A):
    /// pulses shorter than this are assumed filtered by CMOS stages.
    [[nodiscard]] Time glitch_threshold() const { return glitch_threshold_; }
    void set_glitch_threshold(Time t) { glitch_threshold_ = t; }

    /// Mutable arc access (used by the SDF reader and the aging model,
    /// which degrades arcs over lifetime).
    void set_arc(GateId gate, std::uint32_t pin, PinDelay d) {
        arcs_[offset_[gate] + pin] = d;
    }

    /// Scales every arc of `gate` by `factor` (aging degradation).
    void scale_gate(GateId gate, double factor);

    /// Applies a composable mutation in place: the delta's per-gate
    /// scales, then its additive extras, each in entry order (the
    /// order the bit-identity contract of StaEngine::update is defined
    /// against).
    DelayAnnotation& transform(const DelayDelta& delta);

    /// Copying variant of transform() for callers that keep the base.
    [[nodiscard]] DelayAnnotation transformed(const DelayDelta& delta) const;

    [[nodiscard]] std::size_t num_gates() const { return offset_.size(); }

private:
    DelayAnnotation() = default;
    static DelayAnnotation build(const Netlist& netlist, const CellLibrary& lib,
                                 double sigma_fraction, std::uint64_t seed);

    std::vector<std::uint32_t> offset_;   ///< per gate: start index into arcs_
    std::vector<PinDelay> arcs_;          ///< flattened arc delays
    std::vector<Time> nominal_mean_;      ///< per gate: mean nominal delay
    Time glitch_threshold_ = 0.0;
};

}  // namespace fastmon
