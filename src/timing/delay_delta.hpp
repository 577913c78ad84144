// Composable description of a delay-annotation mutation.
//
// A DelayDelta captures everything the flow ever does to a base
// annotation — per-gate (aging, process-variation) degradation factors
// and additive extras at defect sites — as data instead of as ad-hoc
// copy-and-mutate loops.  It is applied either eagerly
// (DelayAnnotation::transform) or over the flattened arcs of a
// StaEngine / BatchStaEngine.
//
// Application order is fixed and part of the bit-identity contract:
//   1. per-gate scales multiply the gate's arcs, in entry order,
//   2. extras add to the selected arc(s), in entry order.
// Because every step is a monotone map applied to both the rise and the
// fall delay of an arc, max/min over (rise, fall) commute with the
// transformation bit-for-bit — the property StaEngine relies on.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace fastmon {

struct DelayDelta {
    /// Pin selector meaning "every fanin arc of the gate" (the shape of
    /// an output-side defect, FaultSite::kOutputPin).
    static constexpr std::uint32_t kAllPins = 0xFFFFFFFF;

    struct GateScale {
        GateId gate = kNoGate;
        double factor = 1.0;
    };
    struct ArcExtra {
        GateId gate = kNoGate;
        std::uint32_t pin = kAllPins;
        Time extra = 0.0;
    };

    /// Per-gate multiplicative degradation, applied in entry order.
    std::vector<GateScale> scales;
    /// Additive per-arc extras (defect deltas), applied in entry order.
    std::vector<ArcExtra> extras;

    DelayDelta& scale(GateId gate, double factor) {
        scales.push_back(GateScale{gate, factor});
        return *this;
    }

    DelayDelta& add(GateId gate, std::uint32_t pin, Time extra) {
        extras.push_back(ArcExtra{gate, pin, extra});
        return *this;
    }

    void clear() {
        scales.clear();
        extras.clear();
    }

    [[nodiscard]] bool empty() const {
        return scales.empty() && extras.empty();
    }
};

}  // namespace fastmon
