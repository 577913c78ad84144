#include "timing/delay_model.hpp"

#include <algorithm>
#include <cmath>

#include "timing/delay_delta.hpp"
#include "util/prng.hpp"

namespace fastmon {

DelayAnnotation DelayAnnotation::nominal(const Netlist& netlist,
                                         const CellLibrary& lib) {
    return build(netlist, lib, 0.0, 0);
}

DelayAnnotation DelayAnnotation::with_variation(const Netlist& netlist,
                                                double sigma_fraction,
                                                std::uint64_t seed,
                                                const CellLibrary& lib) {
    return build(netlist, lib, sigma_fraction, seed);
}

void DelayAnnotation::lognormal_variation_factors(
    const Netlist& netlist, double sigma_log, std::uint64_t seed,
    std::vector<double>& factors) {
    factors.assign(netlist.size(), 1.0);
    if (sigma_log <= 0.0) return;
    // One normal per combinational gate, ascending id: the draw order
    // is part of the campaign determinism contract — per-device
    // annotations are bit-identical across releases and engines.
    Prng rng = Prng::stream(seed, 0x10C'A15ULL);
    const double mu = -0.5 * sigma_log * sigma_log;  // E[factor] = 1
    for (GateId id = 0; id < netlist.size(); ++id) {
        if (!is_combinational(netlist.gate(id).type)) continue;
        factors[id] = std::exp(rng.normal(mu, sigma_log));
    }
}

DelayAnnotation DelayAnnotation::with_lognormal_variation(
    const Netlist& netlist, double sigma_log, std::uint64_t seed,
    const CellLibrary& lib) {
    DelayAnnotation ann = build(netlist, lib, 0.0, 0);
    if (sigma_log <= 0.0) return ann;
    // Expressed as a DelayDelta so the same composable path covers
    // process variation, aging, and defects.
    std::vector<double> factors;
    lognormal_variation_factors(netlist, sigma_log, seed, factors);
    DelayDelta delta;
    for (GateId id = 0; id < netlist.size(); ++id) {
        if (!is_combinational(netlist.gate(id).type)) continue;
        delta.scale(id, factors[id]);
    }
    ann.transform(delta);
    return ann;
}

DelayAnnotation DelayAnnotation::build(const Netlist& netlist,
                                       const CellLibrary& lib,
                                       double sigma_fraction,
                                       std::uint64_t seed) {
    DelayAnnotation ann;
    Prng rng(seed ^ 0xDE1A'F00DULL);
    const auto n = netlist.size();
    ann.offset_.resize(n);
    ann.nominal_mean_.assign(n, 0.0);

    std::uint32_t cursor = 0;
    for (GateId id = 0; id < n; ++id) {
        const Gate& g = netlist.gate(id);
        ann.offset_[id] = cursor;
        const auto arity = static_cast<std::uint32_t>(g.fanin.size());
        // One per-instance variation factor, correlated across the arcs
        // of the gate (intra-gate transistors share process corners).
        double factor = 1.0;
        if (sigma_fraction > 0.0 && is_combinational(g.type)) {
            factor = rng.normal(1.0, sigma_fraction);
            factor = std::clamp(factor, 1.0 - 3.0 * sigma_fraction,
                                1.0 + 3.0 * sigma_fraction);
            factor = std::max(factor, 0.05);
        }
        const Time load =
            g.fanout.size() > 1
                ? lib.load_delay_per_fanout() *
                      static_cast<Time>(g.fanout.size() - 1)
                : 0.0;
        Time nominal_sum = 0.0;
        for (std::uint32_t pin = 0; pin < arity; ++pin) {
            PinDelay d{0.0, 0.0};
            if (is_combinational(g.type)) {
                const PinDelay nom = lib.nominal_delay(g.type, arity, pin);
                nominal_sum += 0.5 * (nom.rise + nom.fall);
                d.rise = nom.rise * factor + load;
                d.fall = nom.fall * factor + load;
            }
            ann.arcs_.push_back(d);
            ++cursor;
        }
        if (arity > 0 && is_combinational(g.type)) {
            ann.nominal_mean_[id] = nominal_sum / static_cast<Time>(arity);
        }
    }
    ann.glitch_threshold_ = lib.min_gate_delay();
    return ann;
}

DelayAnnotation& DelayAnnotation::transform(const DelayDelta& delta) {
    for (const DelayDelta::GateScale& s : delta.scales) {
        scale_gate(s.gate, s.factor);
    }
    for (const DelayDelta::ArcExtra& e : delta.extras) {
        const std::uint32_t begin = offset_[e.gate];
        const std::uint32_t end = e.gate + 1 < offset_.size()
                                      ? offset_[e.gate + 1]
                                      : static_cast<std::uint32_t>(arcs_.size());
        const std::uint32_t first =
            e.pin == DelayDelta::kAllPins ? begin : begin + e.pin;
        const std::uint32_t last =
            e.pin == DelayDelta::kAllPins ? end : begin + e.pin + 1;
        for (std::uint32_t i = first; i < last; ++i) {
            arcs_[i].rise += e.extra;
            arcs_[i].fall += e.extra;
        }
    }
    return *this;
}

DelayAnnotation DelayAnnotation::transformed(const DelayDelta& delta) const {
    DelayAnnotation copy = *this;
    copy.transform(delta);
    return copy;
}

void DelayAnnotation::scale_gate(GateId gate, double factor) {
    const std::uint32_t begin = offset_[gate];
    const std::uint32_t end = gate + 1 < offset_.size()
                                  ? offset_[gate + 1]
                                  : static_cast<std::uint32_t>(arcs_.size());
    for (std::uint32_t i = begin; i < end; ++i) {
        arcs_[i].rise *= factor;
        arcs_[i].fall *= factor;
    }
}

}  // namespace fastmon
