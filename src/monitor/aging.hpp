// Wear-out and early-life degradation model — the prediction side of
// the paper's title.
//
// Aging mechanisms (BTI/HCI, Sec. I) gradually increase gate delays; a
// marginal device additionally carries a small defect whose delay grows
// quickly after deployment (the "hidden delay fault" that magnifies,
// Sec. I).  The LifetimeSimulator degrades an annotated netlist over
// operational time and evaluates the programmable monitors' guard-band
// checks: with a wide window (large delay element) the first alert
// fires early in the degradation (Fig. 2 (b)); after reconfiguration to
// a smaller element, the next alert indicates imminent failure
// (Fig. 2 (c)).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "monitor/placement.hpp"
#include "sim/fault_sim.hpp"
#include "timing/sta_engine.hpp"
#include "util/json.hpp"
#include "wearout/wearout.hpp"

namespace fastmon {

/// Power-law delay degradation: factor(t) = 1 + A * (t / t_ref)^n.
/// Typical BTI fits use n around 0.2-0.3 and A around 10 % at ten
/// years [1].
struct AgingModel {
    double amplitude = 0.10;
    double exponent = 0.25;
    double t_ref_years = 10.0;

    /// Exactly 1.0 at years <= 0 (and NaN), so mission phases anchored
    /// at t = 0 and pre-deployment queries are safe for every exponent.
    [[nodiscard]] double factor(double years) const;
};

/// An early-life marginal defect: initial extra delay delta0 at a fault
/// site, growing exponentially with operational time until saturation.
struct MarginalDefect {
    FaultSite site;
    Time delta0 = 0.0;              ///< extra delay at deployment
    double growth_per_year = 1.0;   ///< exponential growth rate
    Time delta_max = 0.0;           ///< saturation (0 = unbounded)

    [[nodiscard]] Time delta_at(double years) const;
};

/// State of the device at one point of its lifetime.
struct LifetimePoint {
    double years = 0.0;
    Time worst_monitored_arrival = 0.0;  ///< max arrival at monitored PPOs
    Time worst_arrival = 0.0;            ///< max arrival at any endpoint
    std::vector<bool> alerts;            ///< per configuration index
    bool timing_failure = false;         ///< worst_arrival exceeds the clock

    [[nodiscard]] Json to_json() const;
    static std::optional<LifetimePoint> from_json(const Json& j);

    friend bool operator==(const LifetimePoint&,
                           const LifetimePoint&) = default;
};

/// Degradation state of one device: its aging model, per-gate
/// aging-rate jitter, and accumulated marginal defects, composed by a
/// wear-out mechanism registry.  Renders the state at any lifetime
/// point as a composable DelayDelta on the device's base annotation —
/// the single formula both the scalar LifetimeSimulator and the
/// batched campaign rollout evaluate, so the two paths degrade
/// bit-identically.  The legacy single-knob aging is not a special
/// case: it is the registry preset WearoutConfig::legacy_preset().
/// reset() reuses the internal buffers, letting a batch lane cycle
/// through many devices without reallocating.
class DeviceDegradation {
public:
    /// Re-seeds the state for a new device.  The jitter draw order
    /// (one uniform per gate, ascending id, stream seed ^ 0xA61713) is
    /// part of the campaign determinism contract.  Per-mechanism
    /// stress is packed on top of the jitter, and the device's Weibull
    /// severity scales are drawn from their own substreams (seed,
    /// wearout tag + mechanism).  `wearout` must outlive the state.
    void reset(const Netlist& netlist, AgingModel model, std::uint64_t seed,
               const WearoutModel& wearout);

    void add_defect(MarginalDefect defect) { defects_.push_back(defect); }

    /// Overwrites `delta` with the degradation at `years`: per-gate
    /// scales 1 + sum_m coef_m(t) * stress_m[gate] (ascending id,
    /// mechanisms summed in registry order) then defect extras (entry
    /// order).
    void fill_delta(double years, DelayDelta& delta) const;

    /// Name of the mechanism contributing the largest total delay
    /// degradation at `years` (coef_m(t) x summed gate stress), with
    /// its contribution share in `share` if non-null.  nullptr when
    /// wear-out is off (the registry's config is not enabled, as in
    /// the legacy preset) or nothing has degraded yet.
    [[nodiscard]] const char* dominant_mechanism(
        double years, double* share = nullptr) const;

    [[nodiscard]] const std::vector<MarginalDefect>& defects() const {
        return defects_;
    }

private:
    void append_defects(double years, DelayDelta& delta) const;
    [[nodiscard]] double mechanism_coefficient(std::size_t m,
                                               double years) const;
    AgingModel model_;
    std::vector<GateId> comb_gates_;  ///< aging targets, ascending
    std::vector<double> jitter_;      ///< per packed gate, reset scratch
    std::vector<MarginalDefect> defects_;
    const WearoutModel* wearout_ = nullptr;
    /// Mechanism m's stress at packed gate i (gate stress x jitter),
    /// at [m * comb_gates_.size() + i].
    std::vector<double> mech_stress_;
    std::vector<double> mech_stress_sum_;  ///< per-mechanism attribution
    std::vector<double> device_scale_;     ///< per-mechanism Weibull draw
    mutable std::vector<double> coef_;     ///< per-fill scratch
};

class LifetimeSimulator {
public:
    /// `base` must be the annotation the clock was derived from;
    /// `clock_period` stays fixed over the lifetime (the deployed f_nom).
    /// evaluate() applies each year's degradation as a DelayDelta to a
    /// persistent StaEngine, bit-identical to a from-scratch pass over
    /// degraded(years).  A non-null `engine` (constructed for the same
    /// netlist, margin 1.0) is rebased to `base` and reused — the
    /// campaign shares one engine per worker across its whole device
    /// shard.  `wearout` is the mechanism registry to degrade through;
    /// null builds and owns the legacy preset
    /// (WearoutConfig::legacy_preset()), the single power-law knob.
    LifetimeSimulator(const Netlist& netlist, const DelayAnnotation& base,
                      Time clock_period, AgingModel model,
                      std::uint64_t seed = 1, StaEngine* engine = nullptr,
                      const WearoutModel* wearout = nullptr);

    void add_defect(MarginalDefect defect) {
        degradation_.add_defect(defect);
    }

    /// The device's degradation state at `years` (aging factors plus
    /// defect extras) as a composable delta on the base annotation.
    [[nodiscard]] DelayDelta degradation_delta(double years) const;

    /// Degraded annotation at `years` (base transformed by the delta).
    [[nodiscard]] DelayAnnotation degraded(double years) const;

    /// Evaluates monitors at `years`: a configuration alerts when the
    /// latest monitored transition violates its guard band, i.e.
    /// worst monitored arrival > clk - d_c.
    [[nodiscard]] LifetimePoint evaluate(double years,
                                         const MonitorPlacement& placement) const;

    /// Allocation-free variant for tight grid loops: overwrites `out`
    /// (reusing its alerts buffer) with the state at `years`.  The
    /// campaign rollout reuses one point across a device's whole grid.
    void evaluate_into(double years, const MonitorPlacement& placement,
                       LifetimePoint& out) const;

    [[nodiscard]] std::vector<LifetimePoint> sweep(
        std::span<const double> years,
        const MonitorPlacement& placement) const;

    /// First time (on the given grid) each configuration alerts;
    /// -1 if it never does.  Index 0 (off) never alerts.
    [[nodiscard]] std::vector<double> first_alert_years(
        std::span<const double> years,
        const MonitorPlacement& placement) const;

    [[nodiscard]] Time clock_period() const { return clock_period_; }
    [[nodiscard]] const DeviceDegradation& degradation() const {
        return degradation_;
    }

private:
    StaEngine& engine() const;

    const Netlist* netlist_;
    const DelayAnnotation* base_;
    Time clock_period_;
    DeviceDegradation degradation_;
    /// Engine shared by the caller (campaign worker shard), or lazily
    /// owned.  Mutated from const evaluate(): the simulator is
    /// logically const but caches timing state; not thread-safe per
    /// instance (each campaign worker owns its simulators).
    StaEngine* shared_engine_ = nullptr;
    mutable std::unique_ptr<StaEngine> owned_engine_;
    /// The legacy preset, when the caller passed no registry.
    std::unique_ptr<WearoutModel> owned_wearout_;
    mutable DelayDelta scratch_delta_;
};

}  // namespace fastmon
