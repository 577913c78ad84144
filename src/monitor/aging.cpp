#include "monitor/aging.hpp"

#include <algorithm>
#include <cmath>

#include "util/prng.hpp"

namespace fastmon {

double AgingModel::factor(double years) const {
    // Anchored at exactly 1.0 for years <= 0 (and NaN, via the negated
    // comparison): pow() of a negative ratio is NaN and pow(0, n) is 1
    // or inf for n <= 0 — none of which a phase boundary at t = 0
    // should ever observe.
    if (!(years > 0.0)) return 1.0;
    return 1.0 + amplitude * std::pow(years / t_ref_years, exponent);
}

Time MarginalDefect::delta_at(double years) const {
    if (delta0 <= 0.0) return 0.0;
    const double exponent = growth_per_year * std::max(years, 0.0);
    if (delta_max > 0.0) {
        // Saturation test in the log domain: exp() at a multi-century
        // horizon overflows to inf long before std::min() could clamp.
        if (exponent >= std::log(delta_max / delta0)) return delta_max;
        return delta0 * std::exp(exponent);
    }
    // Unbounded defect: cap the magnification so extreme horizons
    // saturate at a huge finite delay instead of overflowing to inf.
    constexpr double kMaxLogMagnification = 600.0;  // e^600 ~ 3.8e260
    return delta0 * std::exp(std::min(exponent, kMaxLogMagnification));
}

Json LifetimePoint::to_json() const {
    Json j = Json::object();
    j.set("years", years);
    j.set("worst_monitored_arrival", worst_monitored_arrival);
    j.set("worst_arrival", worst_arrival);
    Json a = Json::array();
    for (bool alert : alerts) a.push_back(alert);
    j.set("alerts", std::move(a));
    j.set("timing_failure", timing_failure);
    return j;
}

std::optional<LifetimePoint> LifetimePoint::from_json(const Json& j) {
    if (!j.is_object()) return std::nullopt;
    const Json* years = j.find("years");
    const Json* monitored = j.find("worst_monitored_arrival");
    const Json* worst = j.find("worst_arrival");
    const Json* alerts = j.find("alerts");
    const Json* failure = j.find("timing_failure");
    if (!years || !years->is_number() || !monitored ||
        !monitored->is_number() || !worst || !worst->is_number() ||
        !alerts || !alerts->is_array() || !failure || !failure->is_bool()) {
        return std::nullopt;
    }
    LifetimePoint point;
    point.years = years->as_number();
    point.worst_monitored_arrival = monitored->as_number();
    point.worst_arrival = worst->as_number();
    for (const Json& a : alerts->as_array()) {
        if (!a.is_bool()) return std::nullopt;
        point.alerts.push_back(a.as_bool());
    }
    point.timing_failure = failure->as_bool();
    return point;
}

void DeviceDegradation::reset(const Netlist& netlist, AgingModel model,
                              std::uint64_t seed,
                              const WearoutModel& wearout) {
    model_ = model;
    wearout_ = &wearout;
    defects_.clear();
    // Per-gate aging-rate jitter: gates with high switching activity
    // (HCI) or high duty cycle (BTI) degrade faster; modelled as a
    // uniform +-50 % spread around the nominal rate.  Every gate draws,
    // combinational or not, so the stream position is the gate id.
    Prng rng(seed ^ 0xA61713ULL);
    comb_gates_.clear();
    jitter_.clear();
    for (GateId id = 0; id < netlist.size(); ++id) {
        const double u = rng.uniform(0.5, 1.5);
        if (is_combinational(netlist.gate(id).type)) {
            comb_gates_.push_back(id);
            jitter_.push_back(u);
        }
    }
    // Pack mechanism stress in comb-gate order on top of the jitter (so
    // a constant activity profile degenerates to exactly the jitter,
    // and waveform-derived stress rides on it).
    const std::size_t n = comb_gates_.size();
    const std::size_t num_mechs = wearout.num_mechanisms();
    mech_stress_.resize(num_mechs * n);
    mech_stress_sum_.assign(num_mechs, 0.0);
    coef_.resize(num_mechs);
    for (std::size_t m = 0; m < num_mechs; ++m) {
        const std::vector<double>& gate_stress = wearout.gate_stress(m);
        double sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double s = gate_stress[comb_gates_[i]] * jitter_[i];
            mech_stress_[m * n + i] = s;
            sum += s;
        }
        mech_stress_sum_[m] = sum;
    }
    wearout.device_scales(seed, device_scale_);
}

double DeviceDegradation::mechanism_coefficient(std::size_t m,
                                                double years) const {
    const MechanismConfig& cfg = wearout_->mechanism(m);
    const double tau = wearout_->equivalent_years(m, years);
    if (!(tau > 0.0)) return 0.0;
    if (cfg.kind == MechanismKind::LegacyPowerLaw) {
        // The legacy knob rides the device's sampled AgingModel; the
        // coefficient is factor - 1 (not A * (tau / t_ref)^n), the
        // rounding the closed form 1 + (factor - 1) * jitter pins.
        return model_.factor(tau) - 1.0;
    }
    return cfg.amplitude * device_scale_[m] * cfg.stress_integral(tau);
}

void DeviceDegradation::fill_delta(double years, DelayDelta& delta) const {
    const std::size_t n = comb_gates_.size();
    const std::size_t num_mechs = coef_.size();
    for (std::size_t m = 0; m < num_mechs; ++m) {
        coef_[m] = mechanism_coefficient(m, years);
    }
    // In-place refresh instead of clear() + push_back: the scale list's
    // shape (every combinational gate, ascending) is fixed per device
    // and this runs once per lane per grid year in the campaign hot
    // path.  Mechanism-outer: the scale slots hold the partial sums,
    // adding contributions in registry order (DESIGN.md section 12),
    // and the last pass forms 1 + sum — a unit-stride inner loop per
    // mechanism with the same additions, in the same order, as a
    // per-gate sum.  The registry is never empty (resolved_mechanisms
    // falls back to the default set), so the last pass always runs.
    delta.scales.resize(n);
    DelayDelta::GateScale* const scales = delta.scales.data();
    for (std::size_t m = 0; m < num_mechs; ++m) {
        const double c = coef_[m];
        const double* const stress = mech_stress_.data() + m * n;
        const bool first = m == 0;
        const bool last = m + 1 == num_mechs;
        for (std::size_t i = 0; i < n; ++i) {
            const double sum =
                (first ? 0.0 : scales[i].factor) + c * stress[i];
            scales[i] = {comb_gates_[i], last ? 1.0 + sum : sum};
        }
    }
    append_defects(years, delta);
}

const char* DeviceDegradation::dominant_mechanism(double years,
                                                  double* share) const {
    if (share) *share = 0.0;
    if (!wearout_->config().enabled) return nullptr;
    const std::size_t num_mechs = wearout_->num_mechanisms();
    double total = 0.0;
    double best = 0.0;
    std::size_t best_m = num_mechs;
    for (std::size_t m = 0; m < num_mechs; ++m) {
        // Total-delay attribution: coefficient x summed gate stress is
        // each mechanism's aggregate contribution to the device's
        // degradation at `years`.
        const double w = mechanism_coefficient(m, years) *
                         mech_stress_sum_[m];
        total += w;
        if (w > best) {
            best = w;
            best_m = m;
        }
    }
    if (best_m == num_mechs || !(total > 0.0)) return nullptr;
    if (share) *share = best / total;
    return mechanism_name(wearout_->mechanism(best_m).kind);
}

void DeviceDegradation::append_defects(double years,
                                       DelayDelta& delta) const {
    delta.extras.clear();
    for (const MarginalDefect& defect : defects_) {
        const Time extra = defect.delta_at(years);
        if (extra <= 0.0) continue;
        const std::uint32_t pin = defect.site.pin == FaultSite::kOutputPin
                                      ? DelayDelta::kAllPins
                                      : defect.site.pin;
        delta.add(defect.site.gate, pin, extra);
    }
}

LifetimeSimulator::LifetimeSimulator(const Netlist& netlist,
                                     const DelayAnnotation& base,
                                     Time clock_period, AgingModel model,
                                     std::uint64_t seed, StaEngine* engine,
                                     const WearoutModel* wearout)
    : netlist_(&netlist),
      base_(&base),
      clock_period_(clock_period),
      shared_engine_(engine) {
    if (!wearout) {
        owned_wearout_ = std::make_unique<WearoutModel>(
            netlist, base, WearoutConfig::legacy_preset());
        wearout = owned_wearout_.get();
    }
    degradation_.reset(netlist, model, seed, *wearout);
    if (shared_engine_) shared_engine_->rebase(base);
}

StaEngine& LifetimeSimulator::engine() const {
    if (shared_engine_) return *shared_engine_;
    if (!owned_engine_) {
        // Monitor evaluation needs only arrival times; skip the
        // backward/path passes entirely.
        owned_engine_ = std::make_unique<StaEngine>(
            *netlist_, *base_, 1.0, StaEngine::Scope::Arrivals);
    }
    return *owned_engine_;
}

DelayDelta LifetimeSimulator::degradation_delta(double years) const {
    DelayDelta delta;
    degradation_.fill_delta(years, delta);
    return delta;
}

DelayAnnotation LifetimeSimulator::degraded(double years) const {
    degradation_.fill_delta(years, scratch_delta_);
    return base_->transformed(scratch_delta_);
}

LifetimePoint LifetimeSimulator::evaluate(
    double years, const MonitorPlacement& placement) const {
    LifetimePoint point;
    evaluate_into(years, placement, point);
    return point;
}

void LifetimeSimulator::evaluate_into(double years,
                                      const MonitorPlacement& placement,
                                      LifetimePoint& out) const {
    degradation_.fill_delta(years, scratch_delta_);
    const StaResult& sta = engine().update(scratch_delta_);

    out.years = years;
    out.worst_monitored_arrival = 0.0;
    out.worst_arrival = 0.0;
    const auto ops = netlist_->observe_points();
    for (std::uint32_t oi = 0; oi < ops.size(); ++oi) {
        const Time arrival = sta.max_arrival[ops[oi].signal];
        out.worst_arrival = std::max(out.worst_arrival, arrival);
        if (oi < placement.monitored.size() && placement.monitored[oi]) {
            out.worst_monitored_arrival =
                std::max(out.worst_monitored_arrival, arrival);
        }
    }
    out.alerts.assign(placement.config_delays.size(), false);
    for (std::size_t c = 1; c < placement.config_delays.size(); ++c) {
        // Guard-band check: the latest monitored transition falls inside
        // the detection window (clk - d, clk].
        out.alerts[c] = out.worst_monitored_arrival >
                        clock_period_ - placement.config_delays[c];
    }
    out.timing_failure = out.worst_arrival > clock_period_;
}

std::vector<LifetimePoint> LifetimeSimulator::sweep(
    std::span<const double> years, const MonitorPlacement& placement) const {
    std::vector<LifetimePoint> points;
    points.reserve(years.size());
    for (double y : years) points.push_back(evaluate(y, placement));
    return points;
}

std::vector<double> LifetimeSimulator::first_alert_years(
    std::span<const double> years, const MonitorPlacement& placement) const {
    std::vector<double> first(placement.config_delays.size(), -1.0);
    for (const LifetimePoint& p : sweep(years, placement)) {
        for (std::size_t c = 0; c < p.alerts.size(); ++c) {
            if (p.alerts[c] && first[c] < 0.0) first[c] = p.years;
        }
    }
    return first;
}

}  // namespace fastmon
