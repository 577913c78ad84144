#include "wearout/wearout.hpp"

#include <cmath>
#include <cstdio>

#include "util/prng.hpp"

namespace fastmon {

namespace {

/// Stream tag of the per-device Weibull severity draws (offset by the
/// mechanism index).  Distinct from the population stream (0xDEC1CE)
/// and the per-gate jitter seed xor (0xA61713), so enabling wear-out
/// leaves every legacy draw untouched.
constexpr std::uint64_t kWeibullStreamTag = 0x3EA512B0ULL;

void append_number(std::string& out, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g;", v);
    out += buf;
}

void append_point(std::string& out, const OperatingPoint& op) {
    append_number(out, op.temperature_c);
    append_number(out, op.vdd);
    append_number(out, op.frequency_ghz);
    append_number(out, op.duty_cycle);
}

}  // namespace

WearoutConfig WearoutConfig::legacy_preset() {
    WearoutConfig preset;
    preset.mechanisms = {
        MechanismConfig::defaults(MechanismKind::LegacyPowerLaw)};
    preset.activity.mode = ActivityConfig::Mode::Constant;
    return preset;
}

std::vector<MechanismConfig> WearoutConfig::resolved_mechanisms() const {
    if (!mechanisms.empty()) return mechanisms;
    std::vector<MechanismConfig> defaults;
    for (const MechanismKind kind :
         {MechanismKind::LegacyPowerLaw, MechanismKind::Nbti,
          MechanismKind::Hci, MechanismKind::Em, MechanismKind::Tddb}) {
        defaults.push_back(MechanismConfig::defaults(kind));
    }
    return defaults;
}

void WearoutConfig::append_canonical(std::string& out) const {
    out += "wearout;";
    out += mission.name;
    out += ';';
    append_number(out, mission.cycle ? 1.0 : 0.0);
    for (const MissionPhase& phase : mission.phases) {
        out += phase.name;
        out += ';';
        append_number(out, phase.duration_years);
        append_point(out, phase.op);
    }
    for (const MechanismConfig& m : resolved_mechanisms()) {
        out += mechanism_name(m.kind);
        out += ';';
        append_number(out, m.amplitude);
        append_number(out, m.time_exponent);
        append_number(out, m.t_ref_years);
        append_number(out, m.ea_ev);
        append_number(out, m.voltage_gamma);
        append_number(out, m.weibull_beta);
    }
    out += activity.mode == ActivityConfig::Mode::Waveform ? "waveform;"
                                                           : "constant;";
    append_number(out, static_cast<double>(activity.num_pattern_pairs));
    append_number(out, static_cast<double>(activity.seed));
    append_point(out, reference);
}

WearoutModel::WearoutModel(const Netlist& netlist,
                           const DelayAnnotation& nominal,
                           const WearoutConfig& config)
    : config_(config),
      mechanisms_(config.resolved_mechanisms()),
      activity_(extract_activity(netlist, nominal, config.activity)) {
    const std::size_t num_phases = config_.mission.phases.size();
    phase_rates_.resize(mechanisms_.size() * num_phases);
    weibull_norm_.resize(mechanisms_.size());
    for (std::size_t m = 0; m < mechanisms_.size(); ++m) {
        for (std::size_t p = 0; p < num_phases; ++p) {
            phase_rates_[m * num_phases + p] = mechanisms_[m].rate(
                config_.mission.phases[p].op, config_.reference);
        }
        weibull_norm_[m] =
            1.0 / std::tgamma(1.0 + 1.0 / mechanisms_[m].weibull_beta);
    }
}

double WearoutModel::equivalent_years(std::size_t m, double years) const {
    const std::size_t num_phases = config_.mission.phases.size();
    if (num_phases == 0) return years > 0.0 ? years : 0.0;
    return config_.mission.equivalent_years(
        years, std::span<const double>(
                   phase_rates_.data() + m * num_phases, num_phases));
}

const std::vector<double>& WearoutModel::gate_stress(std::size_t m) const {
    return mechanisms_[m].stress_kind() == StressKind::Toggle
               ? activity_.toggle_rate
               : activity_.static_prob;
}

void WearoutModel::device_scales(std::uint64_t device_seed,
                                 std::vector<double>& out) const {
    out.resize(mechanisms_.size());
    for (std::size_t m = 0; m < mechanisms_.size(); ++m) {
        if (mechanisms_[m].kind == MechanismKind::LegacyPowerLaw) {
            out[m] = 1.0;
            continue;
        }
        // Mean-one Weibull via inverse CDF: one substream per
        // (device, mechanism), so the draw is independent of mechanism
        // order elsewhere and of every pre-existing stream.
        Prng rng = Prng::stream(device_seed, kWeibullStreamTag + m);
        const double u = rng.next_double();
        out[m] = std::pow(-std::log1p(-u),
                          1.0 / mechanisms_[m].weibull_beta) *
                 weibull_norm_[m];
    }
}

Json WearoutModel::to_json() const {
    Json j = Json::object();
    j.set("mission", config_.mission.to_json());
    j.set("reference", config_.reference.to_json());
    j.set("activity", config_.activity.to_json());
    Json mechs = Json::array();
    for (const MechanismConfig& m : mechanisms_) {
        mechs.push_back(m.to_json());
    }
    j.set("mechanisms", std::move(mechs));
    return j;
}

}  // namespace fastmon
