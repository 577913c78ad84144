// Wear-out model: mechanisms x mission x per-gate activity, resolved
// once per campaign.
//
// The WearoutModel is the immutable design-time artifact the rollout
// shares across every device: the resolved mechanism registry, each
// mechanism's per-phase stress rate under the mission profile, the
// activity-derived per-gate stress factors, and the Weibull severity
// normalization.  Per-device state (severity scales, jittered stress
// packing) lives in DeviceDegradation, which composes all mechanism
// contributions into the one DelayDelta both the scalar and the
// batched rollout evaluate — the bit-identity contract is unchanged.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "timing/delay_model.hpp"
#include "util/json.hpp"
#include "wearout/activity.hpp"
#include "wearout/mechanism.hpp"
#include "wearout/mission.hpp"

namespace fastmon {

struct WearoutConfig {
    /// Off by default: the campaign degrades through legacy_preset()
    /// instead of this config, and neither joins the fingerprint nor
    /// the report, preserving seed-state outputs bit-for-bit.  Also
    /// gates the per-device dominant-mechanism attribution, which the
    /// model reads off its config.
    bool enabled = false;
    /// Resolved mission profile (the CLI resolves --mission-profile
    /// before run_campaign so the canonical string never does file
    /// I/O).  An empty phase list means reference conditions forever.
    MissionProfile mission;
    /// Mechanism registry; empty selects the default set: the legacy
    /// power-law knob plus NBTI / HCI / EM / TDDB at their calibrated
    /// defaults.
    std::vector<MechanismConfig> mechanisms;
    ActivityConfig activity;
    /// Stress reference all mechanism rates are relative to.
    OperatingPoint reference;

    /// The legacy single-knob aging as a registry: only the
    /// legacy_powerlaw mechanism, Constant activity and an empty
    /// mission (reference conditions forever), left disabled.  Its fill
    /// is 1 + (AgingModel::factor(t) - 1) * jitter per gate — the
    /// pre-registry degradation, bit-for-bit.
    [[nodiscard]] static WearoutConfig legacy_preset();

    /// The registry with the empty-means-default rule applied.
    [[nodiscard]] std::vector<MechanismConfig> resolved_mechanisms() const;

    /// Appends every fingerprint-relevant field to the campaign
    /// canonical string (called only when enabled, so legacy
    /// fingerprints — and their checkpoints — stay valid).
    void append_canonical(std::string& out) const;

    friend bool operator==(const WearoutConfig&,
                           const WearoutConfig&) = default;
};

class WearoutModel {
public:
    /// Resolves the config against a design: characterizes activity on
    /// the nominal annotation and precomputes per-mechanism per-phase
    /// stress rates.  Keeps no reference to `nominal`.
    WearoutModel(const Netlist& netlist, const DelayAnnotation& nominal,
                 const WearoutConfig& config);

    [[nodiscard]] std::size_t num_mechanisms() const {
        return mechanisms_.size();
    }
    [[nodiscard]] const MechanismConfig& mechanism(std::size_t m) const {
        return mechanisms_[m];
    }
    [[nodiscard]] const WearoutConfig& config() const { return config_; }

    /// Equivalent stress time of mechanism `m` after `years` under the
    /// mission (== max(years, 0) for an empty mission).
    [[nodiscard]] double equivalent_years(std::size_t m, double years) const;

    /// Per-gate normalized stress of mechanism `m`, indexed by netlist
    /// gate id (toggle rate or static probability per its StressKind).
    [[nodiscard]] const std::vector<double>& gate_stress(
        std::size_t m) const;

    /// Per-device mean-one Weibull severity scales, one per mechanism,
    /// drawn from Prng::stream(device_seed, tag + m).  The legacy
    /// mechanism gets exactly 1.0 with no draw (its spread is the
    /// population's amplitude jitter), so enabling wear-out perturbs
    /// no existing random stream.
    void device_scales(std::uint64_t device_seed,
                       std::vector<double>& out) const;

    /// Report block: mission, reference, activity config, mechanisms.
    [[nodiscard]] Json to_json() const;

private:
    WearoutConfig config_;
    std::vector<MechanismConfig> mechanisms_;
    /// rate of mechanism m in phase p at [m * phases + p].
    std::vector<double> phase_rates_;
    /// 1 / Gamma(1 + 1/beta) per mechanism (mean-one normalization).
    std::vector<double> weibull_norm_;
    ActivityProfile activity_;
};

}  // namespace fastmon
