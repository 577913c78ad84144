// Per-device campaign rollout.
//
// One device = one process-variation annotation + one aging trajectory
// + (for marginal devices) a set of growing early-life defects, rolled
// through the monitor guard-band lifetime simulation on the campaign's
// shared year grid.  The outcome records the FAST-style screen
// signature (which guard bands alert inside the burn-in window, and
// when), the full first-alert ladder, and the failure year — everything
// the aggregator needs, in a JSON-round-trippable form so outcomes can
// be checkpointed and resumed.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "campaign/population.hpp"
#include "monitor/aging.hpp"
#include "monitor/placement.hpp"
#include "timing/batch_sta_engine.hpp"
#include "timing/sta_engine.hpp"
#include "util/json.hpp"

namespace fastmon {

/// Shared, immutable inputs of every device rollout: design-time
/// artifacts (circuit, monitor placement, deployed clock) plus the
/// campaign's evaluation grid.
struct RolloutContext {
    const Netlist* netlist = nullptr;
    const MonitorPlacement* placement = nullptr;
    Time clock_period = 0.0;
    /// Lifetime evaluation grid in years (ascending, starts at 0).
    std::vector<double> grid;
    /// Burn-in screen window [0, screen_years]: alerts inside it form
    /// the manufacturing-time prediction signature.
    double screen_years = 0.5;
    /// Per-gate lognormal process-variation sigma (VariationModel).
    double variation_sigma_log = 0.05;
    /// Wear-out mechanism registry every device degrades through:
    /// the mission-profile model, or the legacy preset
    /// (WearoutConfig::legacy_preset()) when wear-out is disabled.
    /// run_campaign always sets it; a rollout given null builds and
    /// owns the legacy preset itself.
    const WearoutModel* wearout = nullptr;
};

/// Everything measured on one rolled-out device.
struct DeviceOutcome {
    std::uint32_t index = 0;
    bool marginal = false;          ///< ground truth: carries a defect
    std::uint32_t num_defects = 0;
    double aging_amplitude = 0.0;   ///< sampled wear-out severity
    /// First alert year per monitor configuration (-1 = never); index 0
    /// (off) never alerts.
    std::vector<double> first_alert_years;
    double failure_years = -1.0;    ///< first grid year with a timing failure
    /// Monitored-arrival fraction of the clock at deployment (year 0).
    double margin_used_t0 = 0.0;
    /// Prediction score from the burn-in screen: sum over guard bands
    /// alerting inside the screen window of (1 + earliness); 0 = clean
    /// screen.  Higher = stronger early-life signature.
    double screen_score = 0.0;
    /// Wear-out attribution (mission-profile campaigns only): the
    /// mechanism contributing the most delay degradation at the
    /// failure year (or the horizon for survivors) and its share of
    /// the total.  Empty when wear-out is off — the JSON keys are
    /// omitted then, keeping legacy artifacts byte-identical.
    std::string dominant_mechanism;
    double dominant_share = 0.0;

    /// Early warning between the widest band's first alert and the
    /// failure (-1 when either never happened).
    [[nodiscard]] double lead_time_years() const;
    /// Same for the narrowest (imminent-failure) band.
    [[nodiscard]] double imminent_lead_time_years() const;

    [[nodiscard]] Json to_json() const;
    static std::optional<DeviceOutcome> from_json(const Json& j);

    friend bool operator==(const DeviceOutcome&,
                           const DeviceOutcome&) = default;
};

/// Builds the uniform year grid [0, horizon] with `step` spacing.
/// Throws a Diagnostic ("campaign" source) on a non-finite or negative
/// horizon, a non-finite or non-positive step, or a step larger than a
/// positive horizon.
std::vector<double> make_year_grid(double horizon_years, double step_years);

/// Rolls one sampled device through its lifetime.  `engine_scratch`
/// (optional) is a worker-local STA engine slot: the first device
/// constructs it, later devices rebase it — so arenas persist across a
/// whole shard.
DeviceOutcome roll_device(const RolloutContext& ctx,
                          const DeviceSample& sample,
                          std::unique_ptr<StaEngine>* engine_scratch = nullptr);

/// Rolls devices through the lifetime grid in lockstep batches of up
/// to BatchStaEngine::width() lanes: one shared topological pass per
/// grid year serves the whole batch, lanes are loaded directly from
/// each device's variation factors (no per-device DelayAnnotation),
/// and a lane whose outcome is fully recorded (failure year and every
/// guard band's first alert) retires early without draining the rest.
/// Outcomes are bit-identical to roll_device on the same samples —
/// the batched campaign differential asserts exactly that.
///
/// One BatchRollout per worker shard; not thread-safe per instance.
class BatchRollout {
public:
    struct Stats {
        std::uint64_t batches = 0;
        std::uint64_t devices = 0;
        /// Lane-years actually evaluated (vs. grid.size() * devices
        /// for the scalar path; the gap is early-retirement savings).
        std::uint64_t lane_years = 0;
        std::uint64_t lanes_settled_early = 0;
    };

    explicit BatchRollout(const RolloutContext& ctx);

    /// Rolls samples[i] into outcomes[i].  samples.size() must be in
    /// [1, width()]; a ragged final batch simply leaves the trailing
    /// lanes retired.
    void roll(std::span<const DeviceSample> samples,
              std::span<DeviceOutcome> outcomes);

    [[nodiscard]] static constexpr std::size_t width() {
        return BatchStaEngine::width();
    }
    [[nodiscard]] const Stats& stats() const { return stats_; }
    [[nodiscard]] const BatchStaEngine::Stats& engine_stats() const {
        return engine_.stats();
    }

private:
    const RolloutContext* ctx_;
    /// Campaign-nominal base shared by every lane; lanes scale it by
    /// their device's variation factors at load time.
    DelayAnnotation nominal_;
    BatchStaEngine engine_;
    /// The legacy preset, when the context carries no registry.
    std::unique_ptr<WearoutModel> owned_wearout_;
    const WearoutModel* wearout_;
    std::array<DeviceDegradation, kBatchWidth> degradation_;
    std::array<DelayDelta, kBatchWidth> lane_delta_;
    std::array<std::uint8_t, kBatchWidth> settled_{};
    BatchDelayDelta batch_delta_;
    std::vector<double> factors_;  ///< per-gate scratch, reused per lane
    /// Monitored observe-point signals in op order — evaluate_into's
    /// monitored reduction, with the branch hoisted out of the loop.
    std::vector<GateId> monitored_signals_;
    Stats stats_;
};

}  // namespace fastmon
