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
#include <functional>
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
    /// Lifetime evaluation grid in years (ascending, starts at 0,
    /// non-empty: make_year_grid always yields year 0).
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

/// Streams devices through the lifetime grid on a fixed number of
/// live lanes (at most BatchStaEngine::width()).  One shared
/// topological pass per step serves every lane, each lane at its own
/// grid year; lanes are loaded directly from each device's variation
/// factors (no per-device DelayAnnotation).  A lane whose outcome is fully
/// recorded (failure year and every guard band's first alert), or that
/// has evaluated the last grid year, is finished and handed to the
/// sink, then reloaded at once with the source's next device at grid
/// year 0 — a pass never carries a settled lane while devices remain.
/// Only the final drain, when the source is dry, runs fewer lanes.
/// Outcomes are bit-identical to roll_device on the same samples — the
/// batched campaign differential asserts exactly that.
///
/// One BatchRollout per worker shard; not thread-safe per instance.
class BatchRollout {
public:
    struct Stats {
        /// Kernel runs (roll() / stream() calls).
        std::uint64_t batches = 0;
        std::uint64_t devices = 0;
        /// Lane-years actually evaluated (vs. grid.size() * devices
        /// for the scalar path; the gap is early-settling savings).
        std::uint64_t lane_years = 0;
        /// Devices whose outcome completed before the final grid
        /// point, so at least one grid year was skipped.
        std::uint64_t lanes_settled_early = 0;
    };

    /// Device source: returns the next device and its sink slot (an
    /// opaque id handed back to Emit), or null when exhausted.  The
    /// sample only has to stay valid until the next call.
    using Pull = std::function<const DeviceSample*(std::size_t& slot)>;
    /// Outcome sink: receives each finished device with its slot, in
    /// completion order (not pull order); may move from `outcome`.
    using Emit = std::function<void(std::size_t slot, DeviceOutcome& outcome)>;

    /// `lanes` live lanes per pass, clamped to [1, width()].
    explicit BatchRollout(const RolloutContext& ctx,
                          std::size_t lanes = width());

    /// Rolls every device `pull` yields and emits its outcome; returns
    /// once the source is dry and every lane has drained.  A cancelled
    /// source just stops yielding: the devices already in flight (at
    /// most lanes - 1 besides the lane that found the source dry)
    /// still finish and are emitted, unless an STA pass observes the
    /// cancel first and throws CancelledError — then they are dropped
    /// unemitted, never half-recorded.
    void stream(const Pull& pull, const Emit& emit);

    /// Rolls samples[i] into outcomes[i] (any count >= 1): stream()
    /// over the span.
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
    /// Campaign-nominal base shared by every lane; the engine scales
    /// it by each lane's variation factors in every pass.
    DelayAnnotation nominal_;
    BatchStaEngine engine_;
    /// The legacy preset, when the context carries no registry.
    std::unique_ptr<WearoutModel> owned_wearout_;
    const WearoutModel* wearout_;
    std::size_t lanes_;
    /// Per-lane device state: degradation, delta scratch, the outcome
    /// being recorded, the next grid index, and the sink slot.
    std::array<DeviceDegradation, kBatchWidth> degradation_;
    std::array<DelayDelta, kBatchWidth> lane_delta_;
    std::array<DeviceOutcome, kBatchWidth> outcome_;
    std::array<std::size_t, kBatchWidth> year_{};
    std::array<std::size_t, kBatchWidth> slot_{};
    BatchDelayDelta batch_delta_;
    std::vector<double> factors_;  ///< per-gate scratch, reused per lane
    /// Monitored observe-point signals in op order — evaluate_into's
    /// monitored reduction, with the branch hoisted out of the loop.
    std::vector<GateId> monitored_signals_;
    Stats stats_;

    /// Loads `lane` with the source's next device; retires it and
    /// returns false once the source is dry.
    bool load_next(std::size_t lane, const Pull& pull);
};

}  // namespace fastmon
