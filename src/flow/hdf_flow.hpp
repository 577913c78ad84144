// End-to-end hidden-delay-fault test flow (Fig. 4 of the paper).
//
//   (1) topological/timing analysis -> at-speed detectable and timing
//       redundant faults removed;
//   (2) timing-accurate fault simulation of the remaining candidates;
//   (3) detection ranges per fault (standard FFs and monitor SRs);
//   (4) monitor configuration analysis (range shifting);
//   (5) target fault set (monitor-at-speed detectable faults removed);
//   (6) test schedule optimization (frequencies, then pattern x config).
//
// HdfFlow owns the heavy artifacts (STA, monitor placement, ATPG test
// set, detection ranges) after prepare(); run() produces every quantity
// of the paper's Fig. 3 and Tables I-III for this circuit.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "atpg/tdf_atpg.hpp"
#include "fault/classify.hpp"
#include "fault/detection_range.hpp"
#include "flow/flow_status.hpp"
#include "monitor/placement.hpp"
#include "monitor/shifting.hpp"
#include "schedule/pattern_config_select.hpp"
#include "timing/sta.hpp"
#include "util/manifest.hpp"

namespace fastmon {

struct HdfFlowConfig {
    double fmax_factor = 3.0;        ///< f_max = 3 * f_nom [9-11]
    double clock_margin = 1.05;      ///< clk = 1.05 * cpl (Sec. V)
    double monitor_fraction = 0.25;  ///< monitors at 25 % of PPOs
    std::vector<double> monitor_delay_fractions = {0.05, 0.10, 0.15,
                                                   1.0 / 3.0};
    double delta_factor = 1.2;       ///< delta = 6 sigma = 6*0.2*nominal
    double variation_sigma = 0.0;    ///< per-gate delay variation of the instance
    std::uint64_t seed = 1;
    AtpgConfig atpg;
    /// Optional externally supplied test set (skips ATPG when set).
    std::optional<TestSet> test_set;
    /// Stratified cap on simulated candidate faults (0 = all); used by
    /// benches on the largest profiles, always reported.
    std::size_t max_simulated_faults = 0;
    WaveSimConfig wave;
    /// Detection-interval pulse-filtering threshold (Sec. II-A);
    /// negative = use the annotation default (smallest library delay),
    /// 0 disables filtering.
    Time glitch_threshold = -1.0;
    DiscretizeOptions discretize;
    SetCoverOptions solver;
    /// Coverage targets of Table III.
    std::vector<double> coverage_targets = {0.99, 0.98, 0.95, 0.90};
    /// Simulation lanes of the detection engine: 0 = one per hardware
    /// thread (shared pool), 1 = serial, n >= 2 = dedicated pool.
    std::size_t num_threads = 0;
    /// When non-empty, the flow atomically rewrites a manifest snapshot
    /// at this path after every phase, so a run killed by a deadline or
    /// signal always leaves the last complete snapshot behind.
    std::string manifest_path;
};

/// One point of the Fig. 3 coverage-versus-f_max curve.
struct CoverageBySpeed {
    double fmax_factor = 1.0;
    double conv = 0.0;  ///< HDF coverage, conventional FAST
    double prop = 0.0;  ///< HDF coverage with programmable monitors

    [[nodiscard]] Json to_json() const;
    static std::optional<CoverageBySpeed> from_json(const Json& j);

    friend bool operator==(const CoverageBySpeed&,
                           const CoverageBySpeed&) = default;
};

/// One row of Table III.
struct CoverageRow {
    double coverage = 1.0;
    std::size_t num_frequencies = 0;  ///< |F_cov|
    std::size_t naive_pc = 0;         ///< |PC_cov| = |P| x |C| x |F_cov|
    std::size_t schedule_size = 0;    ///< |S_cov|
    double reduction_percent = 0.0;

    [[nodiscard]] Json to_json() const;
    static std::optional<CoverageRow> from_json(const Json& j);

    friend bool operator==(const CoverageRow&, const CoverageRow&) = default;
};

struct HdfFlowResult {
    std::string circuit;
    // --- circuit statistics (Table I, cols 1-5) ---
    std::size_t num_gates = 0;
    std::size_t num_ffs = 0;
    std::size_t num_patterns = 0;
    std::size_t num_monitors = 0;
    // --- fault accounting ---
    std::size_t fault_universe = 0;
    std::size_t at_speed_detectable = 0;
    std::size_t timing_redundant = 0;
    std::size_t candidate_faults = 0;
    std::size_t simulated_faults = 0;  ///< after sampling
    // --- Table I, cols 6-9 (scaled to the full universe if sampled) ---
    std::size_t detected_conv = 0;
    std::size_t detected_prop = 0;
    double gain_percent = 0.0;
    std::size_t monitor_at_speed = 0;
    std::size_t target_faults = 0;
    // --- Table II ---
    std::size_t freq_conv = 0;
    std::size_t freq_heur = 0;
    std::size_t freq_prop = 0;
    double freq_reduction_percent = 0.0;
    std::size_t orig_pc = 0;
    std::size_t opti_pc = 0;
    double pc_reduction_percent = 0.0;
    bool schedule_proven_optimal = false;
    /// Lower bound on opti_pc (PatternConfigResult::lower_bound).
    std::size_t schedule_lower_bound = 0;
    std::size_t schedule_uncovered = 0;
    // --- Table III ---
    std::vector<CoverageRow> coverage_rows;
    // --- timing metadata ---
    Time clock_period = 0.0;
    Time t_min = 0.0;
    double atpg_coverage = 0.0;
    // --- engine counters (pass A; pass B adds only table_seconds) ---
    DetectionCounters detection;
    // --- observability ---
    /// Wall/CPU time per flow phase, in execution order (prepare()
    /// phases first, then run() phases).
    std::vector<PhaseTime> phases;
    /// Wall clock of prepare() + run() together.
    double total_wall_seconds = 0.0;
    /// Per-phase outcomes and cancellation record.  status.complete()
    /// distinguishes a full run from a degraded (partial) one.
    FlowStatus status;

    /// "optimal" when the schedule is proven optimal, else
    /// "<opti_pc - schedule_lower_bound> above bound".
    [[nodiscard]] std::string schedule_optimality() const;
};

class HdfFlow {
public:
    HdfFlow(const Netlist& netlist, HdfFlowConfig config);
    /// The flow keeps a pointer to `netlist`; a temporary would dangle.
    HdfFlow(Netlist&& netlist, HdfFlowConfig config) = delete;

    /// Heavy phase: STA, monitor placement, ATPG (unless a test set was
    /// supplied), fault universe + structural classification, pass-A
    /// detection analysis.  Idempotent.
    void prepare();

    /// Fig. 3: HDF coverage over maximum-test-frequency factors.
    [[nodiscard]] std::vector<CoverageBySpeed> coverage_curve(
        std::span<const double> fmax_factors) const;

    /// Full pipeline; calls prepare() if needed.
    [[nodiscard]] HdfFlowResult run();

    // --- artifact access (after prepare()) ---
    [[nodiscard]] const Netlist& netlist() const { return *netlist_; }
    [[nodiscard]] const HdfFlowConfig& config() const { return config_; }
    [[nodiscard]] const StaResult& sta() const { return sta_; }
    [[nodiscard]] const MonitorPlacement& placement() const { return placement_; }
    [[nodiscard]] const TestSet& patterns() const { return test_set_; }
    [[nodiscard]] const FaultUniverse& universe() const { return universe_; }
    [[nodiscard]] const DelayAnnotation& delays() const { return *delays_; }
    /// Simulated fault ids (after structural filtering and sampling).
    [[nodiscard]] std::span<const FaultId> simulated_faults() const {
        return simulated_;
    }
    /// Pass-A ranges, parallel to simulated_faults().
    [[nodiscard]] std::span<const FaultRanges> ranges() const { return ranges_; }
    /// Full (FF U shifted SR) range of the i-th simulated fault,
    /// clipped to the FAST window.
    [[nodiscard]] IntervalSet full_range_in_window(std::size_t i) const;
    /// FF-only range clipped to the FAST window.
    [[nodiscard]] IntervalSet ff_range_in_window(std::size_t i) const;
    /// Target fault positions (indices into simulated_faults()).
    [[nodiscard]] std::span<const std::uint32_t> target_positions() const {
        return targets_;
    }
    /// Detection-engine work counters accumulated over prepare()/run().
    [[nodiscard]] const DetectionCounters& detection_counters() const {
        return detect_counters_;
    }
    /// Per-phase outcomes recorded so far (prepare() + run()).
    [[nodiscard]] const FlowStatus& status() const { return status_; }

    /// Assembles the run manifest for a finished run(): tool/git info,
    /// flow config, circuit statistics, per-phase times, and a snapshot
    /// of the global metrics registry (detection counters and pool
    /// stats included).
    [[nodiscard]] RunManifest manifest(const HdfFlowResult& result) const;

private:
    [[nodiscard]] Interval window_for(double fmax_factor) const;

    /// Runs one flow phase under the degradation policy: the phase body
    /// may mark its own status Degraded; thrown CancelledError degrades,
    /// any other exception fails the phase — fatally (FlowError) when
    /// `essential`, recorded-and-continued otherwise.  Returns false when
    /// the phase did not complete Ok/Degraded (callers skip dependents).
    bool guarded_phase(std::vector<PhaseTime>& times, const char* name,
                       bool essential,
                       const std::function<void(PhaseStatus&)>& body);
    /// Records a phase that never ran because a dependency failed.
    void skip_phase(const char* name, std::string reason);
    /// Appends to status_ and flushes the manifest snapshot.
    void record_status(PhaseStatus st);
    /// Latches the global cancellation cause into status_.
    void note_cancelled();
    /// Atomically rewrites config_.manifest_path (no-op when empty).
    /// `outcome` overrides the status outcome ("running" mid-flow).
    void flush_manifest(const char* outcome) const;
    /// Config block shared by manifest() and the mid-flow snapshots.
    void fill_config(RunManifest& m) const;

    const Netlist* netlist_;
    HdfFlowConfig config_;
    bool prepared_ = false;

    std::optional<DelayAnnotation> delays_;
    StaResult sta_;
    MonitorPlacement placement_;
    TestSet test_set_;
    double atpg_coverage_ = 0.0;
    FaultUniverse universe_;
    StructuralClassification structural_;
    std::vector<FaultId> simulated_;
    std::vector<FaultRanges> ranges_;
    std::vector<std::uint32_t> targets_;
    double sample_scale_ = 1.0;
    DetectionCounters detect_counters_;
    std::vector<PhaseTime> phases_;       ///< recorded during prepare()
    double prepare_wall_seconds_ = 0.0;
    FlowStatus status_;
    /// run()'s phase-time list while run() is active, for snapshots.
    std::vector<PhaseTime>* active_run_phases_ = nullptr;
};

}  // namespace fastmon
