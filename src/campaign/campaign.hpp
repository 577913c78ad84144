// Monte Carlo device-population campaign engine.
//
// Rolls a population of sampled virtual devices (process variation +
// wear-out spread + early-life defect incidence) through the monitor
// guard-band lifetime simulation, sharded across the persistent thread
// pool, and aggregates fleet-scale prediction quality: early-life-
// failure classification (ROC / precision-recall of the burn-in screen
// score), alert lead-time distributions, and wear-out percentile
// curves.
//
// Determinism contract: every device is a pure function of
// (campaign seed, device index) via Prng::stream, outcomes are
// aggregated in index order, and artifact JSON carries no timestamps —
// so a campaign is bit-identical across thread counts, and a campaign
// killed by SIGINT / FASTMON_DEADLINE and resumed from its checkpoint
// (a campaign-state artifact, campaign/shard.hpp) converges to the
// exact aggregate of an uninterrupted run.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "campaign/aggregate.hpp"
#include "campaign/population.hpp"
#include "campaign/rollout.hpp"
#include "flow/flow_status.hpp"
#include "util/manifest.hpp"
#include "wearout/wearout.hpp"

namespace fastmon {

struct CampaignConfig {
    std::size_t population = 100;
    std::uint64_t seed = 1;
    PopulationModel model;
    /// Deployed clock = margin * nominal critical path (deployed
    /// systems keep margin well beyond STA sign-off).
    double clock_margin = 1.6;
    /// Monitor insertion knobs (same defaults as the HDF flow /
    /// Sec. V of the paper).
    double monitor_fraction = 0.25;
    std::vector<double> monitor_delay_fractions = {0.05, 0.10, 0.15,
                                                   1.0 / 3.0};
    /// Lifetime evaluation grid.
    double horizon_years = 15.0;
    double step_years = 0.25;
    /// Burn-in screen window for the prediction signature.
    double screen_years = 0.5;
    AggregateConfig aggregate;
    /// Simulation lanes: 0 = shared pool (one per hardware thread),
    /// 1 = serial, n >= 2 = dedicated pool of n workers.
    std::size_t num_threads = 0;
    /// When non-empty, the campaign-state artifact (a ShardResult,
    /// campaign/shard.hpp) is atomically rewritten here every
    /// `checkpoint_every` devices and at exit: incomplete while the run
    /// is unfinished, this shard's mergeable result once it finishes.
    std::string checkpoint_path;
    std::size_t checkpoint_every = 64;
    /// Resume from an existing artifact at checkpoint_path (a damaged
    /// file or a fingerprint mismatch degrades to a fresh start,
    /// recorded in the status block).
    bool resume = false;
    /// Live lanes per batched STA pass (a settled lane takes the
    /// shard's next device at once).  0 = the engine's column width
    /// (kBatchWidth, 8).  1 = the scalar StaEngine per device (the
    /// reference path for the batched differential); larger values
    /// clamp to kBatchWidth.  Deliberately NOT part of the campaign
    /// fingerprint: every width produces bit-identical outcomes, so
    /// checkpoints are interchangeable across widths.
    std::size_t batch_width = 0;
    /// Live-telemetry heartbeat sidecar (see util/progress.hpp): when
    /// non-empty, a sampler thread atomically rewrites this JSON file
    /// every heartbeat_seconds with devices-done / throughput / ETA /
    /// per-worker utilization, ending with an honest terminal state.
    /// Pure observation: the campaign/aggregate blocks are
    /// bit-identical with telemetry on or off.
    std::string heartbeat_path;
    /// Heartbeat period in seconds; <= 0 means 1 s.
    double heartbeat_seconds = 0.0;
    /// Mirror each heartbeat as a throttled one-line stderr report.
    bool progress_stderr = false;
    /// Physics-grounded multi-mechanism wear-out (mission profiles,
    /// NBTI/HCI/EM/TDDB + the legacy knob, activity-driven stress).
    /// Disabled by default: devices degrade through the registry's
    /// legacy preset (WearoutConfig::legacy_preset()) and every
    /// artifact — report and checkpoint — is byte-identical to a
    /// pre-wearout build.  When enabled the wear-out fields join the
    /// canonical string, so checkpoints from different missions never
    /// cross-resume.
    WearoutConfig wearout;
    /// Shard coordinates for multi-process fleet execution: this run
    /// rolls only the devices in shard_device_range(population,
    /// shard_index, shard_count).  shard_count <= 1 means unsharded.
    /// Deliberately NOT part of the campaign fingerprint or canonical
    /// string: every shard of one campaign (and the unsharded run)
    /// shares the fingerprint, which is exactly what lets the merge
    /// tool verify that shard artifacts belong together.
    std::size_t shard_index = 0;
    std::size_t shard_count = 1;
};

/// Contiguous device range [begin, end) owned by shard `index` of
/// `count` over `population` devices.  Ranges partition [0, population)
/// exactly (sizes differ by at most one device).
[[nodiscard]] std::pair<std::size_t, std::size_t> shard_device_range(
    std::size_t population, std::size_t index, std::size_t count);

struct CampaignResult {
    std::string circuit;
    std::size_t num_gates = 0;
    std::size_t num_monitors = 0;
    Time clock_period = 0.0;
    /// Completed outcomes in ascending device index (== population on
    /// an uncancelled run).
    std::vector<DeviceOutcome> outcomes;
    CampaignAggregate aggregate;
    std::size_t devices_completed = 0;
    std::size_t devices_resumed = 0;   ///< trusted from the checkpoint
    /// Device range this run was responsible for ([0, population) when
    /// unsharded) and its size; devices_completed == devices_expected
    /// on an uncancelled run.
    std::size_t range_begin = 0;
    std::size_t range_end = 0;
    std::size_t devices_expected = 0;
    std::size_t checkpoints_written = 0;
    /// Resolved lanes per batched pass this run (1 = scalar engine).
    std::size_t batch_width = 1;
    /// Streaming-sketch telemetry: {summary, sketch} per metric (see
    /// telemetry_json in campaign/shard.hpp).  Per-device roll latency
    /// covers the devices this process rolled; the first-alert and
    /// failure-year distributions are rebuilt from every completed
    /// outcome, resumed ones included.  Lives in the "run" block of
    /// the report — latency is wall-clock, so this block is NOT part of
    /// the deterministic campaign/aggregate contract.
    Json telemetry;
    std::vector<PhaseTime> phases;
    double total_wall_seconds = 0.0;
    FlowStatus status;

    /// Full campaign report.  The "campaign" and "aggregate" blocks are
    /// bit-deterministic for a fixed (circuit, config); wall times and
    /// resume bookkeeping live in the separate "run" block.
    [[nodiscard]] Json to_json(const CampaignConfig& config) const;
};

/// Runs the campaign.  Cooperatively cancellable (CancelToken::global()
/// polled at device boundaries): a cancelled run returns the completed
/// prefix with an honest status block instead of throwing.
CampaignResult run_campaign(const Netlist& netlist,
                            const CampaignConfig& config);

/// Canonical fingerprint input of a campaign (circuit + config); its
/// hash stamps every campaign-state artifact, so a mismatched resume or
/// merge is detected.
std::string campaign_canonical(const Netlist& netlist,
                               const CampaignConfig& config);

}  // namespace fastmon
