#include "campaign/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>

#include <thread>

#include "campaign/shard.hpp"
#include "monitor/placement.hpp"
#include "timing/sta_engine.hpp"
#include "util/cancel.hpp"
#include "util/fault_inject.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/progress.hpp"
#include "util/sketch.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace fastmon {

namespace {

void append_number(std::string& out, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g;", v);
    out += buf;
}

std::uint64_t telemetry_now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// Per-device roll latency of this process, merged from the
/// worker-local sketches at chunk boundaries.
struct LatencySketch {
    std::mutex mutex;
    QuantileSketch merged;

    void merge(const QuantileSketch& local) {
        const std::lock_guard<std::mutex> lock(mutex);
        merged.merge(local);
    }
};

// Lanes per batched pass.  Not part of the fingerprint or canonical
// string: every width produces bit-identical outcomes.
std::size_t resolve_batch_width(const CampaignConfig& config) {
    if (config.batch_width == 0) return kBatchWidth;
    return std::min(config.batch_width, kBatchWidth);
}

/// Shard fault-injection poll at device boundaries.  `shard.crash`
/// simulates a hard process death (no unwinding, no atexit — exactly
/// what the fleet supervisor must recover from); `shard.hang`
/// simulates a wedged worker that only SIGKILL gets unstuck.  Both
/// cost one relaxed load per device when the injector is idle.
void poll_shard_faults() {
    FaultInjector& injector = FaultInjector::global();
    if (injector.trip("shard.crash")) {
        std::_Exit(70);
    }
    if (injector.trip("shard.hang")) {
        for (;;) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
    }
}

/// What every shard of one campaign shares: the read-only rollout
/// inputs and the sinks outcomes go to (a shard writes only the slots
/// of its own device range).
struct ShardEnv {
    const CampaignConfig& config;
    const RolloutContext& ctx;
    const std::vector<GateId>& sites;
    std::size_t batch_width;
    std::vector<std::optional<DeviceOutcome>>& slots;
    ProgressReporter* reporter;
    LatencySketch& latency;
};

/// Rolls the pending devices of [begin, end) through one kernel: the
/// shard pulls one device at a time and emits each finished outcome,
/// so it never buffers more samples than the kernel has lanes.  Width 1
/// is the scalar reference kernel on one incremental engine (the first
/// device builds the arenas, later devices rebase onto them); wider
/// widths stream through one BatchRollout that refills a lane the
/// moment its device settles.  Resumed devices are skipped, so lanes
/// carry non-contiguous indices — each device is a pure function of its
/// own seed, so lane placement cannot change its outcome.
void roll_shard(const ShardEnv& env, std::size_t begin, std::size_t end) {
    const TraceSpan shard_span("campaign_shard", "campaign");
    const CancelToken& token = CancelToken::global();
    MetricsRegistry& metrics = MetricsRegistry::global();
    const RolloutContext& ctx = env.ctx;
    ProgressReporter::WorkerSlot* slot =
        env.reporter ? &env.reporter->slot_for_this_thread() : nullptr;
    QuantileSketch latency;
    std::unique_ptr<StaEngine> engine;
    std::unique_ptr<BatchRollout> rollout;
    if (env.batch_width > 1) {
        rollout = std::make_unique<BatchRollout>(ctx, env.batch_width);
    }

    // Roll wall = shard wall outside pulls (sampling), cut at every
    // emit: each outcome records the roll time since the previous one,
    // the amortised per-device cost of the streaming kernel.
    std::uint64_t mark = telemetry_now_ns();
    std::uint64_t roll_ns = 0;

    // Pull: the next pending device, or null once the range is done or
    // a cancel is requested (device-boundary poll).  One trace span per
    // pull keeps sampling visible in the trace.
    DeviceSample pulled;
    std::size_t next = begin;
    const auto pull = [&](std::size_t& index) -> const DeviceSample* {
        roll_ns += telemetry_now_ns() - mark;
        const TraceSpan pop("campaign_population", "campaign");
        const DeviceSample* sample = nullptr;
        for (; next < end && !token.cancelled(); ++next) {
            poll_shard_faults();
            if (env.slots[next]) continue;  // resumed from checkpoint
            pulled = sample_device(env.config.model, env.config.seed,
                                   static_cast<std::uint32_t>(next),
                                   env.sites, ctx.clock_period);
            index = next++;
            sample = &pulled;
            break;
        }
        mark = telemetry_now_ns();
        return sample;
    };

    // Emit: slot write, latency sketch and heartbeat counters.  Counters are
    // diffed from the rollout's cumulative stats, so the SoA lane loops
    // run untouched.  Heartbeat "batches" counts STA passes (the scalar
    // kernel takes one per grid year), so lane_years / batches is the
    // mean number of live lanes per pass.
    std::uint64_t seen_lane_years = 0;
    std::uint64_t seen_settled = 0;
    std::uint64_t seen_passes = 0;
    const auto emit = [&](std::size_t index, DeviceOutcome& out) {
        const std::uint64_t now = telemetry_now_ns();
        const std::uint64_t dt = roll_ns + (now - mark);
        roll_ns = 0;
        mark = now;
        latency.record(static_cast<double>(dt) * 1e-3);
        env.slots[index] = std::move(out);
        if (!slot) return;
        // The scalar kernel evaluates the full grid for every device
        // (no early settling).
        std::uint64_t lane_years = ctx.grid.size();
        std::uint64_t settled = 0;
        std::uint64_t passes = ctx.grid.size();
        if (rollout) {
            const BatchRollout::Stats& bs = rollout->stats();
            const std::uint64_t bp = rollout->engine_stats().batch_passes;
            lane_years = bs.lane_years - seen_lane_years;
            settled = bs.lanes_settled_early - seen_settled;
            passes = bp - seen_passes;
            seen_lane_years = bs.lane_years;
            seen_settled = bs.lanes_settled_early;
            seen_passes = bp;
        }
        slot->devices.fetch_add(1, std::memory_order_relaxed);
        slot->batches.fetch_add(passes, std::memory_order_relaxed);
        slot->lane_years.fetch_add(lane_years, std::memory_order_relaxed);
        slot->settled_early.fetch_add(settled, std::memory_order_relaxed);
        slot->busy_ns.fetch_add(dt, std::memory_order_relaxed);
    };

    if (rollout) {
        rollout->stream(pull, emit);
    } else {
        std::size_t index = 0;
        while (const DeviceSample* sample = pull(index)) {
            DeviceOutcome out = roll_device(ctx, *sample, &engine);
            emit(index, out);
        }
    }
    env.latency.merge(latency);
    if (engine) {
        const StaEngine::Stats& es = engine->stats();
        metrics.counter("campaign.sta_full_passes").add(es.full_passes);
        metrics.counter("campaign.sta_dense_updates").add(es.dense_updates);
        metrics.counter("campaign.sta_rebases").add(es.rebases);
    }
    if (rollout && rollout->stats().devices > 0) {
        const BatchRollout::Stats& bs = rollout->stats();
        metrics.counter("campaign.batch_batches").add(bs.batches);
        metrics.counter("campaign.batch_devices").add(bs.devices);
        metrics.counter("campaign.batch_lane_years").add(bs.lane_years);
        metrics.counter("campaign.batch_lanes_settled_early")
            .add(bs.lanes_settled_early);
        const BatchStaEngine::Stats& es = rollout->engine_stats();
        metrics.counter("campaign.batch_sta_passes").add(es.batch_passes);
        metrics.counter("campaign.batch_sta_lane_loads").add(es.lane_loads);
        metrics.counter("campaign.batch_sta_lanes_retired")
            .add(es.lanes_retired);
    }
}

}  // namespace

std::pair<std::size_t, std::size_t> shard_device_range(
    std::size_t population, std::size_t index, std::size_t count) {
    if (count <= 1) return {0, population};
    if (index >= count) return {population, population};  // empty
    const auto pop = static_cast<std::uint64_t>(population);
    const auto begin = static_cast<std::size_t>(pop * index / count);
    const auto end = static_cast<std::size_t>(pop * (index + 1) / count);
    return {begin, end};
}

std::string campaign_canonical(const Netlist& netlist,
                               const CampaignConfig& config) {
    std::string canonical = "campaign-v1;";
    canonical += netlist.name();
    canonical += ';';
    append_number(canonical, static_cast<double>(netlist.size()));
    append_number(canonical, static_cast<double>(config.population));
    append_number(canonical, static_cast<double>(config.seed));
    append_number(canonical, config.model.variation.sigma_log);
    append_number(canonical, config.model.defect.incidence);
    append_number(canonical,
                  static_cast<double>(config.model.defect.max_defects));
    append_number(canonical, config.model.defect.delta0_fraction_median);
    append_number(canonical, config.model.defect.delta0_sigma_log);
    append_number(canonical, config.model.defect.growth_min);
    append_number(canonical, config.model.defect.growth_max);
    append_number(canonical, config.model.defect.delta_max_fraction);
    append_number(canonical, config.model.aging.nominal.amplitude);
    append_number(canonical, config.model.aging.nominal.exponent);
    append_number(canonical, config.model.aging.nominal.t_ref_years);
    append_number(canonical, config.model.aging.amplitude_sigma_log);
    append_number(canonical, config.clock_margin);
    append_number(canonical, config.monitor_fraction);
    for (double f : config.monitor_delay_fractions) {
        append_number(canonical, f);
    }
    append_number(canonical, config.horizon_years);
    append_number(canonical, config.step_years);
    append_number(canonical, config.screen_years);
    append_number(canonical, config.aggregate.early_fail_years);
    // Wear-out terms join the canonical string only when enabled:
    // legacy fingerprints — and every existing checkpoint — stay
    // valid, while mission-profile checkpoints never cross-resume into
    // a different mission or mechanism registry.
    if (config.wearout.enabled) config.wearout.append_canonical(canonical);
    return canonical;
}

namespace {

/// The deterministic "campaign" report block: circuit facts fixed by
/// campaign_prepare plus the configuration.
Json campaign_block(const CampaignResult& result,
                    const CampaignConfig& config) {
    Json campaign = Json::object();
    campaign.set("circuit", result.circuit);
    campaign.set("num_gates", result.num_gates);
    campaign.set("num_monitors", result.num_monitors);
    campaign.set("clock_period", result.clock_period);
    campaign.set("population", config.population);
    campaign.set("seed", config.seed);
    Json model = Json::object();
    model.set("variation_sigma_log", config.model.variation.sigma_log);
    model.set("defect_incidence", config.model.defect.incidence);
    model.set("defect_max_defects", config.model.defect.max_defects);
    model.set("defect_delta0_fraction_median",
              config.model.defect.delta0_fraction_median);
    model.set("defect_delta0_sigma_log", config.model.defect.delta0_sigma_log);
    model.set("defect_growth_min", config.model.defect.growth_min);
    model.set("defect_growth_max", config.model.defect.growth_max);
    model.set("defect_delta_max_fraction",
              config.model.defect.delta_max_fraction);
    model.set("aging_amplitude", config.model.aging.nominal.amplitude);
    model.set("aging_exponent", config.model.aging.nominal.exponent);
    model.set("aging_t_ref_years", config.model.aging.nominal.t_ref_years);
    model.set("aging_amplitude_sigma_log",
              config.model.aging.amplitude_sigma_log);
    campaign.set("model", std::move(model));
    if (config.wearout.enabled) {
        // Key exists only on mission-profile campaigns, keeping the
        // default report byte-identical to pre-wearout builds.
        Json wearout = Json::object();
        wearout.set("mission", config.wearout.mission.to_json());
        wearout.set("reference", config.wearout.reference.to_json());
        wearout.set("activity", config.wearout.activity.to_json());
        Json mechs = Json::array();
        for (const MechanismConfig& m :
             config.wearout.resolved_mechanisms()) {
            mechs.push_back(m.to_json());
        }
        wearout.set("mechanisms", std::move(mechs));
        campaign.set("wearout", std::move(wearout));
    }
    campaign.set("clock_margin", config.clock_margin);
    campaign.set("monitor_fraction", config.monitor_fraction);
    campaign.set("horizon_years", config.horizon_years);
    campaign.set("step_years", config.step_years);
    campaign.set("screen_years", config.screen_years);
    campaign.set("early_fail_years", config.aggregate.early_fail_years);
    return campaign;
}

}  // namespace

Json CampaignResult::to_json(const CampaignConfig& config) const {
    Json j = Json::object();
    j.set("campaign", campaign_block(*this, config));
    j.set("aggregate", aggregate.to_json());

    Json run = Json::object();
    // sta_mode/batch_width are run bookkeeping, not campaign identity:
    // every mode must produce identical "campaign"/"aggregate" blocks.
    run.set("sta_mode", batch_width > 1 ? "batched" : "incremental");
    run.set("batch_width", batch_width);
    if (config.shard_count > 1) {
        run.set("shard_index", config.shard_index);
        run.set("shard_count", config.shard_count);
        run.set("range_begin", range_begin);
        run.set("range_end", range_end);
    }
    run.set("devices_expected", devices_expected);
    run.set("devices_completed", devices_completed);
    run.set("devices_resumed", devices_resumed);
    run.set("checkpoints_written", checkpoints_written);
    run.set("total_wall_seconds", total_wall_seconds);
    if (!telemetry.is_null()) run.set("telemetry", telemetry);
    run.set("status", status.to_json());
    j.set("run", std::move(run));
    return j;
}

CampaignResult run_campaign(const Netlist& netlist,
                            const CampaignConfig& config) {
    const PhaseStopwatch total;
    CancelToken& token = CancelToken::global();
    MetricsRegistry& metrics = MetricsRegistry::global();
    CampaignResult result;
    result.circuit = netlist.name();
    result.num_gates = netlist.size();
    // Shard coordinates: this process owns [range_begin, range_end).
    const auto [range_begin, range_end] = shard_device_range(
        config.population, config.shard_index,
        std::max<std::size_t>(config.shard_count, 1));
    result.range_begin = range_begin;
    result.range_end = range_end;
    result.devices_expected = range_end - range_begin;
    const std::size_t expected = result.devices_expected;

    // --- campaign_prepare: design-time artifacts, shared fleet-wide ---
    PhaseStopwatch prepare_sw;
    RolloutContext ctx;
    MonitorPlacement placement;
    std::vector<GateId> sites;
    std::unique_ptr<WearoutModel> wearout;
    try {
        TraceSpan span("campaign_prepare");
        const DelayAnnotation nominal = DelayAnnotation::nominal(netlist);
        StaEngine engine(netlist, nominal, config.clock_margin);
        const StaResult& sta = engine.analyze();
        placement = place_monitors(netlist, sta, config.monitor_fraction,
                                   config.monitor_delay_fractions);
        result.clock_period = sta.clock_period;
        ctx.netlist = &netlist;
        ctx.placement = &placement;
        ctx.clock_period = sta.clock_period;
        ctx.grid = make_year_grid(config.horizon_years, config.step_years);
        ctx.screen_years = config.screen_years;
        ctx.variation_sigma_log = config.model.variation.sigma_log;
        // Design-time characterization (activity extraction over the
        // nominal annotation) plus mission-rate resolution — one shared
        // immutable artifact for every device.  With wear-out disabled
        // the devices degrade through the legacy preset instead.
        wearout = std::make_unique<WearoutModel>(
            netlist, nominal,
            config.wearout.enabled ? config.wearout
                                   : WearoutConfig::legacy_preset());
        ctx.wearout = wearout.get();
        sites = combinational_sites(netlist);
    } catch (const std::exception& e) {
        // Invalid configuration (e.g. a rejected year grid) yields an
        // honest failed result instead of an escaped exception.
        result.phases.push_back(prepare_sw.elapsed("campaign_prepare"));
        result.status.phases.push_back(
            PhaseStatus{"campaign_prepare", PhaseOutcome::Failed, e.what()});
        for (const char* phase :
             {"campaign_resume", "campaign_rollout", "campaign_aggregate"}) {
            result.status.phases.push_back(
                PhaseStatus{phase, PhaseOutcome::Skipped,
                            "campaign_prepare failed"});
        }
        result.total_wall_seconds =
            total.elapsed("campaign_total").wall_seconds;
        return result;
    }
    result.num_monitors = placement.num_monitors();
    result.phases.push_back(prepare_sw.elapsed("campaign_prepare"));
    result.status.phases.push_back(
        PhaseStatus{"campaign_prepare", PhaseOutcome::Ok, ""});

    // Live telemetry: a heartbeat sidecar and/or a throttled stderr
    // line (both pure observers — report blocks stay bit-identical),
    // plus mergeable streaming sketches fed at batch boundaries.
    std::unique_ptr<ProgressReporter> reporter;
    if (!config.heartbeat_path.empty() || config.progress_stderr) {
        ProgressConfig pc;
        pc.path = config.heartbeat_path;
        pc.interval_seconds = config.heartbeat_seconds > 0.0
                                  ? config.heartbeat_seconds
                                  : 1.0;
        pc.stderr_line = config.progress_stderr;
        pc.label = result.circuit;
        pc.devices_total = expected;
        pc.grid_points = ctx.grid.size();
        reporter = std::make_unique<ProgressReporter>(std::move(pc));
    }
    LatencySketch latency;

    // The campaign-state artifact at checkpoint_path: the header is fixed
    // here, outcomes and their partial aggregate are refilled at every
    // snapshot.  It doubles as this shard's mergeable result.
    ShardResult artifact;
    artifact.fingerprint = fnv1a64(campaign_canonical(netlist, config));
    artifact.shard_index = static_cast<std::uint32_t>(config.shard_index);
    artifact.shard_count = static_cast<std::uint32_t>(
        std::max<std::size_t>(config.shard_count, 1));
    artifact.population = config.population;
    artifact.range_begin = range_begin;
    artifact.range_end = range_end;
    artifact.early_fail_years = config.aggregate.early_fail_years;
    artifact.campaign = campaign_block(result, config);

    // --- campaign_resume: trust completed devices from the artifact ---
    std::vector<std::optional<DeviceOutcome>> slots(config.population);
    {
        PhaseStopwatch sw;
        // "Resume not requested" is the normal path, not a degradation
        // (Skipped is reserved for phases that a failure prevented).
        PhaseStatus st{"campaign_resume", PhaseOutcome::Ok,
                       "resume not requested"};
        if (config.resume && !config.checkpoint_path.empty()) {
            const TraceSpan span("campaign_checkpoint", "campaign");
            std::string error;
            const auto previous =
                load_shard_result(config.checkpoint_path, &error);
            if (!previous) {
                st.outcome = PhaseOutcome::Degraded;
                st.detail = error.empty() ? "no checkpoint file; fresh start"
                                          : config.checkpoint_path + ": " +
                                                error + "; fresh start";
            } else if (previous->fingerprint != artifact.fingerprint ||
                       previous->population != config.population) {
                st.outcome = PhaseOutcome::Degraded;
                st.detail =
                    "checkpoint belongs to a different campaign; fresh start";
            } else {
                // Trust only outcomes inside this shard's range: an
                // artifact written by a sibling shard or an unsharded
                // run shares the campaign fingerprint, and folding its
                // other devices in here would double-count them at
                // merge time.
                for (const DeviceOutcome& out : previous->outcomes) {
                    if (out.index < range_begin || out.index >= range_end) {
                        continue;
                    }
                    slots[out.index] = out;
                    ++result.devices_resumed;
                }
                st.outcome = PhaseOutcome::Ok;
                st.detail = std::to_string(result.devices_resumed) +
                            " device(s) resumed";
            }
        }
        metrics.counter("campaign.devices_resumed")
            .add(result.devices_resumed);
        if (reporter) reporter->add_resumed(result.devices_resumed);
        result.phases.push_back(sw.elapsed("campaign_resume"));
        result.status.phases.push_back(std::move(st));
    }

    // --- campaign_rollout: sharded Monte Carlo over the population ---
    {
        PhaseStopwatch sw;
        TraceSpan span("campaign_rollout");
        PhaseStatus st{"campaign_rollout", PhaseOutcome::Ok, ""};
        if (reporter) reporter->start();

        std::unique_ptr<ThreadPool> dedicated;
        ThreadPool* pool = nullptr;
        if (config.num_threads >= 2) {
            dedicated = std::make_unique<ThreadPool>(config.num_threads);
            pool = dedicated.get();
        } else if (config.num_threads == 0) {
            pool = &ThreadPool::shared();
        }

        result.batch_width = resolve_batch_width(config);
        const ShardEnv env{config, ctx,           sites,   result.batch_width,
                           slots,  reporter.get(), latency};

        const auto save_snapshot = [&] {
            if (config.checkpoint_path.empty()) return true;
            const TraceSpan ckpt_span("campaign_checkpoint", "campaign");
            artifact.outcomes.clear();
            for (const auto& slot : slots) {
                if (slot) artifact.outcomes.push_back(*slot);
            }
            artifact.aggregate =
                aggregate_outcomes(artifact.outcomes, config.aggregate)
                    .to_json();
            artifact.roll_latency_us = latency.merged;
            if (save_shard_result(config.checkpoint_path, artifact)) {
                ++result.checkpoints_written;
                metrics.counter("campaign.checkpoints_written").add();
                return true;
            }
            log_warn() << "campaign: failed to write checkpoint "
                       << config.checkpoint_path;
            return false;
        };

        const std::size_t block =
            config.checkpoint_path.empty()
                ? std::max<std::size_t>(expected, 1)
                : std::max<std::size_t>(config.checkpoint_every, 1);
        try {
            for (std::size_t begin = range_begin;
                 begin < range_end && !token.cancelled(); begin += block) {
                const std::size_t end = std::min(range_end, begin + block);
                if (pool) {
                    pool->parallel_chunks(
                        end - begin, 0, [&](std::size_t b, std::size_t e) {
                            roll_shard(env, begin + b, begin + e);
                        });
                } else {
                    roll_shard(env, begin, end);
                }
                // The last block (or a cancelled one) is saved once,
                // after the loop.
                if (end < range_end && !token.cancelled()) {
                    save_snapshot();
                }
            }
        } catch (const CancelledError&) {
            // An engine below the device loop (STA mid-pass) observed
            // the request first; the device stays incomplete.
        }
        const bool saved = save_snapshot();

        std::size_t completed = 0;
        for (const auto& slot : slots) {
            if (slot) ++completed;
        }
        result.devices_completed = completed;
        metrics.counter("campaign.devices_completed")
            .add(completed - result.devices_resumed);
        if (token.cancelled()) {
            result.status.cancelled = true;
            result.status.cancel_cause = token.cause();
            st.outcome = PhaseOutcome::Degraded;
            st.detail = "cancelled after " + std::to_string(completed) +
                        " of " + std::to_string(expected) + " devices";
        } else if (!saved) {
            st.outcome = PhaseOutcome::Degraded;
            st.detail = "cannot write checkpoint " + config.checkpoint_path;
        }
        if (reporter) {
            // The final heartbeat carries the honest terminal state and
            // the same device count the exported report will show.
            reporter->stop(token.cancelled()          ? "cancelled"
                           : completed < expected ? "degraded"
                                                  : "finished");
        }
        result.phases.push_back(sw.elapsed("campaign_rollout"));
        result.status.phases.push_back(std::move(st));
    }

    // --- campaign_aggregate: deterministic fold in device order ------
    {
        PhaseStopwatch sw;
        TraceSpan span("campaign_aggregate");
        PhaseStatus st{"campaign_aggregate", PhaseOutcome::Ok, ""};
        result.outcomes.reserve(result.devices_completed);
        for (const auto& slot : slots) {
            if (slot) result.outcomes.push_back(*slot);
        }
        result.aggregate = aggregate_outcomes(result.outcomes,
                                              config.aggregate);
        // Telemetry into the global registry (so run manifests embed
        // the summaries) and the report's run block.  The year
        // distributions are rebuilt from every completed outcome,
        // resumed ones included; latency covers this process only.
        const OutcomeSketches distributions =
            sketch_outcomes(result.outcomes);
        metrics.histogram("campaign.roll_latency_us").merge(latency.merged);
        metrics.histogram("campaign.first_alert_years")
            .merge(distributions.first_alert_years);
        metrics.histogram("campaign.failure_years")
            .merge(distributions.failure_years);
        result.telemetry = telemetry_json(latency.merged, distributions);
        // Per-mechanism breakdown counters (mission-profile campaigns
        // only): campaign.wearout_failed_<mechanism> and the survivor
        // counterpart, mirroring the aggregate's attribution fold.
        for (const auto& [name, count] :
             result.aggregate.failed_by_mechanism) {
            metrics.counter("campaign.wearout_failed_" + name).add(count);
        }
        for (const auto& [name, count] :
             result.aggregate.survived_by_mechanism) {
            metrics.counter("campaign.wearout_survived_" + name).add(count);
        }
        if (result.devices_completed < expected) {
            st.outcome = PhaseOutcome::Degraded;
            st.detail = "aggregate over " +
                        std::to_string(result.devices_completed) + " of " +
                        std::to_string(expected) + " devices";
        }
        result.phases.push_back(sw.elapsed("campaign_aggregate"));
        result.status.phases.push_back(std::move(st));
    }

    if (config.wearout.enabled) {
        // Mirror the dominant-mechanism breakdown into the live
        // telemetry block so dashboards see it without parsing the
        // aggregate; key exists only on mission-profile campaigns.
        Json breakdown = Json::object();
        Json failed_counts = Json::object();
        for (const auto& [name, count] :
             result.aggregate.failed_by_mechanism) {
            failed_counts.set(name, count);
        }
        breakdown.set("failed", std::move(failed_counts));
        Json survived_counts = Json::object();
        for (const auto& [name, count] :
             result.aggregate.survived_by_mechanism) {
            survived_counts.set(name, count);
        }
        breakdown.set("survived", std::move(survived_counts));
        result.telemetry.set("dominant_mechanisms", std::move(breakdown));
    }

    result.total_wall_seconds =
        total.elapsed("campaign_total").wall_seconds;
    return result;
}

}  // namespace fastmon
