// Campaign workloads: a Monte Carlo device population rolled through
// the monitor guard-band lifetime simulation and aggregated into
// early-life-failure prediction quality.
//
//   campaign_s38417         legacy wear-out on the full-scale s38417
//                           profile (large [arc][lane] working set)
//   campaign_s9234_mission  server_247 mission profile with waveform-
//                           activity stress on s9234 (src/wearout)
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "campaign/campaign.hpp"
#include "monitor/placement.hpp"
#include "netlist/generator.hpp"
#include "timing/sta_engine.hpp"
#include "util/thread_pool.hpp"
#include "wearout/activity.hpp"
#include "wearout/mission.hpp"
#include "wearout/wearout.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace fastmon;

namespace {

struct CampaignSpec {
    const char* profile;
    bool mission;
    std::size_t population;
};

CampaignSpec campaign_spec(const std::string& workload) {
    if (workload == "campaign_s38417") return {"s38417", false, 3200};
    if (workload == "campaign_s9234_mission") return {"s9234", true, 32000};
    throw std::invalid_argument("unknown campaign workload " + workload);
}

/// Devices in the batch-width cross-check prefix.
constexpr std::size_t kPrefix = 64;

struct CampaignQuality {
    double roc_auc = 0.0;
    double average_precision = 0.0;
    std::string aggregate_json;

    friend bool operator==(const CampaignQuality&,
                           const CampaignQuality&) = default;
};

CampaignQuality quality_of(const CampaignResult& r) {
    return {r.aggregate.classification.roc_auc,
            r.aggregate.classification.average_precision,
            r.aggregate.to_json().dump()};
}

class CampaignWorkload final : public Workload {
public:
    explicit CampaignWorkload(const RunOptions& options)
        : options_(options), spec_(campaign_spec(options.workload)) {}

    void setup() override {
        const CircuitProfile& profile = find_profile(spec_.profile);
        const double t0 = now_seconds();
        netlist_.emplace(generate_circuit(profile_config(profile, 1.0)));
        load_seconds_ = now_seconds() - t0;

        config_ = CampaignConfig{};
        config_.population = spec_.population;
        config_.seed = derive_seed(profile.seed, options_.seed);
        config_.batch_width = 8;
        config_.num_threads = options_.threads;
        if (spec_.mission) {
            config_.wearout.enabled = true;
            config_.wearout.mission = load_mission_profile("server_247");
        }

        // Warm-up: a small campaign through the same engines (pool,
        // batched STA, allocator), untimed.
        CampaignConfig warm = config_;
        warm.population = 8 * (options_.threads + 1);
        (void)run_campaign(*netlist_, warm);
    }

    double timed_call(Checks& checks) override {
        const double t0 = now_seconds();
        last_ = run_campaign(*netlist_, config_);
        const double wall = now_seconds() - t0;
        const CampaignAggregate& agg = last_.aggregate;
        checks.expect(last_.status.complete(), "campaign status not complete");
        checks.expect(last_.devices_completed == config_.population,
                      "devices_completed " +
                          std::to_string(last_.devices_completed) +
                          " != population");
        checks.expect(agg.classification.positives > 0 &&
                          agg.classification.negatives > 0,
                      "early-life-failure classes not both present");
        const CampaignQuality q = quality_of(last_);
        if (first_quality_) {
            checks.expect(q == *first_quality_,
                          "aggregate differs between repeated calls");
        } else {
            first_quality_ = q;
            first_prefix_.assign(last_.outcomes.begin(),
                                 last_.outcomes.begin() +
                                     static_cast<std::ptrdiff_t>(
                                         std::min(kPrefix,
                                                  last_.outcomes.size())));
        }
        last_wall_ = wall;
        return wall;
    }

    void final_checks(Checks& checks) override {
        // Batch width 1 (the scalar reference path) and width 8 must
        // give bit-identical outcomes on a device prefix.
        checks.begin("batch_width_prefix");
        CampaignConfig scalar = config_;
        scalar.population = kPrefix;
        scalar.batch_width = 1;
        const CampaignResult r = run_campaign(*netlist_, scalar);
        checks.expect(r.outcomes == first_prefix_,
                      "batch width 1 outcomes differ from width 8");
        checks.end();
    }

    void report(Metrics& out) const override {
        out.set("devices_per_s",
                static_cast<double>(config_.population) / last_wall_, "1/s");
        out.set("roc_auc", last_.aggregate.classification.roc_auc, "ratio");
        out.set("average_precision",
                last_.aggregate.classification.average_precision, "ratio");
    }

    void traced(Checks& checks, SpanRecorder& spans, Metrics& out) override;

private:
    RunOptions options_;
    CampaignSpec spec_;
    std::optional<Netlist> netlist_;
    double load_seconds_ = 0.0;
    CampaignConfig config_;
    CampaignResult last_;
    double last_wall_ = 0.0;
    std::optional<CampaignQuality> first_quality_;
    std::vector<DeviceOutcome> first_prefix_;
};

/// Summed rollout counters of the composed campaign.
struct RollTotals {
    BatchRollout::Stats rollout;
    std::uint64_t sta_passes = 0;
};

}  // namespace

void CampaignWorkload::traced(Checks& checks, SpanRecorder& spans,
                              Metrics& out) {
    // Untraced reference, once before and once after the composed run,
    // so that host drift during the traced run does not land in the
    // overhead.
    const auto reference_call = [&] {
        checks.begin("reference_call");
        const double cpu0 = cpu_seconds();
        const double wall = timed_call(checks);
        checks.end();
        return std::pair(wall, cpu_seconds() - cpu0);
    };
    const auto [wall_before, cpu_before] = reference_call();

    // run_campaign composed from its public calls: design-time STA and
    // monitor placement, the wear-out model, population sampling, the
    // batched rollout sharded like run_campaign shards it, and the
    // aggregate fold.
    checks.begin("composed_campaign");
    const Netlist& nl = *netlist_;
    std::vector<DeviceOutcome> outcomes(config_.population);
    RollTotals totals;
    ThreadPool::Stats pool_stats;
    CampaignAggregate aggregate;
    double traced_wall = 0.0;
    {
        SpanRecorder::Span campaign_span(spans, "campaign");
        ThreadPool pool(config_.num_threads);

        SpanRecorder::Span sta_span(spans, "timing.sta");
        const DelayAnnotation nominal = DelayAnnotation::nominal(nl);
        StaEngine engine(nl, nominal, config_.clock_margin);
        const StaResult& sta = engine.analyze();
        sta_span.end();

        SpanRecorder::Span place_span(spans, "monitor.place");
        const MonitorPlacement placement =
            place_monitors(nl, sta, config_.monitor_fraction,
                           config_.monitor_delay_fractions);
        place_span.end();

        RolloutContext ctx;
        ctx.netlist = &nl;
        ctx.placement = &placement;
        ctx.clock_period = sta.clock_period;
        ctx.grid = make_year_grid(config_.horizon_years, config_.step_years);
        ctx.screen_years = config_.screen_years;
        ctx.variation_sigma_log = config_.model.variation.sigma_log;
        std::optional<WearoutModel> wearout;
        if (config_.wearout.enabled) {
            SpanRecorder::Span wear_span(spans, "wearout.model");
            wearout.emplace(nl, nominal, config_.wearout);
            ctx.wearout = &*wearout;
        }

        SpanRecorder::Span sample_span(spans, "campaign.sample");
        const std::vector<GateId> sites = combinational_sites(nl);
        std::vector<DeviceSample> samples(config_.population);
        pool.parallel_chunks(
            samples.size(), 0, [&](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) {
                    samples[i] = sample_device(
                        config_.model, config_.seed,
                        static_cast<std::uint32_t>(i), sites, ctx.clock_period);
                }
            });
        sample_span.end();

        SpanRecorder::Span roll_span(spans, "campaign.roll");
        std::mutex totals_mutex;
        pool.parallel_chunks(
            samples.size(), 0, [&](std::size_t begin, std::size_t end) {
                BatchRollout rollout(ctx);
                const std::size_t width = config_.batch_width;
                for (std::size_t i = begin; i < end; i += width) {
                    const std::size_t n = std::min(width, end - i);
                    rollout.roll(std::span(samples).subspan(i, n),
                                 std::span(outcomes).subspan(i, n));
                }
                const std::lock_guard<std::mutex> lock(totals_mutex);
                const BatchRollout::Stats& s = rollout.stats();
                totals.rollout.batches += s.batches;
                totals.rollout.devices += s.devices;
                totals.rollout.lane_years += s.lane_years;
                totals.rollout.lanes_settled_early += s.lanes_settled_early;
                totals.sta_passes += rollout.engine_stats().batch_passes;
            });
        roll_span.end();

        SpanRecorder::Span aggregate_span(spans, "campaign.aggregate");
        aggregate = aggregate_outcomes(outcomes, config_.aggregate);
        aggregate_span.end();
        pool_stats = pool.stats();
        traced_wall = campaign_span.end();
    }
    checks.expect(outcomes == last_.outcomes,
                  "composed outcomes differ from run_campaign");
    checks.expect(aggregate.to_json().dump() ==
                      last_.aggregate.to_json().dump(),
                  "composed aggregate differs from run_campaign");
    checks.end();

    const auto [wall_after, cpu_after] = reference_call();
    const double untraced_wall = 0.5 * (wall_before + wall_after);
    const double cores_used =
        (cpu_before + cpu_after) / (wall_before + wall_after);

    double activity_seconds = 0.0;
    if (config_.wearout.enabled) {
        // The activity extraction inside the wear-out model, alone.
        SpanRecorder::Span span(spans, "wearout.activity");
        (void)extract_activity(nl, DelayAnnotation::nominal(nl),
                               config_.wearout.activity);
        activity_seconds = span.end();
    }

    checks.begin("one_thread_call");
    {
        CampaignConfig serial = config_;
        serial.num_threads = 1;
        const CampaignResult r = run_campaign(nl, serial);
        checks.expect(r.outcomes == last_.outcomes &&
                          quality_of(r) == quality_of(last_),
                      "1-thread campaign differs from " +
                          std::to_string(options_.threads) + "-thread");
    }
    checks.end();

    const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
    const double roll_s = spans.self_seconds("campaign.roll");
    const double rollout_wall =
        spans.total_seconds("campaign.sample") + roll_s;
    out.set("netlist.load_s", load_seconds_, "s");
    out.set("timing.sta_s", spans.self_seconds("timing.sta"), "s");
    out.set("monitor.place_s", spans.self_seconds("monitor.place"), "s");
    out.set("campaign.sample_s", spans.self_seconds("campaign.sample"), "s");
    out.set("campaign.roll_s", roll_s, "s");
    out.set("campaign.aggregate_s", spans.self_seconds("campaign.aggregate"),
            "s");
    out.set("campaign.lane_years", n(totals.rollout.lane_years), "count");
    out.set("campaign.lane_years_per_s", n(totals.rollout.lane_years) / roll_s,
            "1/s");
    out.set("campaign.settled_early_ratio",
            n(totals.rollout.lanes_settled_early) /
                n(std::max<std::uint64_t>(totals.rollout.devices, 1)),
            "ratio");
    out.set("campaign.batch_sta_passes", n(totals.sta_passes), "count");
    if (config_.wearout.enabled) {
        out.set("wearout.activity_s", activity_seconds, "s");
        out.set("wearout.model_s", spans.self_seconds("wearout.model"), "s");
    }
    const double busy = pool_stats.total_busy_seconds();
    out.set("pool.busy_s", busy, "s");
    out.set("pool.utilization",
            busy / (static_cast<double>(options_.threads + 1) * rollout_wall),
            "ratio");
    out.set("pool.steals", n(pool_stats.tasks_stolen), "count");
    out.set("cores_used", cores_used, "ratio");
    out.set("trace.wall_s", traced_wall, "s");
    out.set("trace.untraced_wall_s", untraced_wall, "s");
    out.set("trace.overhead_s", traced_wall - untraced_wall, "s");
    double named = 0.0;
    for (const char* name :
         {"timing.sta", "monitor.place", "wearout.model", "campaign.sample",
          "campaign.roll", "campaign.aggregate"}) {
        named += spans.self_seconds(name);
    }
    out.set("trace.self_coverage", named / traced_wall, "ratio");
    out.set("trace.named_self_share", named / untraced_wall, "ratio");
    report(out);
}

std::unique_ptr<Workload> make_campaign_workload(const RunOptions& options) {
    return std::make_unique<CampaignWorkload>(options);
}

}  // namespace perfbench
