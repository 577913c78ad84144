// Campaign engine: population sampling, device rollout, aggregation,
// and the determinism contract (thread counts, cancellation).
#include "campaign/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include <limits>

#include "netlist/iscas_data.hpp"
#include "timing/batch_sta_engine.hpp"
#include "timing/sta.hpp"
#include "util/cancel.hpp"
#include "util/diagnostic.hpp"

namespace fastmon {
namespace {

PopulationModel test_model() {
    PopulationModel model;
    model.defect.incidence = 0.3;
    return model;
}

TEST(YearGrid, UniformFromZero) {
    const std::vector<double> grid = make_year_grid(2.0, 0.5);
    ASSERT_EQ(grid.size(), 5u);
    EXPECT_DOUBLE_EQ(grid.front(), 0.0);
    EXPECT_DOUBLE_EQ(grid[1], 0.5);
    EXPECT_DOUBLE_EQ(grid.back(), 2.0);
    // i * step, not repeated addition: no drift at fine steps.
    const std::vector<double> fine = make_year_grid(15.0, 0.25);
    EXPECT_DOUBLE_EQ(fine[33], 33 * 0.25);
}

TEST(YearGrid, RejectsDegenerateParameters) {
    constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(make_year_grid(kNan, 0.25), Diagnostic);
    EXPECT_THROW(make_year_grid(kInf, 0.25), Diagnostic);
    EXPECT_THROW(make_year_grid(-1.0, 0.25), Diagnostic);
    EXPECT_THROW(make_year_grid(10.0, kNan), Diagnostic);
    EXPECT_THROW(make_year_grid(10.0, kInf), Diagnostic);
    EXPECT_THROW(make_year_grid(10.0, 0.0), Diagnostic);
    EXPECT_THROW(make_year_grid(10.0, -0.5), Diagnostic);
    // A step larger than a positive horizon would silently degrade the
    // sweep to the single deployment point.
    EXPECT_THROW(make_year_grid(2.0, 5.0), Diagnostic);
    try {
        make_year_grid(10.0, 0.0);
        FAIL() << "expected a Diagnostic";
    } catch (const Diagnostic& d) {
        EXPECT_EQ(d.source(), "campaign");
        EXPECT_NE(std::string(d.what()).find("step"), std::string::npos);
    }
    // A zero horizon is valid (deployment-only grid), any step goes.
    EXPECT_EQ(make_year_grid(0.0, 5.0).size(), 1u);
}

TEST(Population, SampleIsDeterministicPerIndex) {
    const Netlist nl = make_mini_alu();
    const std::vector<GateId> sites = combinational_sites(nl);
    const PopulationModel model = test_model();
    const DeviceSample a = sample_device(model, 7, 3, sites, 200.0);
    const DeviceSample b = sample_device(model, 7, 3, sites, 200.0);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_DOUBLE_EQ(a.aging.amplitude, b.aging.amplitude);
    ASSERT_EQ(a.defects.size(), b.defects.size());
    for (std::size_t i = 0; i < a.defects.size(); ++i) {
        EXPECT_EQ(a.defects[i].site, b.defects[i].site);
        EXPECT_DOUBLE_EQ(a.defects[i].delta0, b.defects[i].delta0);
        EXPECT_DOUBLE_EQ(a.defects[i].growth_per_year,
                         b.defects[i].growth_per_year);
    }
    const DeviceSample other = sample_device(model, 7, 4, sites, 200.0);
    EXPECT_NE(a.seed, other.seed);
}

TEST(Population, IncidenceBoundsAndDefectRanges) {
    const Netlist nl = make_mini_alu();
    const std::vector<GateId> sites = combinational_sites(nl);
    constexpr Time kClock = 200.0;

    PopulationModel clean = test_model();
    clean.defect.incidence = 0.0;
    PopulationModel always = test_model();
    always.defect.incidence = 1.0;

    std::size_t marginal = 0;
    for (std::uint32_t i = 0; i < 64; ++i) {
        EXPECT_FALSE(sample_device(clean, 1, i, sites, kClock).marginal());
        const DeviceSample d = sample_device(always, 1, i, sites, kClock);
        EXPECT_TRUE(d.marginal());
        marginal += d.marginal();
        EXPECT_LE(d.defects.size(), always.defect.max_defects);
        for (const MarginalDefect& defect : d.defects) {
            EXPECT_TRUE(std::any_of(
                sites.begin(), sites.end(),
                [&](GateId g) { return g == defect.site.gate; }));
            EXPECT_GT(defect.delta0, 0.0);
            EXPECT_GE(defect.growth_per_year, always.defect.growth_min);
            EXPECT_LE(defect.growth_per_year, always.defect.growth_max);
            EXPECT_DOUBLE_EQ(defect.delta_max,
                             always.defect.delta_max_fraction * kClock);
        }
    }
    EXPECT_EQ(marginal, 64u);
}

TEST(Population, AgingAmplitudeJittersAroundNominal) {
    const Netlist nl = make_mini_alu();
    const std::vector<GateId> sites = combinational_sites(nl);
    const PopulationModel model = test_model();
    RunningStats amplitudes;
    for (std::uint32_t i = 0; i < 256; ++i) {
        const DeviceSample d = sample_device(model, 3, i, sites, 200.0);
        EXPECT_GT(d.aging.amplitude, 0.0);
        amplitudes.add(d.aging.amplitude);
    }
    // Lognormal jitter spreads the population but keeps the nominal
    // scale (median = nominal amplitude).
    EXPECT_GT(amplitudes.stddev(), 0.01);
    EXPECT_NEAR(amplitudes.mean(), model.aging.nominal.amplitude, 0.15);
}

struct CampaignFixture : ::testing::Test {
    Netlist nl = make_mini_alu();

    CampaignConfig small_config() const {
        CampaignConfig config;
        config.population = 24;
        config.seed = 11;
        config.model = test_model();
        config.num_threads = 1;
        return config;
    }
};

TEST_F(CampaignFixture, RolloutOutcomesAreWellFormed) {
    const CampaignConfig config = small_config();
    const CampaignResult result = run_campaign(nl, config);
    ASSERT_EQ(result.outcomes.size(), config.population);
    EXPECT_TRUE(result.status.complete());
    EXPECT_GT(result.num_monitors, 0u);
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
        const DeviceOutcome& out = result.outcomes[i];
        EXPECT_EQ(out.index, i);
        // One first-alert entry per monitor configuration; config 0
        // (monitors off) never alerts.
        ASSERT_GE(out.first_alert_years.size(), 2u);
        EXPECT_DOUBLE_EQ(out.first_alert_years[0], -1.0);
        EXPECT_GT(out.margin_used_t0, 0.0);
        EXPECT_LT(out.margin_used_t0, 1.0);
        EXPECT_GE(out.screen_score, 0.0);
        if (out.failure_years >= 0.0) {
            EXPECT_LE(out.failure_years, config.horizon_years);
        }
    }
}

TEST_F(CampaignFixture, ThreadCountDoesNotChangeTheAggregate) {
    CampaignConfig serial = small_config();
    CampaignConfig dedicated = small_config();
    dedicated.num_threads = 3;
    CampaignConfig shared = small_config();
    shared.num_threads = 0;

    const CampaignResult a = run_campaign(nl, serial);
    const CampaignResult b = run_campaign(nl, dedicated);
    const CampaignResult c = run_campaign(nl, shared);
    EXPECT_EQ(a.outcomes, b.outcomes);
    EXPECT_EQ(a.outcomes, c.outcomes);
    // The deterministic report blocks ("campaign" and "aggregate" — the
    // "run" block carries wall times) are bit-identical.
    const Json ja = a.to_json(serial);
    const Json jb = b.to_json(dedicated);
    for (const char* block : {"campaign", "aggregate"}) {
        ASSERT_NE(ja.find(block), nullptr);
        ASSERT_NE(jb.find(block), nullptr);
        EXPECT_EQ(ja.find(block)->dump(2), jb.find(block)->dump(2));
    }
}

TEST_F(CampaignFixture, BadGridFailsPrepareButReturnsHonestStatus) {
    // run_campaign must not leak the Diagnostic: campaign_prepare
    // records Failed, the downstream phases are Skipped, and the
    // result reports incomplete instead of crashing the campaign CLI.
    CampaignConfig config = small_config();
    config.step_years = 0.0;
    const CampaignResult result = run_campaign(nl, config);
    EXPECT_FALSE(result.status.complete());
    EXPECT_TRUE(result.outcomes.empty());
    ASSERT_FALSE(result.status.phases.empty());
    EXPECT_EQ(result.status.phases.front().name, "campaign_prepare");
    EXPECT_EQ(result.status.phases.front().outcome, PhaseOutcome::Failed);
}

TEST_F(CampaignFixture, FullStaMatchesIncremental) {
    // Scalar-engine sharding: two workers, each reusing one StaEngine
    // across its device shard, reproduce the serial scalar reference's
    // outcomes and deterministic report blocks bit-for-bit.
    CampaignConfig serial = small_config();
    serial.batch_width = 1;
    CampaignConfig sharded = serial;
    sharded.num_threads = 2;

    const CampaignResult a = run_campaign(nl, serial);
    const CampaignResult b = run_campaign(nl, sharded);
    EXPECT_EQ(a.outcomes, b.outcomes);
    const Json ja = a.to_json(serial);
    const Json jb = b.to_json(sharded);
    for (const char* block : {"campaign", "aggregate"}) {
        ASSERT_NE(ja.find(block), nullptr);
        ASSERT_NE(jb.find(block), nullptr);
        EXPECT_EQ(ja.find(block)->dump(2), jb.find(block)->dump(2));
    }
    // The engine is surfaced in the non-deterministic "run" block only.
    ASSERT_NE(jb.find("run"), nullptr);
    ASSERT_NE(jb.find("run")->find("sta_mode"), nullptr);
    EXPECT_EQ(jb.find("run")->find("sta_mode")->as_string(), "incremental");
}

TEST_F(CampaignFixture, BatchedMatchesScalarAcrossWidthsBitwise) {
    // The tentpole differential: the batched SoA engine must reproduce
    // the scalar incremental path bit-for-bit at every runtime width
    // (1 = scalar reference; 4 and the compiled default exercise full
    // and clamped batches, plus a ragged tail at population 24).
    CampaignConfig scalar = small_config();
    scalar.batch_width = 1;
    const CampaignResult reference = run_campaign(nl, scalar);
    const Json jref = reference.to_json(scalar);

    for (const std::size_t width : {std::size_t{4}, std::size_t{0}}) {
        CampaignConfig batched = small_config();
        batched.batch_width = width;
        const CampaignResult result = run_campaign(nl, batched);
        EXPECT_EQ(result.outcomes, reference.outcomes) << "width " << width;
        const Json jb = result.to_json(batched);
        for (const char* block : {"campaign", "aggregate"}) {
            ASSERT_NE(jb.find(block), nullptr);
            EXPECT_EQ(jb.find(block)->dump(2), jref.find(block)->dump(2))
                << "width " << width;
        }
        // Run-block bookkeeping: resolved width and mode.
        const Json* run = jb.find("run");
        ASSERT_NE(run, nullptr);
        const std::size_t resolved = width == 0 ? kBatchWidth : width;
        EXPECT_EQ(static_cast<std::size_t>(
                      run->find("batch_width")->as_number()),
                  std::min(resolved, kBatchWidth));
        EXPECT_EQ(run->find("sta_mode")->as_string(),
                  std::min(resolved, kBatchWidth) > 1 ? "batched"
                                                      : "incremental");
    }
    ASSERT_NE(jref.find("run"), nullptr);
    EXPECT_EQ(jref.find("run")->find("sta_mode")->as_string(), "incremental");
}

TEST_F(CampaignFixture, BatchedMultiWorkerMatchesSerialScalar) {
    // Batched shards on a real pool (TSan job covers this test too):
    // worker count must not leak into outcomes or aggregate blocks.
    CampaignConfig scalar = small_config();
    scalar.batch_width = 1;
    CampaignConfig batched_pool = small_config();
    batched_pool.num_threads = 3;
    batched_pool.batch_width = 0;  // compiled width

    const CampaignResult a = run_campaign(nl, scalar);
    const CampaignResult b = run_campaign(nl, batched_pool);
    EXPECT_EQ(a.outcomes, b.outcomes);
    const Json ja = a.to_json(scalar);
    const Json jb = b.to_json(batched_pool);
    for (const char* block : {"campaign", "aggregate"}) {
        EXPECT_EQ(ja.find(block)->dump(2), jb.find(block)->dump(2));
    }
}

TEST_F(CampaignFixture, ScreenScorePredictsEarlyFailures) {
    // A statistically meaningful population: the burn-in screen score
    // must rank actual early-life failures above survivors clearly
    // better than chance (this is the paper's core claim).
    CampaignConfig config = small_config();
    config.population = 200;
    const CampaignResult result = run_campaign(nl, config);
    const CampaignAggregate& agg = result.aggregate;
    ASSERT_GT(agg.classification.positives, 0u);
    ASSERT_GT(agg.classification.negatives, 0u);
    EXPECT_GT(agg.classification.roc_auc, 0.6);
    // Marginal devices exist at ~incidence rate.
    EXPECT_NEAR(static_cast<double>(agg.marginal) / 200.0,
                config.model.defect.incidence, 0.1);
}

TEST_F(CampaignFixture, CancelledCampaignReturnsHonestPartialResult) {
    CancelToken::global().cancel(CancelCause::Test);
    const CampaignConfig config = small_config();
    const CampaignResult result = run_campaign(nl, config);
    CancelToken::global().reset();

    EXPECT_TRUE(result.status.cancelled);
    EXPECT_EQ(result.status.cancel_cause, CancelCause::Test);
    EXPECT_FALSE(result.status.complete());
    EXPECT_LT(result.devices_completed, config.population);
    const PhaseStatus* rollout = result.status.find("campaign_rollout");
    ASSERT_NE(rollout, nullptr);
    EXPECT_EQ(rollout->outcome, PhaseOutcome::Degraded);
    // The aggregate covers exactly the completed prefix.
    EXPECT_EQ(result.aggregate.population, result.devices_completed);
}

TEST(Aggregate, CountsAndOperatingPoint) {
    // Hand-built outcomes: two true early failures (one screened, one
    // missed), one false alarm, one clean survivor.
    DeviceOutcome caught;
    caught.index = 0;
    caught.marginal = true;
    caught.screen_score = 1.8;
    caught.failure_years = 1.0;
    caught.first_alert_years = {-1.0, 0.25, 0.5};
    DeviceOutcome missed;
    missed.index = 1;
    missed.marginal = true;
    missed.screen_score = 0.0;
    missed.failure_years = 2.0;
    missed.first_alert_years = {-1.0, 1.0, 1.5};
    DeviceOutcome false_alarm;
    false_alarm.index = 2;
    false_alarm.screen_score = 1.1;
    false_alarm.failure_years = 12.0;  // wear-out, not early
    false_alarm.first_alert_years = {-1.0, 10.0, 11.0};
    DeviceOutcome survivor;
    survivor.index = 3;
    survivor.screen_score = 0.0;
    survivor.first_alert_years = {-1.0, -1.0, -1.0};

    const std::vector<DeviceOutcome> outcomes{caught, missed, false_alarm,
                                              survivor};
    const CampaignAggregate agg =
        aggregate_outcomes(outcomes, AggregateConfig{3.0});

    EXPECT_EQ(agg.population, 4u);
    EXPECT_EQ(agg.marginal, 2u);
    EXPECT_EQ(agg.failed, 3u);
    EXPECT_EQ(agg.early_failures, 2u);
    EXPECT_EQ(agg.survived, 1u);
    EXPECT_EQ(agg.classification.positives, 2u);
    EXPECT_EQ(agg.classification.negatives, 2u);
    EXPECT_EQ(agg.classification.true_positives, 1u);
    EXPECT_EQ(agg.classification.false_positives, 1u);
    EXPECT_EQ(agg.classification.false_negatives, 1u);
    EXPECT_EQ(agg.classification.true_negatives, 1u);
    EXPECT_DOUBLE_EQ(agg.classification.precision, 0.5);
    EXPECT_DOUBLE_EQ(agg.classification.recall, 0.5);
    // Lead times: only devices with both an alert and a failure count.
    EXPECT_EQ(agg.lead_time_imminent.count, 3u);
    // caught: 1.0 - 0.25 = 0.75 on the widest band ladder entry.
    EXPECT_GT(agg.lead_time_wide.mean, 0.0);
    // Wear-out curve covers the failed non-marginal devices only.
    EXPECT_EQ(agg.wearout_failure_years.count, 1u);
    EXPECT_DOUBLE_EQ(agg.wearout_failure_years.p50, 12.0);
}

TEST(Aggregate, CsvHasHeaderAndOneRowPerOutcome) {
    DeviceOutcome out;
    out.index = 5;
    out.marginal = true;
    out.first_alert_years = {-1.0, 2.0, 3.0};
    out.failure_years = 4.0;
    const std::string csv = outcomes_csv(std::vector<DeviceOutcome>{out});
    EXPECT_NE(csv.find("index,marginal,"), std::string::npos);
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
    EXPECT_NE(csv.find("\n5,1,"), std::string::npos);
}

TEST(Aggregate, EmptyPopulationIsSafe) {
    const CampaignAggregate agg =
        aggregate_outcomes(std::vector<DeviceOutcome>{}, AggregateConfig{});
    EXPECT_EQ(agg.population, 0u);
    EXPECT_DOUBLE_EQ(agg.classification.roc_auc, 0.5);
    EXPECT_EQ(agg.lead_time_wide.count, 0u);
    EXPECT_TRUE(std::isfinite(agg.classification.average_precision));
}

}  // namespace
}  // namespace fastmon
