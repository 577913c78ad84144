// Differential tests for the batched structure-of-arrays STA engine:
// every lane of a BatchStaEngine must reproduce a scalar StaEngine
// evaluating the same device bit-for-bit (EXPECT_EQ on doubles, no
// tolerance — the per-lane operation order is the scalar order, so the
// documented <= 4 ulp contract is headroom, not slack).  Covers lane
// loading from variation factors, dense per-lane deltas, lane
// retirement/reload, defect extras of every shape, and the
// BatchRollout device path against roll_device (ragged and streamed
// spans).
#include "timing/batch_sta_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/population.hpp"
#include "campaign/rollout.hpp"
#include "monitor/placement.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas_data.hpp"
#include "timing/sta_engine.hpp"
#include "util/prng.hpp"

namespace fastmon {
namespace {

struct BatchFixture : ::testing::Test {
    Netlist nl = generate_circuit(
        GeneratorConfig{"batch_diff", 300, 24, 8, 8, 10, 0.55, 77});
    DelayAnnotation nominal = DelayAnnotation::nominal(nl);
    std::vector<GateId> comb = [this] {
        std::vector<GateId> ids;
        for (GateId id = 0; id < nl.size(); ++id) {
            if (is_combinational(nl.gate(id).type)) ids.push_back(id);
        }
        return ids;
    }();

    static constexpr double kSigmaLog = 0.06;

    /// Scalar engine for device `seed`, loaded exactly the way the
    /// campaign's scalar path does (materialized annotation).
    struct ScalarLane {
        DelayAnnotation annotation;
        std::unique_ptr<StaEngine> engine;
    };
    ScalarLane make_scalar(std::uint64_t seed, double margin = 1.0) const {
        ScalarLane lane{DelayAnnotation::with_lognormal_variation(
                            nl, kSigmaLog, seed),
                        nullptr};
        lane.engine = std::make_unique<StaEngine>(
            nl, lane.annotation, margin, StaEngine::Scope::Arrivals);
        return lane;
    }

    void load_device_lane(BatchStaEngine& batch, std::size_t lane,
                          std::uint64_t seed) const {
        std::vector<double> factors;
        DelayAnnotation::lognormal_variation_factors(nl, kSigmaLog, seed,
                                                     factors);
        batch.load_lane(lane, factors);
    }

    /// Aging-like dense delta plus a couple of defect extras, device-
    /// and round-specific.
    DelayDelta device_delta(std::uint64_t seed, int round) const {
        Prng rng = Prng::stream(seed, 0xBA7C4 + static_cast<std::uint64_t>(round));
        DelayDelta delta;
        const double severity = 0.02 * (round + 1);
        for (const GateId g : comb) {
            delta.scale(g, 1.0 + severity * rng.uniform(0.5, 1.5));
        }
        for (int k = 0; k < 2; ++k) {
            const GateId g =
                comb[static_cast<std::size_t>(rng.next_below(comb.size()))];
            delta.add(g, DelayDelta::kAllPins, rng.uniform(0.5, 10.0));
        }
        return delta;
    }

    void expect_lane_matches(const BatchStaEngine& batch, std::size_t lane,
                             const StaResult& want) const {
        for (GateId id = 0; id < nl.size(); ++id) {
            EXPECT_EQ(batch.max_arrival(id, lane), want.max_arrival[id])
                << "lane " << lane << " gate " << id;
        }
        EXPECT_EQ(batch.critical_path_length(lane),
                  want.critical_path_length);
        EXPECT_EQ(batch.clock_period(lane), want.clock_period);
    }
};

TEST_F(BatchFixture, LanesMatchScalarEnginesBitwise) {
    BatchStaEngine batch(nl, nominal);
    std::vector<ScalarLane> scalars;
    for (std::size_t l = 0; l < kBatchWidth; ++l) {
        const std::uint64_t seed = 100 + l;
        load_device_lane(batch, l, seed);
        scalars.push_back(make_scalar(seed));
    }
    std::vector<DelayDelta> deltas(kBatchWidth);
    for (int round = 0; round < 5; ++round) {
        BatchDelayDelta bd;
        for (std::size_t l = 0; l < kBatchWidth; ++l) {
            deltas[l] = device_delta(100 + l, round);
            bd.set(l, &deltas[l]);
        }
        batch.update(bd);
        for (std::size_t l = 0; l < kBatchWidth; ++l) {
            expect_lane_matches(batch, l,
                                scalars[l].engine->update(deltas[l]));
        }
    }
    EXPECT_EQ(batch.stats().batch_passes, 5u);
    EXPECT_EQ(batch.stats().lane_loads, kBatchWidth);
}

TEST_F(BatchFixture, RetiredLaneDoesNotDrainTheBatch) {
    BatchStaEngine batch(nl, nominal);
    std::vector<ScalarLane> scalars;
    for (std::size_t l = 0; l < kBatchWidth; ++l) {
        const std::uint64_t seed = 500 + l;
        load_device_lane(batch, l, seed);
        scalars.push_back(make_scalar(seed));
    }
    std::vector<DelayDelta> deltas(kBatchWidth);
    const std::size_t retired = kBatchWidth / 2;
    for (int round = 0; round < 4; ++round) {
        if (round == 2) {
            batch.retire_lane(retired);
            EXPECT_FALSE(batch.lane_active(retired));
        }
        BatchDelayDelta bd;
        for (std::size_t l = 0; l < kBatchWidth; ++l) {
            if (round >= 2 && l == retired) continue;  // null slot
            deltas[l] = device_delta(500 + l, round);
            bd.set(l, &deltas[l]);
        }
        batch.update(bd);
        for (std::size_t l = 0; l < kBatchWidth; ++l) {
            if (round >= 2 && l == retired) continue;
            expect_lane_matches(batch, l,
                                scalars[l].engine->update(deltas[l]));
        }
    }
    EXPECT_EQ(batch.active_lanes(), kBatchWidth - 1);

    // Reload the retired lane with a fresh device; it rejoins the
    // batch bit-exactly.
    load_device_lane(batch, retired, 999);
    ScalarLane fresh = make_scalar(999);
    BatchDelayDelta bd;
    for (std::size_t l = 0; l < kBatchWidth; ++l) {
        deltas[l] = device_delta(l == retired ? 999 : 500 + l, 7);
        bd.set(l, &deltas[l]);
    }
    batch.update(bd);
    expect_lane_matches(batch, retired, fresh.engine->update(deltas[retired]));
}

TEST_F(BatchFixture, PinAndRepeatedExtrasMatchScalar) {
    // The fused forward pass adds extras per arc inside the pin loop;
    // cover every shape DelayDelta allows, not only the kAllPins
    // extras a degradation delta carries: a pin-specific extra, two
    // extras on one arc, kAllPins plus a pin extra on one gate, lanes
    // with extras next to lanes without, and a retired lane reloaded.
    std::vector<GateId> multi;
    for (const GateId g : comb) {
        if (nl.gate(g).fanin.size() >= 2) multi.push_back(g);
    }
    ASSERT_GE(multi.size(), 3u);
    const GateId pin_gate = multi[0];
    const GateId twice_gate = multi[multi.size() / 2];
    const GateId mixed_gate = multi.back();
    const auto with_extras = [&](std::uint64_t seed, int round,
                                 std::size_t lane) {
        DelayDelta delta = device_delta(seed, round);
        delta.extras.clear();
        if (lane % 2 == 1) return delta;  // a lane without extras
        delta.add(pin_gate, 1, 3.0 + round);
        delta.add(twice_gate, 0, 1.25);
        delta.add(mixed_gate, DelayDelta::kAllPins, 2.5);
        delta.add(twice_gate, 0, 0.5 * (round + 1));
        delta.add(mixed_gate, 1, 4.0 + lane);
        return delta;
    };

    BatchStaEngine batch(nl, nominal);
    std::vector<ScalarLane> scalars;
    std::vector<std::uint64_t> seeds;
    for (std::size_t l = 0; l < kBatchWidth; ++l) {
        seeds.push_back(300 + l);
        load_device_lane(batch, l, seeds[l]);
        scalars.push_back(make_scalar(seeds[l]));
    }
    const std::size_t retired = kBatchWidth - 1;
    std::vector<DelayDelta> deltas(kBatchWidth);
    for (int round = 0; round < 5; ++round) {
        if (round == 2) batch.retire_lane(retired);
        if (round == 3) {
            seeds[retired] = 777;
            load_device_lane(batch, retired, seeds[retired]);
            scalars[retired] = make_scalar(seeds[retired]);
        }
        BatchDelayDelta bd;
        for (std::size_t l = 0; l < kBatchWidth; ++l) {
            if (round == 2 && l == retired) continue;  // null slot
            deltas[l] = with_extras(seeds[l], round, l);
            bd.set(l, &deltas[l]);
        }
        batch.update(bd);
        for (std::size_t l = 0; l < kBatchWidth; ++l) {
            if (round == 2 && l == retired) continue;
            expect_lane_matches(batch, l,
                                scalars[l].engine->update(deltas[l]));
        }
    }
}

/// Campaign-shaped rollout context over the mini-ALU, built the way
/// run_campaign's prepare phase does.
struct RolloutFixture : ::testing::Test {
    Netlist nl = make_mini_alu();
    DelayAnnotation nominal = DelayAnnotation::nominal(nl);
    MonitorPlacement placement;
    RolloutContext ctx;
    std::vector<GateId> sites = combinational_sites(nl);
    PopulationModel model = [] {
        PopulationModel m;
        m.defect.incidence = 0.4;
        return m;
    }();

    void SetUp() override {
        StaEngine engine(nl, nominal, 1.6);
        const StaResult& sta = engine.analyze();
        const double fractions[] = {0.05, 0.10, 0.15, 1.0 / 3.0};
        placement = place_monitors(nl, sta, 0.25, fractions);
        ctx.netlist = &nl;
        ctx.placement = &placement;
        ctx.clock_period = sta.clock_period;
        ctx.grid = make_year_grid(12.0, 0.5);
        ctx.screen_years = 0.5;
        ctx.variation_sigma_log = 0.05;
    }

    std::vector<DeviceSample> sample(std::size_t count,
                                     std::uint64_t seed = 21) const {
        std::vector<DeviceSample> samples;
        for (std::size_t i = 0; i < count; ++i) {
            samples.push_back(sample_device(model, seed,
                                            static_cast<std::uint32_t>(i),
                                            sites, ctx.clock_period));
        }
        return samples;
    }
};

TEST_F(RolloutFixture, BatchRollMatchesRollDeviceBitwise) {
    const auto samples = sample(kBatchWidth);
    std::vector<DeviceOutcome> batched(samples.size());
    BatchRollout rollout(ctx);
    rollout.roll(samples, batched);
    std::unique_ptr<StaEngine> scratch;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        EXPECT_EQ(batched[i], roll_device(ctx, samples[i], &scratch))
            << "device " << i;
    }
    EXPECT_EQ(rollout.stats().devices, samples.size());
    EXPECT_EQ(rollout.stats().batches, 1u);
}

TEST_F(RolloutFixture, RaggedBatchesMatchRollDevice) {
    // Every ragged size 1..width: trailing lanes retire, outcomes stay
    // bit-identical to the scalar path.
    BatchRollout rollout(ctx);
    std::unique_ptr<StaEngine> scratch;
    for (std::size_t n = 1; n <= kBatchWidth; ++n) {
        const auto samples = sample(n, 40 + n);
        std::vector<DeviceOutcome> batched(n);
        rollout.roll(samples, batched);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(batched[i], roll_device(ctx, samples[i], &scratch))
                << "ragged " << n << " device " << i;
        }
    }
}

TEST_F(RolloutFixture, SettledLanesRetireEarlyWithoutChangingOutcomes) {
    // High incidence + long horizon: most devices fail and trip every
    // band well before the horizon, so lanes must settle early — and
    // still match the scalar path, which always evaluates every year.
    PopulationModel hot = model;
    hot.defect.incidence = 1.0;
    std::vector<DeviceSample> samples;
    for (std::size_t i = 0; i < kBatchWidth; ++i) {
        samples.push_back(sample_device(hot, 77,
                                        static_cast<std::uint32_t>(i), sites,
                                        ctx.clock_period));
    }
    std::vector<DeviceOutcome> batched(samples.size());
    BatchRollout rollout(ctx);
    rollout.roll(samples, batched);
    std::unique_ptr<StaEngine> scratch;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        EXPECT_EQ(batched[i], roll_device(ctx, samples[i], &scratch))
            << "device " << i;
    }
    // The early-retirement accounting is visible: settled lanes stop
    // paying for grid years.
    EXPECT_LE(rollout.stats().lane_years,
              ctx.grid.size() * samples.size());
}

TEST_F(RolloutFixture, StreamedRollMatchesRollDevice) {
    // Defective devices settle within a few years while clean ones run
    // to the horizon: a refilling kernel keeps every lane busy, a
    // lockstep one would carry settled lanes until its slowest lane
    // finished.  One roll() streams the whole span.
    PopulationModel hot = model;
    hot.defect.incidence = 1.0;
    PopulationModel clean = model;
    clean.defect.incidence = 0.0;
    std::vector<DeviceSample> samples;
    for (std::size_t i = 0; i < 5 * kBatchWidth + 3; ++i) {
        samples.push_back(sample_device(i % 2 == 0 ? hot : clean, 93,
                                        static_cast<std::uint32_t>(i), sites,
                                        ctx.clock_period));
    }
    std::unique_ptr<StaEngine> scratch;
    std::vector<DeviceOutcome> want;
    std::uint64_t want_years = 0;
    for (const DeviceSample& s : samples) {
        want.push_back(roll_device(ctx, s, &scratch));
        // A device settles on the grid year its last outcome field
        // triggers; until then every year is evaluated.
        const DeviceOutcome& o = want.back();
        bool settles = o.failure_years >= 0.0;
        double settle = o.failure_years;
        for (std::size_t c = 1; c < o.first_alert_years.size(); ++c) {
            settles = settles && o.first_alert_years[c] >= 0.0;
            settle = std::max(settle, o.first_alert_years[c]);
        }
        want_years +=
            !settles
                ? ctx.grid.size()
                : static_cast<std::uint64_t>(
                      std::find(ctx.grid.begin(), ctx.grid.end(), settle) -
                      ctx.grid.begin()) + 1;
    }

    for (const std::size_t lanes :
         {kBatchWidth, std::min<std::size_t>(3, kBatchWidth)}) {
        BatchRollout rollout(ctx, lanes);
        std::vector<DeviceOutcome> batched(samples.size());
        rollout.roll(samples, batched);
        for (std::size_t i = 0; i < samples.size(); ++i) {
            EXPECT_EQ(batched[i], want[i])
                << lanes << " lanes, device " << i;
        }
        const BatchRollout::Stats& st = rollout.stats();
        EXPECT_EQ(st.devices, samples.size());
        EXPECT_EQ(st.batches, 1u);
        EXPECT_EQ(st.lane_years, want_years) << lanes << " lanes";
        EXPECT_GT(st.lanes_settled_early, 0u);
        // Refilled lanes: only the final drain runs short of `lanes`.
        EXPECT_LE(rollout.engine_stats().batch_passes,
                  (st.lane_years + lanes - 1) / lanes + ctx.grid.size())
            << lanes << " lanes";
    }
}

}  // namespace
}  // namespace fastmon
