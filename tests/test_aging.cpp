#include "monitor/aging.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "netlist/iscas_data.hpp"
#include "timing/sta_engine.hpp"
#include "util/prng.hpp"
#include "wearout/wearout.hpp"

namespace fastmon {
namespace {

TEST(AgingModel, FactorMonotoneAndAnchored) {
    AgingModel m;
    m.amplitude = 0.2;
    m.exponent = 0.3;
    m.t_ref_years = 10.0;
    EXPECT_DOUBLE_EQ(m.factor(0.0), 1.0);
    EXPECT_DOUBLE_EQ(m.factor(-3.0), 1.0);
    EXPECT_NEAR(m.factor(10.0), 1.2, 1e-12);
    double prev = 1.0;
    for (double y = 0.5; y <= 20.0; y += 0.5) {
        const double f = m.factor(y);
        EXPECT_GT(f, prev);
        prev = f;
    }
}

TEST(AgingModel, FactorIsOneAtAndBeforeDeployment) {
    AgingModel m;
    m.amplitude = 0.2;
    m.exponent = 0.3;
    m.t_ref_years = 10.0;
    // years <= 0 (and NaN) must give exactly 1.0 for every exponent:
    // pow(0, n) raises domain errors for n < 0 and pow(negative, 0.3)
    // is NaN, so the mission-profile path (which queries tau = 0 at
    // deployment) relies on the explicit guard.
    EXPECT_EQ(m.factor(0.0), 1.0);
    EXPECT_EQ(m.factor(-5.0), 1.0);
    EXPECT_EQ(m.factor(std::numeric_limits<double>::quiet_NaN()), 1.0);
    AgingModel inverse = m;
    inverse.exponent = -0.5;
    EXPECT_EQ(inverse.factor(0.0), 1.0);
    EXPECT_EQ(inverse.factor(-1.0), 1.0);
    EXPECT_TRUE(std::isfinite(inverse.factor(1e-300)));
    // The closed form holds bit-for-bit on the positive branch and
    // anchors at exactly 1 + amplitude at t_ref.
    for (double y : {0.25, 1.0, 7.5, 10.0, 14.75}) {
        EXPECT_EQ(m.factor(y),
                  1.0 + m.amplitude * std::pow(y / m.t_ref_years, m.exponent));
    }
    EXPECT_DOUBLE_EQ(m.factor(10.0), 1.2);
}

TEST(AgingModel, SublinearExponentFrontLoads) {
    AgingModel m;
    m.amplitude = 0.2;
    m.exponent = 0.25;
    // More than half of the 10-year degradation lands in year one.
    EXPECT_GT(m.factor(1.0) - 1.0, 0.5 * (m.factor(10.0) - 1.0));
}

TEST(MarginalDefect, GrowsAndSaturates) {
    MarginalDefect d;
    d.delta0 = 2.0;
    d.growth_per_year = 1.0;
    d.delta_max = 20.0;
    EXPECT_NEAR(d.delta_at(0.0), 2.0, 1e-12);
    EXPECT_GT(d.delta_at(1.0), d.delta_at(0.5));
    EXPECT_DOUBLE_EQ(d.delta_at(10.0), 20.0);  // saturated
    MarginalDefect unbounded = d;
    unbounded.delta_max = 0.0;
    EXPECT_GT(unbounded.delta_at(10.0), 20.0);
}

TEST(MarginalDefect, ExtremeHorizonsStayFinite) {
    // exp(growth * years) overflows to inf around year ~700 at unit
    // growth; the campaign engine sweeps arbitrary user horizons, so
    // the growth law must saturate instead.
    MarginalDefect d;
    d.delta0 = 2.0;
    d.growth_per_year = 1.0;
    d.delta_max = 20.0;
    EXPECT_DOUBLE_EQ(d.delta_at(1e6), 20.0);
    EXPECT_DOUBLE_EQ(d.delta_at(std::numeric_limits<double>::max()), 20.0);

    MarginalDefect unbounded = d;
    unbounded.delta_max = 0.0;
    const double extreme = unbounded.delta_at(1e6);
    EXPECT_TRUE(std::isfinite(extreme));
    EXPECT_GT(extreme, 1e100);
    // Negative horizons are treated as t = 0, not as decay.
    EXPECT_DOUBLE_EQ(d.delta_at(-3.0), 2.0);
}

struct AgingFixture : ::testing::Test {
    Netlist nl = make_mini_alu();
    DelayAnnotation base = DelayAnnotation::nominal(nl);
    StaResult sta = StaEngine(nl, base, 1.6).analyze();
    MonitorPlacement placement = place_paper_monitors(nl, sta);
    AgingModel aging{0.5, 1.0, 10.0};
};

TEST_F(AgingFixture, DegradationIncreasesArrival) {
    LifetimeSimulator sim(nl, base, sta.clock_period, aging, 1);
    const LifetimePoint p0 = sim.evaluate(0.0, placement);
    const LifetimePoint p5 = sim.evaluate(5.0, placement);
    const LifetimePoint p10 = sim.evaluate(10.0, placement);
    EXPECT_LT(p0.worst_arrival, p5.worst_arrival);
    EXPECT_LT(p5.worst_arrival, p10.worst_arrival);
    EXPECT_GE(p0.worst_arrival, p0.worst_monitored_arrival - 1e-9);
}

TEST_F(AgingFixture, AlertsAreMonotoneInWindowWidth) {
    LifetimeSimulator sim(nl, base, sta.clock_period, aging, 1);
    for (double y : {0.0, 2.0, 5.0, 8.0, 11.0}) {
        const LifetimePoint p = sim.evaluate(y, placement);
        // If a narrow window alerts, every wider one must too.
        for (std::size_t c = 2; c < p.alerts.size(); ++c) {
            if (p.alerts[c - 1]) {
                EXPECT_TRUE(p.alerts[c])
                    << "year " << y << " config " << c;
            }
        }
        EXPECT_FALSE(p.alerts[0]);  // off-config never alerts
    }
}

TEST_F(AgingFixture, WideWindowAlertsBeforeNarrowBeforeFailure) {
    LifetimeSimulator sim(nl, base, sta.clock_period, aging, 1);
    std::vector<double> grid;
    for (double y = 0.0; y <= 14.0; y += 0.1) grid.push_back(y);
    const std::vector<double> first = sim.first_alert_years(grid, placement);
    ASSERT_EQ(first.size(), placement.config_delays.size());
    EXPECT_LT(first[0], 0.0);  // off never alerts
    // Wider windows alert earlier (or at the same grid step).
    for (std::size_t c = 2; c < first.size(); ++c) {
        if (first[c - 1] >= 0.0 && first[c] >= 0.0) {
            EXPECT_LE(first[c], first[c - 1]);
        }
    }
    // Failure year: first grid point with timing failure must come
    // after the widest window's first alert.
    double failure = -1.0;
    for (const LifetimePoint& p : sim.sweep(grid, placement)) {
        if (p.timing_failure) {
            failure = p.years;
            break;
        }
    }
    ASSERT_GE(failure, 0.0) << "50% degradation must eventually fail";
    EXPECT_LT(first.back(), failure);
}

TEST_F(AgingFixture, DefectAcceleratesAlerts) {
    LifetimeSimulator healthy(nl, base, sta.clock_period, aging, 1);
    LifetimeSimulator marginal(nl, base, sta.clock_period, aging, 1);
    MarginalDefect defect;
    defect.site =
        FaultSite{nl.observe_points()[placement.monitor_observes[0]].signal,
                  FaultSite::kOutputPin};
    defect.delta0 = 0.05 * sta.clock_period;
    defect.growth_per_year = 1.0;
    marginal.add_defect(defect);
    std::vector<double> grid;
    for (double y = 0.0; y <= 12.0; y += 0.25) grid.push_back(y);
    const auto fh = healthy.first_alert_years(grid, placement);
    const auto fm = marginal.first_alert_years(grid, placement);
    // The widest window alerts earlier on the marginal device.
    ASSERT_GE(fh.back(), 0.0);
    ASSERT_GE(fm.back(), 0.0);
    EXPECT_LT(fm.back(), fh.back());
}

TEST_F(AgingFixture, DegradedAnnotationScalesArcs) {
    LifetimeSimulator sim(nl, base, sta.clock_period, aging, 1);
    const DelayAnnotation aged = sim.degraded(10.0);
    for (GateId id = 0; id < nl.size(); ++id) {
        const Gate& g = nl.gate(id);
        if (!is_combinational(g.type)) continue;
        for (std::uint32_t p = 0; p < g.fanin.size(); ++p) {
            // Rate jitter is within [0.5, 1.5] of the nominal aging.
            const double ratio = aged.arc(id, p).rise / base.arc(id, p).rise;
            EXPECT_GE(ratio, 1.0 + 0.5 * 0.5 - 1e-9);
            EXPECT_LE(ratio, 1.0 + 0.5 * 1.5 + 1e-9);
        }
    }
}

TEST_F(AgingFixture, LegacyPresetFillMatchesClosedForm) {
    // Independent oracle for the registry fill under the legacy preset:
    // gate g's scale is 1 + (factor(y) - 1) * u_g, bit-for-bit, with
    // u_g the documented jitter draw (Prng(seed ^ 0xA61713), one
    // uniform(0.5, 1.5) per gate in ascending id); defect extras follow
    // in entry order.
    const WearoutModel preset(nl, base, WearoutConfig::legacy_preset());
    const AgingModel model{0.13, 0.27, 10.0};
    const std::uint64_t seed = 77;
    DeviceDegradation degradation;
    degradation.reset(nl, model, seed, preset);
    std::vector<GateId> comb;
    for (GateId id = 0; id < nl.size(); ++id) {
        if (is_combinational(nl.gate(id).type)) comb.push_back(id);
    }
    ASSERT_GE(comb.size(), 2u);
    const MarginalDefect output_defect{
        FaultSite{comb.front(), FaultSite::kOutputPin}, 0.5, 0.8, 3.0};
    const MarginalDefect pin_defect{FaultSite{comb.back(), 0}, 0.25, 1.5,
                                    0.0};
    degradation.add_defect(output_defect);
    degradation.add_defect(pin_defect);

    Prng rng(seed ^ 0xA61713ULL);
    std::vector<double> jitter(nl.size());
    for (double& u : jitter) u = rng.uniform(0.5, 1.5);

    std::vector<double> years = {0.0, -2.5,
                                 std::numeric_limits<double>::quiet_NaN()};
    for (int i = 0; i <= 60; ++i) years.push_back(0.25 * i);
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    DelayDelta delta;
    for (const double y : years) {
        degradation.fill_delta(y, delta);
        ASSERT_EQ(delta.scales.size(), comb.size()) << y;
        for (std::size_t k = 0; k < comb.size(); ++k) {
            const double expected =
                1.0 + (model.factor(y) - 1.0) * jitter[comb[k]];
            EXPECT_EQ(delta.scales[k].gate, comb[k]);
            EXPECT_EQ(bits(delta.scales[k].factor), bits(expected))
                << "year " << y << " gate " << comb[k];
        }
        // The defects carry positive deltas at every year (negative
        // and NaN years clamp to deployment).
        ASSERT_EQ(delta.extras.size(), 2u) << y;
        EXPECT_EQ(delta.extras[0].gate, comb.front());
        EXPECT_EQ(delta.extras[0].pin, DelayDelta::kAllPins);
        EXPECT_EQ(bits(delta.extras[0].extra),
                  bits(output_defect.delta_at(y)));
        EXPECT_EQ(delta.extras[1].gate, comb.back());
        EXPECT_EQ(delta.extras[1].pin, 0u);
        EXPECT_EQ(bits(delta.extras[1].extra), bits(pin_defect.delta_at(y)));
        // The preset is disabled wear-out: no attribution.
        EXPECT_EQ(degradation.dominant_mechanism(y), nullptr);
    }
}

}  // namespace
}  // namespace fastmon
