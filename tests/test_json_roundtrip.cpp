// Symmetric JSON round-tripping: every report row type that grew a
// from_json in the incremental-STA PR must satisfy
// from_json(to_json(x)) == x, and reject structurally wrong input with
// nullopt instead of garbage values.
#include <gtest/gtest.h>

#include <limits>
#include <optional>

#include "campaign/aggregate.hpp"
#include "campaign/fleet.hpp"
#include "campaign/rollout.hpp"
#include "flow/hdf_flow.hpp"
#include "monitor/aging.hpp"
#include "util/json.hpp"
#include "wearout/activity.hpp"
#include "wearout/mechanism.hpp"
#include "wearout/mission.hpp"

namespace fastmon {
namespace {

// One template drives every row type: serialize, parse back through
// the validating from_json, compare with the defaulted operator==.
template <typename T>
void expect_roundtrip(const T& value) {
    const Json j = value.to_json();
    const std::optional<T> back = T::from_json(j);
    ASSERT_TRUE(back.has_value()) << j.dump(2);
    EXPECT_EQ(*back, value) << j.dump(2);
}

template <typename T>
void expect_rejected(const Json& j) {
    EXPECT_FALSE(T::from_json(j).has_value()) << j.dump(2);
}

TEST(JsonRoundtrip, DeviceOutcome) {
    DeviceOutcome out;
    out.index = 42;
    out.marginal = true;
    out.num_defects = 2;
    out.aging_amplitude = 0.135;
    out.first_alert_years = {-1.0, 2.5, 4.25, 8.0};
    out.failure_years = 9.75;
    out.margin_used_t0 = 0.61;
    out.screen_score = 1.75;
    expect_roundtrip(out);
    expect_roundtrip(DeviceOutcome{});  // all defaults
}

TEST(JsonRoundtrip, LifetimePoint) {
    LifetimePoint p;
    p.years = 3.25;
    p.worst_monitored_arrival = 812.5;
    p.worst_arrival = 911.0;
    p.alerts = {false, true, true, false, true};
    p.timing_failure = true;
    expect_roundtrip(p);
    expect_roundtrip(LifetimePoint{});
}

TEST(JsonRoundtrip, DistributionSummary) {
    DistributionSummary d;
    d.count = 37;
    d.mean = 4.125;
    d.p10 = 1.5;
    d.p50 = 4.0;
    d.p90 = 7.75;
    expect_roundtrip(d);
    expect_roundtrip(DistributionSummary{});
}

TEST(JsonRoundtrip, CoverageBySpeed) {
    CoverageBySpeed c;
    c.fmax_factor = 1.125;
    c.conv = 0.875;
    c.prop = 0.9375;
    expect_roundtrip(c);
}

TEST(JsonRoundtrip, CoverageRow) {
    CoverageRow r;
    r.coverage = 0.95;
    r.num_frequencies = 6;
    r.naive_pc = 48;
    r.schedule_size = 17;
    r.reduction_percent = 64.58333333333333;
    expect_roundtrip(r);
    expect_roundtrip(CoverageRow{});
}

TEST(JsonRoundtrip, DeviceOutcomeWithAttribution) {
    DeviceOutcome out;
    out.index = 3;
    out.failure_years = 6.5;
    out.first_alert_years = {-1.0, 4.0};
    out.dominant_mechanism = "nbti";
    out.dominant_share = 0.625;
    expect_roundtrip(out);
}

TEST(JsonRoundtrip, OperatingPoint) {
    OperatingPoint op;
    op.temperature_c = 105.0;
    op.vdd = 0.85;
    op.frequency_ghz = 1.5;
    op.duty_cycle = 0.75;
    expect_roundtrip(op);
    expect_roundtrip(OperatingPoint{});
}

TEST(JsonRoundtrip, MissionPhaseAndProfile) {
    MissionPhase phase;
    phase.name = "highway";
    phase.duration_years = 0.125;
    phase.op.temperature_c = 105.0;
    expect_roundtrip(phase);

    // Every builtin profile survives the disk round trip — this is the
    // path custom --mission-profile JSON files take.
    for (const MissionProfile& p : builtin_mission_profiles()) {
        expect_roundtrip(p);
    }
    MissionProfile hold;
    hold.name = "hold";
    hold.cycle = false;
    hold.phases = {phase};
    expect_roundtrip(hold);
}

TEST(JsonRoundtrip, MechanismConfig) {
    for (const MechanismKind kind :
         {MechanismKind::LegacyPowerLaw, MechanismKind::Nbti,
          MechanismKind::Hci, MechanismKind::Em, MechanismKind::Tddb}) {
        expect_roundtrip(MechanismConfig::defaults(kind));
    }
    MechanismConfig custom = MechanismConfig::defaults(MechanismKind::Hci);
    custom.amplitude = 0.0625;
    custom.weibull_beta = 1.5;
    expect_roundtrip(custom);
}

TEST(JsonRoundtrip, ActivityConfig) {
    expect_roundtrip(ActivityConfig{});
    ActivityConfig constant;
    constant.mode = ActivityConfig::Mode::Constant;
    constant.num_pattern_pairs = 8;
    constant.seed = 99;
    expect_roundtrip(constant);
}

TEST(JsonRoundtrip, WearoutRejectsUnphysicalValues) {
    // Operating point: below absolute zero, dead rail, duty > 1.
    OperatingPoint op;
    Json j = op.to_json();
    j.set("temperature_c", -300.0);
    expect_rejected<OperatingPoint>(j);
    j = op.to_json();
    j.set("vdd", 0.0);
    expect_rejected<OperatingPoint>(j);
    j = op.to_json();
    j.set("duty_cycle", 1.5);
    expect_rejected<OperatingPoint>(j);

    // Phase: non-positive duration.
    MissionPhase phase;
    phase.name = "p";
    Json jp = phase.to_json();
    jp.set("duration_years", 0.0);
    expect_rejected<MissionPhase>(jp);

    // Profile: empty phase array, missing cycle flag.
    MissionProfile profile;
    profile.name = "x";
    profile.phases = {phase};
    Json jm = profile.to_json();
    jm.set("phases", Json::array());
    expect_rejected<MissionProfile>(jm);
    jm = profile.to_json();
    jm.set("cycle", Json());
    expect_rejected<MissionProfile>(jm);

    // Mechanism: unknown kind, negative amplitude, degenerate Weibull.
    MechanismConfig mech = MechanismConfig::defaults(MechanismKind::Em);
    Json jk = mech.to_json();
    jk.set("kind", "rust");
    expect_rejected<MechanismConfig>(jk);
    jk = mech.to_json();
    jk.set("amplitude", -0.1);
    expect_rejected<MechanismConfig>(jk);
    jk = mech.to_json();
    jk.set("weibull_beta", 0.0);
    expect_rejected<MechanismConfig>(jk);

    // Activity: unknown mode, zero, fractional, negative or
    // out-of-range pattern pairs, a non-integral or negative seed.
    ActivityConfig act;
    Json ja = act.to_json();
    ja.set("mode", "psychic");
    expect_rejected<ActivityConfig>(ja);
    for (const double bad : {0.0, 2.5, -1.0, 1e300}) {
        ja = act.to_json();
        ja.set("num_pattern_pairs", bad);
        expect_rejected<ActivityConfig>(ja);
    }
    for (const double bad : {0.5, -1.0, 18446744073709551616.0}) {
        ja = act.to_json();
        ja.set("seed", bad);
        expect_rejected<ActivityConfig>(ja);
    }

    // Outcome: attribution share without a mechanism name is malformed.
    DeviceOutcome out;
    out.dominant_mechanism = "nbti";
    out.dominant_share = 0.5;
    Json jo = out.to_json();
    jo.set("dominant_mechanism", 7.0);
    expect_rejected<DeviceOutcome>(jo);
}

TEST(JsonRoundtrip, RejectsWrongShapes) {
    expect_rejected<DeviceOutcome>(Json::array());
    expect_rejected<LifetimePoint>(Json::array());
    expect_rejected<DistributionSummary>(Json::object());

    // Field with the wrong type: "years" as a string.
    LifetimePoint p;
    p.alerts = {true};
    Json j = p.to_json();
    j.set("years", "three");
    expect_rejected<LifetimePoint>(j);

    // Alerts must be an array of booleans.
    Json j2 = p.to_json();
    Json bad_alerts = Json::array();
    bad_alerts.push_back(1.0);
    j2.set("alerts", std::move(bad_alerts));
    expect_rejected<LifetimePoint>(j2);

    // Missing required field.
    DistributionSummary d;
    Json j3 = d.to_json();
    j3.set("p50", Json());
    expect_rejected<DistributionSummary>(j3);

    CoverageRow r;
    Json j4 = r.to_json();
    j4.set("num_frequencies", "six");
    expect_rejected<CoverageRow>(j4);

    CoverageBySpeed c;
    Json j5 = c.to_json();
    j5.set("conv", true);
    expect_rejected<CoverageBySpeed>(j5);

    // Integer fields read back from checkpoint, shard and cache files:
    // a fraction, a negative, one past the 32-bit range (which a bare
    // cast would wrap to device 0), NaN and inf are all rejected.
    const double bad_uint32[] = {2.5, -1.0, 4294967296.0,
                                 std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity()};
    for (const double bad : bad_uint32) {
        for (const char* key : {"index", "num_defects"}) {
            Json jo = DeviceOutcome{}.to_json();
            jo.set(key, bad);
            expect_rejected<DeviceOutcome>(jo);
        }
        for (const char* key : {"shard_index", "shard_count", "attempts"}) {
            FleetJob job;
            job.id = "shard-0";
            Json jf = job.to_json();
            jf.set(key, bad);
            EXPECT_FALSE(FleetJob::from_json(jf).has_value()) << key;
        }
    }
    for (const double bad : {2.5, -1.0, 1e300}) {
        Json jd = d.to_json();
        jd.set("count", bad);
        expect_rejected<DistributionSummary>(jd);
        for (const char* key :
             {"num_frequencies", "naive_pc", "schedule_size"}) {
            Json jr = r.to_json();
            jr.set(key, bad);
            expect_rejected<CoverageRow>(jr);
        }
    }
    // The largest valid values still parse.
    DeviceOutcome edge;
    edge.index = 4294967295u;
    edge.num_defects = 4294967295u;
    expect_roundtrip(edge);
}

}  // namespace
}  // namespace fastmon
