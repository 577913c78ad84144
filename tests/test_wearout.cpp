// Multi-mechanism wear-out subsystem: mission profiles, mechanism
// stress rates, activity extraction, Weibull severity determinism, and
// the campaign-level differentials (legacy bit-identity with the
// constant-activity legacy-only registry; scalar/batched/full-STA
// bit-identity under a mission profile; resume across phase cycles).
#include "wearout/wearout.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "campaign/campaign.hpp"
#include "campaign/shard.hpp"
#include "netlist/builder.hpp"
#include "netlist/iscas_data.hpp"
#include "util/diagnostic.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"
#include "util/subprocess.hpp"

namespace fastmon {
namespace {

// ---------------------------------------------------------------------
// Mission profiles

TEST(MissionProfile, BuiltinsAreWellFormed) {
    const auto builtins = builtin_mission_profiles();
    ASSERT_EQ(builtins.size(), 3u);
    EXPECT_EQ(builtins[0].name, "server_247");
    EXPECT_EQ(builtins[1].name, "automotive_thermal_cycling");
    EXPECT_EQ(builtins[2].name, "mobile_bursty");
    for (const MissionProfile& p : builtins) {
        EXPECT_TRUE(p.cycle) << p.name;
        // One-year schedules so "years deployed" keeps its meaning.
        EXPECT_NEAR(p.cycle_years(), 1.0, 1e-12) << p.name;
        for (const MissionPhase& phase : p.phases) {
            EXPECT_GT(phase.duration_years, 0.0) << p.name;
            EXPECT_GE(phase.op.duty_cycle, 0.0) << p.name;
            EXPECT_LE(phase.op.duty_cycle, 1.0) << p.name;
        }
        EXPECT_EQ(find_mission_profile(p.name), &p);
    }
    EXPECT_EQ(find_mission_profile("no_such_profile"), nullptr);
}

TEST(MissionProfile, DescribeListsEveryBuiltinAndPhase) {
    const std::string catalog = describe_mission_profiles();
    for (const MissionProfile& p : builtin_mission_profiles()) {
        EXPECT_NE(catalog.find(p.name), std::string::npos);
        for (const MissionPhase& phase : p.phases) {
            EXPECT_NE(catalog.find(phase.name), std::string::npos);
        }
    }
}

MissionProfile two_phase(bool cycle) {
    MissionProfile p;
    p.name = "test";
    p.cycle = cycle;
    p.phases = {MissionPhase{"hot", 0.25, OperatingPoint{85.0, 0.85, 1.0, 0.9}},
                MissionPhase{"cold", 0.75, OperatingPoint{30.0, 0.75, 1.0, 0.1}}};
    return p;
}

TEST(MissionProfile, EquivalentYearsMatchesBruteForceWalk) {
    const MissionProfile p = two_phase(true);
    const std::vector<double> rates{3.0, 0.25};
    for (double years : {0.1, 0.25, 0.8, 1.0, 2.3, 7.6, 15.0}) {
        // Brute force: integrate rate(at(t)) dt at a fine step.
        const double dt = 1e-5;
        double acc = 0.0;
        for (double t = 0.0; t < years; t += dt) {
            const double step = std::min(dt, years - t);
            acc += step * (p.at(t) == p.phases[0].op ? rates[0] : rates[1]);
        }
        EXPECT_NEAR(p.equivalent_years(years, rates), acc, 1e-3 * acc + 1e-9)
            << "years " << years;
    }
}

TEST(MissionProfile, UnitRatesReproduceWallClock) {
    const MissionProfile cycling = two_phase(true);
    const std::vector<double> unit{1.0, 1.0};
    for (double years : {0.5, 1.0, 4.75, 15.0}) {
        EXPECT_NEAR(cycling.equivalent_years(years, unit), years, 1e-12);
    }
    // Single non-cycling phase at unit rate: bitwise equality — the
    // foundation of the legacy differential below.
    MissionProfile hold;
    hold.name = "hold";
    hold.cycle = false;
    hold.phases = {MissionPhase{"ref", 100.0, OperatingPoint{}}};
    const std::vector<double> one{1.0};
    for (double years : {0.25, 3.75, 15.0}) {
        EXPECT_EQ(hold.equivalent_years(years, one), years);
    }
    EXPECT_EQ(hold.equivalent_years(0.0, one), 0.0);
    EXPECT_EQ(hold.equivalent_years(-2.0, one), 0.0);
}

TEST(MissionProfile, NonCyclingHoldsLastPhaseOpenEnded) {
    const MissionProfile p = two_phase(false);
    const std::vector<double> rates{2.0, 0.5};
    // Past the 1-year schedule the last phase holds: 0.25*2 + t-0.25
    // at rate 0.5 from there on.
    const double expected = 0.25 * 2.0 + (10.0 - 0.25) * 0.5;
    EXPECT_NEAR(p.equivalent_years(10.0, rates), expected, 1e-12);
    EXPECT_EQ(&p.at(5.0), &p.phases.back().op);
}

TEST(MissionProfile, AtWrapsCyclesAndBoundariesBelongToLaterPhase) {
    const MissionProfile p = two_phase(true);
    EXPECT_EQ(&p.at(0.0), &p.phases[0].op);
    EXPECT_EQ(&p.at(0.1), &p.phases[0].op);
    EXPECT_EQ(&p.at(0.25), &p.phases[1].op);   // boundary -> later phase
    EXPECT_EQ(&p.at(0.9), &p.phases[1].op);
    EXPECT_EQ(&p.at(1.1), &p.phases[0].op);    // wrapped
    EXPECT_EQ(&p.at(-3.0), &p.phases[0].op);   // clamped to t = 0
    MissionProfile empty;
    EXPECT_EQ(p.at(0.3).duty_cycle, 0.1);
    EXPECT_EQ(empty.at(2.0), OperatingPoint{});  // reference fallback
}

TEST(MissionProfile, LoadResolvesBuiltinsFilesAndRejectsGarbage) {
    EXPECT_EQ(load_mission_profile("server_247").name, "server_247");
    EXPECT_THROW(load_mission_profile("definitely_not_a_profile"),
                 Diagnostic);

    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("fastmon_mission_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const std::string good = (dir / "custom.json").string();
    {
        std::ofstream out(good);
        out << two_phase(false).to_json().dump(2);
    }
    const MissionProfile loaded = load_mission_profile(good);
    EXPECT_EQ(loaded, two_phase(false));

    const std::string bad = (dir / "bad.json").string();
    {
        std::ofstream out(bad);
        out << "{ not json";
    }
    EXPECT_THROW(load_mission_profile(bad), Diagnostic);
    const std::string wrong = (dir / "wrong.json").string();
    {
        std::ofstream out(wrong);
        out << "{\"name\": \"x\"}";  // parses but isn't a profile
    }
    EXPECT_THROW(load_mission_profile(wrong), Diagnostic);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Mechanism stress rates

TEST(Mechanism, NamesRoundTrip) {
    for (const MechanismKind kind :
         {MechanismKind::LegacyPowerLaw, MechanismKind::Nbti,
          MechanismKind::Hci, MechanismKind::Em, MechanismKind::Tddb}) {
        const auto back = mechanism_from_name(mechanism_name(kind));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, kind);
    }
    EXPECT_FALSE(mechanism_from_name("bogus").has_value());
}

TEST(Mechanism, RateIsExactlyOneAtTheReferencePoint) {
    const OperatingPoint ref;
    for (const MechanismKind kind :
         {MechanismKind::LegacyPowerLaw, MechanismKind::Nbti,
          MechanismKind::Hci, MechanismKind::Em, MechanismKind::Tddb}) {
        const MechanismConfig cfg = MechanismConfig::defaults(kind);
        EXPECT_EQ(cfg.rate(ref, ref), 1.0) << mechanism_name(kind);
    }
}

TEST(Mechanism, ArrheniusAcceleratesHotMechanismsAndCoolsHci) {
    const OperatingPoint ref;
    OperatingPoint hot = ref;
    hot.temperature_c = 105.0;
    OperatingPoint cold = ref;
    cold.temperature_c = -20.0;
    for (const MechanismKind kind : {MechanismKind::Nbti, MechanismKind::Em,
                                     MechanismKind::Tddb}) {
        const MechanismConfig cfg = MechanismConfig::defaults(kind);
        EXPECT_GT(cfg.rate(hot, ref), 1.0) << mechanism_name(kind);
        EXPECT_LT(cfg.rate(cold, ref), 1.0) << mechanism_name(kind);
    }
    // Hot-carrier damage is anti-Arrhenius: worst when cold.
    const MechanismConfig hci = MechanismConfig::defaults(MechanismKind::Hci);
    EXPECT_LT(hci.rate(hot, ref), 1.0);
    EXPECT_GT(hci.rate(cold, ref), 1.0);
}

TEST(Mechanism, VoltageDutyAndFrequencyScaleAsDeclared) {
    const OperatingPoint ref;
    OperatingPoint overdrive = ref;
    overdrive.vdd = 0.90;
    const MechanismConfig nbti = MechanismConfig::defaults(MechanismKind::Nbti);
    EXPECT_NEAR(nbti.rate(overdrive, ref),
                std::exp(nbti.voltage_gamma * 0.10), 1e-12);

    OperatingPoint half_duty = ref;
    half_duty.duty_cycle = 0.5;
    EXPECT_DOUBLE_EQ(nbti.rate(half_duty, ref), 0.5);
    // The legacy knob responds to duty only.
    const MechanismConfig legacy =
        MechanismConfig::defaults(MechanismKind::LegacyPowerLaw);
    OperatingPoint extreme = half_duty;
    extreme.temperature_c = 125.0;
    extreme.vdd = 1.0;
    extreme.frequency_ghz = 3.0;
    EXPECT_DOUBLE_EQ(legacy.rate(extreme, ref), 0.5);

    OperatingPoint fast = ref;
    fast.frequency_ghz = 2.0;
    const MechanismConfig hci = MechanismConfig::defaults(MechanismKind::Hci);
    const MechanismConfig em = MechanismConfig::defaults(MechanismKind::Em);
    EXPECT_DOUBLE_EQ(hci.rate(fast, ref), 2.0);
    EXPECT_DOUBLE_EQ(em.rate(fast, ref), 2.0);
    // ...but switching frequency does not drive the static mechanisms.
    EXPECT_DOUBLE_EQ(nbti.rate(fast, ref), 1.0);
}

TEST(Mechanism, StressIntegralAnchoredAndGuarded) {
    const MechanismConfig nbti = MechanismConfig::defaults(MechanismKind::Nbti);
    EXPECT_EQ(nbti.stress_integral(0.0), 0.0);
    EXPECT_EQ(nbti.stress_integral(-4.0), 0.0);
    EXPECT_EQ(nbti.stress_integral(std::nan("")), 0.0);
    EXPECT_DOUBLE_EQ(nbti.stress_integral(nbti.t_ref_years), 1.0);
    EXPECT_GT(nbti.stress_integral(20.0), nbti.stress_integral(10.0));
}

TEST(Mechanism, StressKindSplitsStaticFromSwitching) {
    using K = MechanismKind;
    EXPECT_EQ(MechanismConfig::defaults(K::Nbti).stress_kind(),
              StressKind::Static);
    EXPECT_EQ(MechanismConfig::defaults(K::Tddb).stress_kind(),
              StressKind::Static);
    EXPECT_EQ(MechanismConfig::defaults(K::Hci).stress_kind(),
              StressKind::Toggle);
    EXPECT_EQ(MechanismConfig::defaults(K::Em).stress_kind(),
              StressKind::Toggle);
    EXPECT_EQ(MechanismConfig::defaults(K::LegacyPowerLaw).stress_kind(),
              StressKind::Toggle);
}

// ---------------------------------------------------------------------
// Activity extraction

TEST(Activity, InverterChainCountsOneTogglePerGate) {
    NetlistBuilder b("chain");
    b.input("a");
    b.inv("n1", "a");
    b.inv("n2", "n1");
    b.output("n2");
    const Netlist nl = b.build();
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);

    ActivityPattern rising{{0}, {1}};
    const ActivityCounts counts =
        count_activity(nl, ann, std::vector<ActivityPattern>{rising});
    EXPECT_EQ(counts.num_pairs, 1u);
    // The rising input propagates one edge through both inverters.
    EXPECT_EQ(counts.toggles[nl.find("n1")], 1u);
    EXPECT_EQ(counts.toggles[nl.find("n2")], 1u);
    // Settled values: a = 1 -> n1 = 0 -> n2 = 1.
    EXPECT_EQ(counts.ones[nl.find("n1")], 0u);
    EXPECT_EQ(counts.ones[nl.find("n2")], 1u);

    ActivityPattern steady{{1}, {1}};
    const ActivityCounts still =
        count_activity(nl, ann, std::vector<ActivityPattern>{steady});
    EXPECT_EQ(still.toggles[nl.find("n1")], 0u);
    EXPECT_EQ(still.toggles[nl.find("n2")], 0u);
}

TEST(Activity, AndGateSettledOnesFollowTruthTable) {
    NetlistBuilder b("and2");
    b.input("a");
    b.input("b");
    b.and2("y", "a", "b");
    b.output("y");
    const Netlist nl = b.build();
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    // Four pairs settling at (0,0), (0,1), (1,0), (1,1): y ends 1 once.
    std::vector<ActivityPattern> patterns;
    for (Bit a : {0, 1}) {
        for (Bit bbit : {0, 1}) {
            patterns.push_back(ActivityPattern{{0, 0}, {a, bbit}});
        }
    }
    const ActivityCounts counts = count_activity(nl, ann, patterns);
    EXPECT_EQ(counts.ones[nl.find("y")], 1u);
    EXPECT_EQ(counts.num_pairs, 4u);
}

TEST(Activity, ConstantModeIsAllOnes) {
    const Netlist nl = make_mini_alu();
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    ActivityConfig cfg;
    cfg.mode = ActivityConfig::Mode::Constant;
    const ActivityProfile profile = extract_activity(nl, ann, cfg);
    ASSERT_EQ(profile.toggle_rate.size(), nl.size());
    for (GateId id = 0; id < nl.size(); ++id) {
        EXPECT_EQ(profile.toggle_rate[id], 1.0);
        EXPECT_EQ(profile.static_prob[id], 1.0);
    }
}

TEST(Activity, WaveformModeIsDeterministicAndMeanOne) {
    const Netlist nl = make_mini_alu();
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    ActivityConfig cfg;
    cfg.num_pattern_pairs = 16;
    const ActivityProfile a = extract_activity(nl, ann, cfg);
    const ActivityProfile b = extract_activity(nl, ann, cfg);
    EXPECT_EQ(a.toggle_rate, b.toggle_rate);
    EXPECT_EQ(a.static_prob, b.static_prob);

    RunningStats toggles;
    RunningStats ones;
    for (GateId id = 0; id < nl.size(); ++id) {
        if (!is_combinational(nl.gate(id).type)) continue;
        EXPECT_GE(a.toggle_rate[id], 0.0);
        EXPECT_GE(a.static_prob[id], 0.0);
        toggles.add(a.toggle_rate[id]);
        ones.add(a.static_prob[id]);
    }
    EXPECT_NEAR(toggles.mean(), 1.0, 1e-9);
    EXPECT_NEAR(ones.mean(), 1.0, 1e-9);
    // Real circuits have non-uniform activity — the whole point.
    EXPECT_GT(toggles.stddev(), 0.01);

    ActivityConfig reseeded = cfg;
    reseeded.seed = 12345;
    const ActivityProfile c = extract_activity(nl, ann, reseeded);
    EXPECT_NE(a.toggle_rate, c.toggle_rate);
}

// ---------------------------------------------------------------------
// WearoutModel: severity draws and equivalent years

WearoutConfig enabled_config(const MissionProfile& mission) {
    WearoutConfig cfg;
    cfg.enabled = true;
    cfg.mission = mission;
    return cfg;
}

TEST(WearoutModel, WeibullScalesAreDeterministicMeanOneAndLegacyFree) {
    const Netlist nl = make_mini_alu();
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    WearoutConfig cfg = enabled_config(*find_mission_profile("server_247"));
    cfg.activity.mode = ActivityConfig::Mode::Constant;
    const WearoutModel model(nl, ann, cfg);
    ASSERT_EQ(model.num_mechanisms(), 5u);
    EXPECT_EQ(model.mechanism(0).kind, MechanismKind::LegacyPowerLaw);

    std::vector<double> scales;
    std::vector<double> again;
    model.device_scales(0xFEEDULL, scales);
    model.device_scales(0xFEEDULL, again);
    EXPECT_EQ(scales, again);
    ASSERT_EQ(scales.size(), 5u);
    // The legacy mechanism takes no draw: its spread is the population
    // amplitude jitter, and enabling wear-out must not perturb it.
    EXPECT_EQ(scales[0], 1.0);

    std::vector<RunningStats> stats(5);
    for (std::uint64_t d = 0; d < 4000; ++d) {
        model.device_scales(Prng::stream(9, d).next_u64(), scales);
        for (std::size_t m = 0; m < 5; ++m) {
            EXPECT_GT(scales[m], 0.0);
            stats[m].add(scales[m]);
        }
    }
    for (std::size_t m = 1; m < 5; ++m) {
        EXPECT_NEAR(stats[m].mean(), 1.0, 0.05) << "mechanism " << m;
        EXPECT_GT(stats[m].stddev(), 0.1) << "mechanism " << m;
    }
}

TEST(WearoutModel, EquivalentYearsEmptyMissionIsWallClock) {
    const Netlist nl = make_mini_alu();
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    WearoutConfig cfg;
    cfg.enabled = true;
    cfg.activity.mode = ActivityConfig::Mode::Constant;
    const WearoutModel model(nl, ann, cfg);
    for (std::size_t m = 0; m < model.num_mechanisms(); ++m) {
        EXPECT_EQ(model.equivalent_years(m, 7.25), 7.25);
        EXPECT_EQ(model.equivalent_years(m, 0.0), 0.0);
        EXPECT_EQ(model.equivalent_years(m, -1.0), 0.0);
    }
}

TEST(WearoutModel, HotMissionAcceleratesThermallyDrivenMechanisms) {
    const Netlist nl = make_mini_alu();
    const DelayAnnotation ann = DelayAnnotation::nominal(nl);
    WearoutConfig cfg =
        enabled_config(*find_mission_profile("automotive_thermal_cycling"));
    cfg.activity.mode = ActivityConfig::Mode::Constant;
    const WearoutModel model(nl, ann, cfg);
    // Mechanism 1 is NBTI in the default registry: the automotive
    // profile's hot phases more than offset its idle parking time...
    EXPECT_GT(model.equivalent_years(1, 10.0), 10.0);
    // ...while the duty-only legacy knob sees mostly parked time.
    EXPECT_LT(model.equivalent_years(0, 10.0), 10.0);
}

// ---------------------------------------------------------------------
// Campaign-level differentials

CampaignConfig campaign_config() {
    CampaignConfig config;
    config.population = 16;
    config.seed = 11;
    config.model.defect.incidence = 0.3;
    config.num_threads = 1;
    return config;
}

TEST(WearoutCampaign, ConstantActivityLegacyRegistryIsBitIdentical) {
    // The acceptance differential: wear-out enabled, but with only the
    // legacy mechanism, unit (constant) activity, and a single
    // non-cycling reference-condition phase covering the horizon, the
    // multi-mechanism fill must reproduce the legacy power-law path
    // bit-for-bit — same alerts, failure years, and screen scores.
    const Netlist nl = make_mini_alu();
    const CampaignConfig legacy = campaign_config();
    CampaignConfig wearout = campaign_config();
    wearout.wearout.enabled = true;
    wearout.wearout.mission.name = "reference_hold";
    wearout.wearout.mission.cycle = false;
    wearout.wearout.mission.phases = {
        MissionPhase{"ref", 100.0, OperatingPoint{}}};
    wearout.wearout.mechanisms = {
        MechanismConfig::defaults(MechanismKind::LegacyPowerLaw)};
    wearout.wearout.activity.mode = ActivityConfig::Mode::Constant;

    const CampaignResult a = run_campaign(nl, legacy);
    const CampaignResult b = run_campaign(nl, wearout);
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
        const DeviceOutcome& x = a.outcomes[i];
        const DeviceOutcome& y = b.outcomes[i];
        EXPECT_EQ(x.first_alert_years, y.first_alert_years) << i;
        EXPECT_EQ(x.failure_years, y.failure_years) << i;
        EXPECT_EQ(x.screen_score, y.screen_score) << i;
        EXPECT_EQ(x.margin_used_t0, y.margin_used_t0) << i;
        EXPECT_EQ(x.aging_amplitude, y.aging_amplitude) << i;
        // Attribution is the only new field: all-legacy by design.
        EXPECT_TRUE(x.dominant_mechanism.empty()) << i;
        EXPECT_EQ(y.dominant_mechanism, "legacy_powerlaw") << i;
    }
    EXPECT_EQ(a.aggregate.classification.roc_auc,
              b.aggregate.classification.roc_auc);
    EXPECT_EQ(a.aggregate.failed, b.aggregate.failed);
    EXPECT_TRUE(a.aggregate.failed_by_mechanism.empty());
}

TEST(WearoutCampaign, MissionWidthsAndFullStaAreBitIdentical) {
    const Netlist nl = make_mini_alu();
    CampaignConfig scalar = campaign_config();
    scalar.wearout.enabled = true;
    scalar.wearout.mission =
        *find_mission_profile("automotive_thermal_cycling");
    scalar.batch_width = 1;
    const CampaignResult reference = run_campaign(nl, scalar);
    const Json jref = reference.to_json(scalar);

    CampaignConfig batched = scalar;
    batched.batch_width = 0;  // compiled width
    CampaignConfig sharded = scalar;  // two scalar-engine workers
    sharded.num_threads = 2;
    for (const CampaignConfig* config : {&batched, &sharded}) {
        const CampaignResult result = run_campaign(nl, *config);
        EXPECT_EQ(result.outcomes, reference.outcomes);
        const Json j = result.to_json(*config);
        for (const char* block : {"campaign", "aggregate"}) {
            ASSERT_NE(j.find(block), nullptr);
            EXPECT_EQ(j.find(block)->dump(2), jref.find(block)->dump(2));
        }
    }
}

TEST(WearoutCampaign, AttributionIsCompleteAndAggregated) {
    const Netlist nl = make_mini_alu();
    CampaignConfig config = campaign_config();
    config.population = 32;
    config.wearout.enabled = true;
    config.wearout.mission = *find_mission_profile("server_247");
    const CampaignResult result = run_campaign(nl, config);
    ASSERT_EQ(result.outcomes.size(), config.population);
    for (const DeviceOutcome& out : result.outcomes) {
        EXPECT_FALSE(out.dominant_mechanism.empty()) << out.index;
        EXPECT_GT(out.dominant_share, 0.0) << out.index;
        EXPECT_LE(out.dominant_share, 1.0 + 1e-12) << out.index;
        EXPECT_TRUE(mechanism_from_name(out.dominant_mechanism).has_value())
            << out.dominant_mechanism;
    }
    std::size_t counted = 0;
    for (const auto& [name, count] : result.aggregate.failed_by_mechanism) {
        counted += count;
    }
    for (const auto& [name, count] : result.aggregate.survived_by_mechanism) {
        counted += count;
    }
    EXPECT_EQ(counted, config.population);
}

TEST(WearoutCampaign, MissionJoinsTheCanonicalFingerprint) {
    const Netlist nl = make_mini_alu();
    const CampaignConfig legacy = campaign_config();
    const std::string base = campaign_canonical(nl, legacy);
    EXPECT_EQ(base.find("wearout"), std::string::npos);

    CampaignConfig server = campaign_config();
    server.wearout.enabled = true;
    server.wearout.mission = *find_mission_profile("server_247");
    const std::string with_server = campaign_canonical(nl, server);
    EXPECT_NE(with_server.find("wearout"), std::string::npos);
    EXPECT_NE(with_server, base);

    CampaignConfig mobile = server;
    mobile.wearout.mission = *find_mission_profile("mobile_bursty");
    EXPECT_NE(campaign_canonical(nl, mobile), with_server);
}

TEST(WearoutCampaign, ResumeAcrossPhaseCyclesIsBitIdentical) {
    // Kill/resume under a mission profile: the checkpoint prefix ends
    // mid-population while devices span many profile cycles; the
    // resumed run must converge to the uninterrupted aggregate.
    const Netlist nl = make_mini_alu();
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("fastmon_wearout_resume_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const std::string ckpt = (dir / "mission.json").string();

    CampaignConfig plain = campaign_config();
    plain.population = 20;
    plain.wearout.enabled = true;
    plain.wearout.mission =
        *find_mission_profile("automotive_thermal_cycling");
    const CampaignResult reference = run_campaign(nl, plain);

    CampaignConfig ckpt_config = plain;
    ckpt_config.checkpoint_path = ckpt;
    ckpt_config.checkpoint_every = 6;
    const CampaignResult full = run_campaign(nl, ckpt_config);
    EXPECT_GE(full.checkpoints_written, 1u);
    std::string error;
    auto snapshot = load_shard_result(ckpt, &error);
    ASSERT_TRUE(snapshot.has_value()) << error;
    ASSERT_EQ(snapshot->outcomes.size(), ckpt_config.population);
    snapshot->outcomes.resize(7);
    snapshot->aggregate =
        aggregate_outcomes(snapshot->outcomes, ckpt_config.aggregate)
            .to_json();
    ASSERT_TRUE(save_shard_result(ckpt, *snapshot));

    CampaignConfig resumed_config = ckpt_config;
    resumed_config.resume = true;
    const CampaignResult resumed = run_campaign(nl, resumed_config);
    EXPECT_EQ(resumed.devices_resumed, 7u);
    EXPECT_EQ(resumed.outcomes, reference.outcomes);
    EXPECT_EQ(resumed.to_json(resumed_config).find("aggregate")->dump(2),
              reference.to_json(plain).find("aggregate")->dump(2));

    // A checkpoint written under one mission must not resume another:
    // the fingerprint differs, so the run degrades to a fresh start.
    CampaignConfig other_mission = resumed_config;
    other_mission.wearout.mission = *find_mission_profile("server_247");
    const CampaignResult fresh = run_campaign(nl, other_mission);
    EXPECT_EQ(fresh.devices_resumed, 0u);
    std::filesystem::remove_all(dir);
}

TEST(WearoutCampaign, ProfilesSeparateFailureDistributions) {
    // Two built-ins must disagree measurably — the bench gate asserts
    // the same on the demo circuit with a larger population.
    const Netlist nl = make_mini_alu();
    CampaignConfig hot = campaign_config();
    hot.population = 48;
    hot.model.defect.incidence = 0.0;  // pure wear-out comparison
    hot.wearout.enabled = true;
    hot.wearout.mission = *find_mission_profile("server_247");
    CampaignConfig cool = hot;
    cool.wearout.mission = *find_mission_profile("mobile_bursty");

    const CampaignResult a = run_campaign(nl, hot);
    const CampaignResult b = run_campaign(nl, cool);
    ASSERT_GT(a.aggregate.wearout_failure_years.count, 0u);
    // The mostly-idle mobile profile fails later (or less) than 24/7
    // server deployment.
    if (b.aggregate.wearout_failure_years.count > 0) {
        EXPECT_GT(b.aggregate.wearout_failure_years.p50,
                  a.aggregate.wearout_failure_years.p50 + 0.5);
    } else {
        EXPECT_LT(b.aggregate.failed, a.aggregate.failed);
    }
}

TEST(WearoutCampaign, ReportCarriesWearoutBlockOnlyWhenEnabled) {
    const Netlist nl = make_mini_alu();
    const CampaignConfig legacy = campaign_config();
    const CampaignResult off = run_campaign(nl, legacy);
    const Json joff = off.to_json(legacy);
    ASSERT_NE(joff.find("campaign"), nullptr);
    EXPECT_EQ(joff.find("campaign")->find("wearout"), nullptr);

    CampaignConfig mission = campaign_config();
    mission.wearout.enabled = true;
    mission.wearout.mission = *find_mission_profile("mobile_bursty");
    const CampaignResult on = run_campaign(nl, mission);
    const Json jon = on.to_json(mission);
    const Json* block = jon.find("campaign")->find("wearout");
    ASSERT_NE(block, nullptr);
    ASSERT_NE(block->find("mission"), nullptr);
    EXPECT_EQ(block->find("mission")->find("name")->as_string(),
              "mobile_bursty");
    ASSERT_NE(block->find("mechanisms"), nullptr);
    EXPECT_EQ(block->find("mechanisms")->as_array().size(), 5u);
}

TEST(WearoutCli, ListProfilesPrintsTheCatalogAndExitsClean) {
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("fastmon_wearout_cli_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const std::string log = (dir / "list.txt").string();
    SpawnOptions options;
    options.output_path = log;
    auto child = Subprocess::spawn({FASTMON_CAMPAIGN_BIN, "--list-profiles"},
                                   options);
    ASSERT_TRUE(child.has_value());
    EXPECT_EQ(child->exit_code(), 0);
    std::ifstream in(log);
    const std::string out{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
    for (const MissionProfile& p : builtin_mission_profiles()) {
        EXPECT_NE(out.find(p.name), std::string::npos) << out;
        for (const MissionPhase& phase : p.phases) {
            EXPECT_NE(out.find(phase.name), std::string::npos) << out;
        }
    }
    // An unknown profile spec dies with a diagnostic, not a crash.
    auto bad = Subprocess::spawn(
        {FASTMON_CAMPAIGN_BIN, "--circuit", "demo_pipeline.bench",
         "--mission-profile", "not_a_profile", "--quiet"},
        options);
    ASSERT_TRUE(bad.has_value());
    EXPECT_EQ(bad->exit_code(), 2);
    // Malformed integer and real flags are rejected while parsing,
    // before any pool or population is sized, with a diagnostic naming
    // the flag.
    const std::vector<std::pair<std::string, std::string>> bad_counts = {
        {"--threads", "-1"},
        {"--population", "12x"},
        {"--population", "99999999999999999999"},
        {"--step", "abc"},
        {"--clock-margin", "-1"},
        {"--horizon", "inf"},
    };
    for (std::size_t i = 0; i < bad_counts.size(); ++i) {
        const auto& [flag, value] = bad_counts[i];
        SpawnOptions rejected_options;
        rejected_options.output_path =
            (dir / ("count_" + std::to_string(i) + ".txt")).string();
        auto rejected = Subprocess::spawn(
            {FASTMON_CAMPAIGN_BIN, "--circuit", "demo_pipeline.bench",
             flag, value, "--quiet"},
            rejected_options);
        ASSERT_TRUE(rejected.has_value());
        EXPECT_EQ(rejected->exit_code(), 2) << flag << " " << value;
        std::ifstream err(rejected_options.output_path);
        const std::string text{std::istreambuf_iterator<char>(err),
                               std::istreambuf_iterator<char>()};
        EXPECT_NE(text.find(flag), std::string::npos) << text;
    }
    // A malformed FASTMON_HEARTBEAT is rejected the same way, naming
    // the variable, instead of silently meaning "off".
    SpawnOptions heartbeat_options;
    heartbeat_options.output_path = (dir / "heartbeat.txt").string();
    heartbeat_options.env.emplace_back("FASTMON_HEARTBEAT", "abc");
    auto heartbeat = Subprocess::spawn(
        {FASTMON_CAMPAIGN_BIN, "--circuit", "demo_pipeline.bench", "--quiet",
         "--out", (dir / "hb.json").string()},
        heartbeat_options);
    ASSERT_TRUE(heartbeat.has_value());
    EXPECT_EQ(heartbeat->exit_code(), 2);
    std::ifstream heartbeat_err(heartbeat_options.output_path);
    const std::string heartbeat_text{
        std::istreambuf_iterator<char>(heartbeat_err),
        std::istreambuf_iterator<char>()};
    EXPECT_NE(heartbeat_text.find("FASTMON_HEARTBEAT"), std::string::npos)
        << heartbeat_text;
    EXPECT_FALSE(std::filesystem::exists(dir / "hb.heartbeat.json"));
    // fastmon_flow rejects them the same way but exits 1 (invalid
    // options), keeping 2 for a degraded run under --strict.
    SpawnOptions flow_options;
    flow_options.output_path = (dir / "flow_fmax.txt").string();
    auto flow = Subprocess::spawn({FASTMON_FLOW_BIN, "--circuit",
                                   "demo_pipeline.bench", "--fmax", "abc"},
                                  flow_options);
    ASSERT_TRUE(flow.has_value());
    EXPECT_EQ(flow->exit_code(), 1);
    std::ifstream flow_err(flow_options.output_path);
    const std::string flow_text{std::istreambuf_iterator<char>(flow_err),
                                std::istreambuf_iterator<char>()};
    EXPECT_NE(flow_text.find("--fmax"), std::string::npos) << flow_text;
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fastmon
