// Campaign engine bench: a Monte Carlo device-population run on the
// demo pipeline circuit plus a scaled benchmark profile, emitting the
// machine-readable BENCH_campaign.json artifact (campaign config +
// aggregate prediction quality + per-circuit wall time).
//
// The "campaign" and "aggregate" blocks of each entry are
// bit-deterministic for a fixed seed — across runs, thread counts, and
// batch widths — so perf tracking can diff them; wall times live in
// the separate "run" blocks.  The demo entry carries the batched SoA
// vs scalar engine differential with a batch_check verdict and a
// batch_speedup ratio.  bench/run_bench.sh validates the artifact
// schema and fails on a degraded (cancelled / partial) flow status or
// a diverged check.
#include <cmath>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "campaign/campaign.hpp"
#include "netlist/bench_io.hpp"
#include "timing/batch_sta_engine.hpp"
#include "util/atomic_file.hpp"
#include "util/cancel.hpp"

namespace {

// The in-repo demo_pipeline.bench circuit, embedded so the bench runs
// from any working directory.
constexpr const char* kDemoPipeline = R"(# demo: registered 3-stage pipeline fragment
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
OUTPUT(z)
r0 = DFF(n4)
r1 = DFF(n6)
n1 = NAND(a, b)
n2 = NOR(c, d)
n3 = XOR(n1, n2)
n4 = AND(n3, r1)
n5 = NOT(n3)
n6 = OR(n5, r0)
y  = NAND(n4, n6)
z  = XOR(r0, r1)
)";

}  // namespace

int main() {
    using namespace fastmon;
    CancelToken::global().install_signal_handlers();
    const PhaseStopwatch total_watch;
    const bench::BenchSettings settings = bench::BenchSettings::from_env();
    settings.print_header("Campaign — Monte Carlo device population");

    CampaignConfig config;
    config.seed = 1;
    config.population = settings.fast ? 128 : 1000;
    // The small bench circuits alert late in life; widen the burn-in
    // screen and the early-fail cutoff so the classification block
    // carries a non-trivial signal.
    config.screen_years = 2.0;
    config.aggregate.early_fail_years = 8.0;

    Json entries = Json::array();
    bool all_complete = true;

    struct Target {
        std::string label;
        Netlist netlist;
    };
    std::vector<Target> targets;
    targets.push_back(Target{
        "demo_pipeline",
        read_bench_string(kDemoPipeline, "demo_pipeline")});
    if (!settings.fast) {
        const CircuitProfile& profile = find_profile("s9234");
        const double scale = bench::profile_scale(settings, profile);
        targets.push_back(
            Target{profile.name,
                   generate_circuit(profile_config(profile, scale))});
    }

    {
        // Untimed warm-up: spin up the shared thread pool and fault the
        // allocator pools for BOTH engine paths of the differential
        // below, at full demo population — the demo circuit is cheap
        // and the batched-vs-scalar speedup ratio is otherwise skewed
        // by whichever run happens to go first on cold caches.
        CampaignConfig warm = config;
        (void)run_campaign(targets.front().netlist, warm);
        warm.batch_width = 1;
        (void)run_campaign(targets.front().netlist, warm);
    }

    bool identical = true;
    for (std::size_t t = 0; t < targets.size(); ++t) {
        const Target& target = targets[t];
        std::cout << "campaign on " << target.label << " ("
                  << target.netlist.size() << " gates, population "
                  << config.population << ", batch width " << kBatchWidth
                  << ")\n";
        // Default run: the batched SoA engine at the compiled width
        // (the scalar engine in a -DFASTMON_BATCH_WIDTH=1 build).
        const CampaignResult result = run_campaign(target.netlist, config);
        const CampaignAggregate& agg = result.aggregate;
        const double batched_wall = result.total_wall_seconds;
        std::cout << "  " << result.devices_completed << " devices, ROC AUC "
                  << agg.classification.roc_auc << ", AP "
                  << agg.classification.average_precision
                  << ", wide-band lead p50 " << agg.lead_time_wide.p50
                  << " y, wall " << batched_wall << " s\n";
        Json entry = result.to_json(config);
        all_complete = all_complete && result.status.complete();
        entry.set("batch_width",
                  static_cast<std::int64_t>(result.batch_width));
        if (batched_wall > 0.0) {
            entry.set("devices_per_sec",
                      static_cast<double>(result.devices_completed) /
                          batched_wall);
        }

        if (t == 0 && !CancelToken::global().cancelled()) {
            // Differential on the demo circuit: the batched SoA engine
            // and the scalar engine must produce bit-identical
            // deterministic report blocks.
            auto blocks_match = [&](const Json& a, const Json& b,
                                    const char* what) {
                bool ok = true;
                for (const char* block : {"campaign", "aggregate"}) {
                    const Json* ja = a.find(block);
                    const Json* jb = b.find(block);
                    if (!ja || !jb || !(*ja == *jb)) {
                        ok = false;
                        std::cout << "  ERROR: \"" << block
                                  << "\" diverged between " << what << "\n";
                    }
                }
                return ok;
            };

            CampaignConfig scalar = config;
            scalar.batch_width = 1;
            std::cout << "  scalar reference pass (differential check)\n";
            const CampaignResult scalar_result =
                run_campaign(target.netlist, scalar);
            const double scalar_wall = scalar_result.total_wall_seconds;
            const bool batch_ok =
                blocks_match(entry, scalar_result.to_json(scalar),
                             "batched and scalar");
            identical = identical && batch_ok;

            const double batch_speedup =
                batched_wall > 0.0 ? scalar_wall / batched_wall : 0.0;
            std::cout << "  batched wall " << batched_wall
                      << " s vs scalar " << scalar_wall << " s ("
                      << batch_speedup << "x)\n";
            entry.set("batch_check", batch_ok ? "identical" : "diverged");
            entry.set("scalar_wall_seconds", scalar_wall);
            entry.set("batch_speedup", batch_speedup);

            // Telemetry differential: the heartbeat sidecar and the
            // streaming sketches are pure observation, so the
            // deterministic blocks must stay bit-identical with
            // telemetry on — at the batched width AND the scalar
            // width (the two engines instrument different code paths).
            CampaignConfig telem = config;
            telem.heartbeat_path = "BENCH_campaign.heartbeat.json";
            telem.heartbeat_seconds = 0.05;
            std::cout << "  telemetry-enabled pass (heartbeat sidecar "
                         "differential)\n";
            const CampaignResult telem_result =
                run_campaign(target.netlist, telem);
            const double telem_wall = telem_result.total_wall_seconds;
            bool telem_ok =
                blocks_match(entry, telem_result.to_json(telem),
                             "telemetry off and on (batched)");
            {
                CampaignConfig telem_scalar = telem;
                telem_scalar.batch_width = 1;
                telem_scalar.heartbeat_path =
                    "BENCH_campaign.scalar.heartbeat.json";
                const CampaignResult scalar_telem =
                    run_campaign(target.netlist, telem_scalar);
                telem_ok = blocks_match(scalar_result.to_json(scalar),
                                        scalar_telem.to_json(telem_scalar),
                                        "telemetry off and on (scalar)") &&
                           telem_ok;
            }
            identical = identical && telem_ok;
            const double telem_overhead =
                batched_wall > 0.0 ? telem_wall / batched_wall - 1.0 : 0.0;
            std::cout << "  telemetry wall " << telem_wall << " s ("
                      << telem_overhead * 100.0 << "% vs quiet run)\n";
            entry.set("telemetry_check",
                      telem_ok ? "identical" : "diverged");
            entry.set("telemetry_wall_seconds", telem_wall);
            entry.set("telemetry_overhead", telem_overhead);

            // Mission-profile comparison: every built-in deployment on
            // the demo circuit, each with a scalar-vs-batched
            // differential, plus a separation gate — two contrasting
            // profiles must produce measurably different failure-year
            // distributions and screen ROC curves, or the wear-out
            // physics has collapsed into a no-op.
            Json missions = Json::object();
            bool mission_ok = true;
            double server_auc = 0.0, server_p50 = 0.0;
            double mobile_auc = 0.0, mobile_p50 = 0.0;
            for (const MissionProfile& profile :
                 builtin_mission_profiles()) {
                CampaignConfig mission = config;
                mission.wearout.enabled = true;
                mission.wearout.mission = profile;
                std::cout << "  mission profile " << profile.name << "\n";
                const CampaignResult mres =
                    run_campaign(target.netlist, mission);
                CampaignConfig mscalar = mission;
                mscalar.batch_width = 1;
                const CampaignResult msc =
                    run_campaign(target.netlist, mscalar);
                mission_ok =
                    blocks_match(mres.to_json(mission),
                                 msc.to_json(mscalar),
                                 ("batched and scalar (" + profile.name +
                                  ")").c_str()) &&
                    mission_ok;
                const CampaignAggregate& magg = mres.aggregate;
                Json row = Json::object();
                row.set("roc_auc", magg.classification.roc_auc);
                row.set("average_precision",
                        magg.classification.average_precision);
                row.set("failed",
                        static_cast<std::int64_t>(magg.failed));
                row.set("early_failures",
                        static_cast<std::int64_t>(magg.early_failures));
                row.set("failure_p50", magg.wearout_failure_years.p50);
                row.set("lead_wide_p50", magg.lead_time_wide.p50);
                Json mechs = Json::object();
                for (const auto& [name, count] :
                     magg.failed_by_mechanism) {
                    mechs.set(name, static_cast<std::int64_t>(count));
                }
                row.set("failed_by_mechanism", std::move(mechs));
                row.set("wall_seconds", mres.total_wall_seconds);
                std::cout << "    AUC " << magg.classification.roc_auc
                          << ", failure p50 "
                          << magg.wearout_failure_years.p50
                          << " y, failed " << magg.failed << "/"
                          << result.devices_completed << "\n";
                if (profile.name == "server_247") {
                    server_auc = magg.classification.roc_auc;
                    server_p50 = magg.wearout_failure_years.p50;
                } else if (profile.name == "mobile_bursty") {
                    mobile_auc = magg.classification.roc_auc;
                    mobile_p50 = magg.wearout_failure_years.p50;
                }
                missions.set(profile.name, std::move(row));
            }
            // 24/7 server stress vs mostly-idle mobile deployment: the
            // failure-year medians must be years apart and the screen
            // ROC visibly different.
            const bool distinct =
                std::abs(server_p50 - mobile_p50) > 1.0 &&
                std::abs(server_auc - mobile_auc) > 0.01;
            if (!distinct) {
                std::cout << "  ERROR: server_247 and mobile_bursty are "
                             "indistinguishable (p50 "
                          << server_p50 << " vs " << mobile_p50
                          << " y, AUC " << server_auc << " vs "
                          << mobile_auc << ")\n";
            }
            identical = identical && mission_ok && distinct;
            entry.set("mission_profiles", std::move(missions));
            entry.set("mission_check",
                      mission_ok ? "identical" : "diverged");
            entry.set("profiles_distinct",
                      distinct ? "distinct" : "indistinct");
        }
        entries.push_back(std::move(entry));
    }

    Json artifact = Json::object();
    artifact.set("bench", "bench_campaign");
    artifact.set("entries", std::move(entries));
    artifact.set("total_wall_seconds",
                 total_watch.elapsed("total").wall_seconds);
    if (!atomic_write_file("BENCH_campaign.json", artifact.dump(2))) {
        std::cout << "ERROR: cannot write BENCH_campaign.json\n";
        return 1;
    }
    std::cout << "artifact written: BENCH_campaign.json\n";

    if (CancelToken::global().cancelled()) {
        std::cout << "interrupted ("
                  << cancel_cause_name(CancelToken::global().cause())
                  << "): partial campaign artifact is still valid\n";
        return 0;
    }
    if (!identical) {
        std::cout << "ERROR: a differential or separation gate failed "
                     "(see batch_check / mission_check / "
                     "profiles_distinct)\n";
        return 1;
    }
    if (!all_complete) {
        std::cout << "WARNING: a campaign degraded without cancellation\n";
        return 1;
    }
    std::cout << "campaign bench done  [OK]\n";
    return 0;
}
