// fastmon_campaign — Monte Carlo device-population campaign CLI.
//
// The repo's first real command-line tool: samples a population of
// virtual devices (process variation, wear-out spread, early-life
// defect incidence) for a circuit, rolls each through the monitor
// guard-band lifetime simulation on the persistent thread pool, and
// reports fleet-scale prediction quality (early-life-failure ROC /
// precision-recall, alert lead-time percentiles, wear-out curves).
//
// The aggregate JSON is bit-deterministic for a fixed (circuit, seed,
// config) — across thread counts, and across kill/resume cycles via
// --checkpoint/--resume.  SIGINT/SIGTERM and FASTMON_DEADLINE stop the
// campaign at the next device boundary, snapshot the checkpoint, and
// still emit an honest partial report (exit status stays 0, as with
// the benches).  The checkpoint is a mergeable shard artifact
// (campaign/shard.hpp): incomplete while the run is unfinished, the
// shard's result once it finishes.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>

#include "campaign/campaign.hpp"
#include "netlist/generator.hpp"
#include "netlist/netlist_io.hpp"
#include "netlist/iscas_data.hpp"
#include "util/atomic_file.hpp"
#include "util/cancel.hpp"
#include "util/cli_parse.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace {

void print_usage() {
    std::cout <<
        "usage: fastmon_campaign [options]\n"
        "\n"
        "circuit selection (default: built-in mini-alu):\n"
        "  --circuit <file>         read a netlist (.bench/.v/.aag/.aig)\n"
        "  --profile <name>         generate a paper benchmark profile\n"
        "  --scale <s>              scale factor for --profile (default 1)\n"
        "\n"
        "population:\n"
        "  --population <n>         devices to simulate (default 100)\n"
        "  --seed <n>               campaign seed (default 1)\n"
        "  --defect-rate <p>        marginal-device incidence (default 0.15)\n"
        "  --variation <s>          lognormal process sigma (default 0.05)\n"
        "\n"
        "lifetime model:\n"
        "  --horizon <years>        simulation horizon (default 15)\n"
        "  --step <years>           grid step (default 0.25)\n"
        "  --screen <years>         burn-in screen window (default 0.5)\n"
        "  --early-fail <years>     early-life-failure cutoff (default 3)\n"
        "  --clock-margin <m>       deployed clk = m * cpl (default 1.6)\n"
        "\n"
        "wear-out (default: legacy single-knob aging, bit-identical to\n"
        "previous releases):\n"
        "  --mission-profile <p>    enable multi-mechanism wear-out\n"
        "                           (NBTI/HCI/EM/TDDB + legacy knob) under\n"
        "                           a mission profile: a built-in name or\n"
        "                           a profile JSON file\n"
        "  --activity-patterns <n>  pattern pairs for waveform activity\n"
        "                           characterization (default 32;\n"
        "                           0 = constant unit activity)\n"
        "  --list-profiles          print the built-in mission profiles\n"
        "                           and their phase schedules, then exit\n"
        "\n"
        "execution:\n"
        "  --threads <n>            0 = shared pool, 1 = serial (default 0)\n"
        "  --checkpoint <path>      campaign-state artifact, rewritten every\n"
        "                           --checkpoint-every devices and at exit;\n"
        "                           a mergeable shard artifact (incomplete\n"
        "                           until the run finishes)\n"
        "  --checkpoint-every <n>   devices between snapshots (default 64)\n"
        "  --resume                 resume from --checkpoint if present\n"
        "  --batch-width <n>        live lanes per batched STA pass: a\n"
        "                           lane takes the next device as soon as\n"
        "                           its device settles (0 = auto from the\n"
        "                           compiled width, 1 = scalar reference\n"
        "                           engine; identical report blocks at\n"
        "                           every width)\n"
        "\n"
        "fleet sharding (see also fastmon_fleet / fastmon_merge):\n"
        "  --shard <i>/<n>          roll only shard i of n (0-based); the\n"
        "                           merged shard artifacts are bit-identical\n"
        "                           to the unsharded campaign.  The shard's\n"
        "                           artifact is its --checkpoint (default\n"
        "                           <out-stem>.shard.json)\n"
        "\n"
        "output:\n"
        "  --out <path>             campaign report JSON (default\n"
        "                           campaign_report.json)\n"
        "  --csv <path>             per-device outcomes CSV (optional)\n"
        "  --quiet                  suppress the summary tables\n"
        "\n"
        "live telemetry (see also fastmon_status):\n"
        "  --progress               throttled one-line progress on stderr\n"
        "  --heartbeat <path>       live heartbeat sidecar, atomically\n"
        "                           rewritten every FASTMON_HEARTBEAT\n"
        "                           seconds (a number > 0; default 1);\n"
        "                           setting the FASTMON_HEARTBEAT env var\n"
        "                           alone derives <out-stem>.heartbeat.json\n";
}

struct CliOptions {
    std::string circuit_path;
    std::string profile;
    double scale = 1.0;
    std::string out_path = "campaign_report.json";
    std::string csv_path;
    bool quiet = false;
    fastmon::CampaignConfig config;
};

/// Parses "--shard i/n" ("2/4"); false on anything else.
bool parse_shard_spec(std::string_view spec,
                      fastmon::CampaignConfig& config) {
    const std::size_t slash = spec.find('/');
    if (slash == std::string_view::npos) return false;
    using fastmon::parse_count;
    const auto index = parse_count<std::size_t>(spec.substr(0, slash));
    const auto count = parse_count<std::size_t>(spec.substr(slash + 1));
    if (!index || !count || *index >= *count) return false;
    config.shard_index = *index;
    config.shard_count = *count;
    return true;
}

bool parse_args(int argc, char** argv, CliOptions& opt) {
    using std::strcmp;
    auto need_value = [&](int& i) -> const char* {
        if (i + 1 >= argc) {
            std::cerr << "error: " << argv[i] << " needs a value\n";
            return nullptr;
        }
        return argv[++i];
    };
    // Checked flag values: false after a diagnostic when the value is
    // missing or malformed.
    auto count = [&](int& i, auto& out) {
        const char* flag = argv[i];
        const char* v = need_value(i);
        return v != nullptr && fastmon::parse_count_flag(flag, v, out);
    };
    auto real = [&](int& i, double& out, const fastmon::RealRange& range) {
        const char* flag = argv[i];
        const char* v = need_value(i);
        return v != nullptr && fastmon::parse_real_flag(flag, v, out, range);
    };
    using fastmon::kNonNegative, fastmon::kPositive, fastmon::kUnitInterval;
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        const char* v = nullptr;
        if (strcmp(arg, "--help") == 0 || strcmp(arg, "-h") == 0) {
            print_usage();
            std::exit(0);
        } else if (strcmp(arg, "--list-profiles") == 0) {
            std::cout << fastmon::describe_mission_profiles();
            std::exit(0);
        } else if (strcmp(arg, "--mission-profile") == 0) {
            if (!(v = need_value(i))) return false;
            // Resolve now (built-in name or JSON file): run_campaign
            // and the canonical fingerprint only ever see the resolved
            // profile, never a path.
            try {
                opt.config.wearout.mission =
                    fastmon::load_mission_profile(v);
            } catch (const std::exception& e) {
                std::cerr << "error: " << e.what() << "\n";
                return false;
            }
            opt.config.wearout.enabled = true;
        } else if (strcmp(arg, "--activity-patterns") == 0) {
            std::size_t n = 0;
            if (!count(i, n)) return false;
            if (n == 0) {
                opt.config.wearout.activity.mode =
                    fastmon::ActivityConfig::Mode::Constant;
            } else {
                opt.config.wearout.activity.num_pattern_pairs = n;
            }
        } else if (strcmp(arg, "--resume") == 0) {
            opt.config.resume = true;
        } else if (strcmp(arg, "--quiet") == 0) {
            opt.quiet = true;
        } else if (strcmp(arg, "--progress") == 0) {
            opt.config.progress_stderr = true;
        } else if (strcmp(arg, "--heartbeat") == 0) {
            if (!(v = need_value(i))) return false;
            opt.config.heartbeat_path = v;
        } else if (strcmp(arg, "--circuit") == 0) {
            if (!(v = need_value(i))) return false;
            opt.circuit_path = v;
        } else if (strcmp(arg, "--profile") == 0) {
            if (!(v = need_value(i))) return false;
            opt.profile = v;
        } else if (strcmp(arg, "--scale") == 0) {
            if (!real(i, opt.scale, kPositive)) return false;
        } else if (strcmp(arg, "--population") == 0) {
            if (!count(i, opt.config.population)) return false;
        } else if (strcmp(arg, "--seed") == 0) {
            if (!count(i, opt.config.seed)) return false;
        } else if (strcmp(arg, "--defect-rate") == 0) {
            if (!real(i, opt.config.model.defect.incidence, kUnitInterval)) {
                return false;
            }
        } else if (strcmp(arg, "--variation") == 0) {
            if (!real(i, opt.config.model.variation.sigma_log, kNonNegative)) {
                return false;
            }
        } else if (strcmp(arg, "--horizon") == 0) {
            if (!real(i, opt.config.horizon_years, kPositive)) return false;
        } else if (strcmp(arg, "--step") == 0) {
            if (!real(i, opt.config.step_years, kPositive)) return false;
        } else if (strcmp(arg, "--screen") == 0) {
            if (!real(i, opt.config.screen_years, kNonNegative)) return false;
        } else if (strcmp(arg, "--early-fail") == 0) {
            if (!real(i, opt.config.aggregate.early_fail_years, kNonNegative)) {
                return false;
            }
        } else if (strcmp(arg, "--clock-margin") == 0) {
            if (!real(i, opt.config.clock_margin, kPositive)) return false;
        } else if (strcmp(arg, "--batch-width") == 0) {
            if (!count(i, opt.config.batch_width)) return false;
        } else if (strcmp(arg, "--threads") == 0) {
            if (!count(i, opt.config.num_threads)) return false;
        } else if (strcmp(arg, "--checkpoint") == 0) {
            if (!(v = need_value(i))) return false;
            opt.config.checkpoint_path = v;
        } else if (strcmp(arg, "--checkpoint-every") == 0) {
            if (!count(i, opt.config.checkpoint_every)) return false;
        } else if (strcmp(arg, "--shard") == 0) {
            if (!(v = need_value(i))) return false;
            if (!parse_shard_spec(v, opt.config)) {
                std::cerr << "error: --shard expects i/n with 0 <= i < n\n";
                return false;
            }
        } else if (strcmp(arg, "--out") == 0) {
            if (!(v = need_value(i))) return false;
            opt.out_path = v;
        } else if (strcmp(arg, "--csv") == 0) {
            if (!(v = need_value(i))) return false;
            opt.csv_path = v;
        } else {
            std::cerr << "error: unknown option " << arg
                      << " (--help for usage)\n";
            return false;
        }
    }
    if (!opt.circuit_path.empty() && !opt.profile.empty()) {
        std::cerr << "error: --circuit and --profile are exclusive\n";
        return false;
    }
    if (opt.config.population == 0) {
        std::cerr << "error: --population must be positive\n";
        return false;
    }
    return true;
}

void print_summary(const fastmon::CampaignResult& result) {
    using namespace fastmon;
    const CampaignAggregate& agg = result.aggregate;
    std::printf("campaign: %s, %zu gates, %zu monitor(s), clk %.1f ps\n",
                result.circuit.c_str(), result.num_gates,
                result.num_monitors, result.clock_period);
    std::printf(
        "devices:  %zu completed (%zu resumed), %zu marginal, %zu failed "
        "(%zu early), %zu survived\n",
        result.devices_completed, result.devices_resumed, agg.marginal,
        agg.failed, agg.early_failures, agg.survived);

    const ClassificationQuality& cls = agg.classification;
    std::printf(
        "early-life prediction: ROC AUC %.3f, AP %.3f  (screen alert: "
        "precision %.3f, recall %.3f)\n",
        cls.roc_auc, cls.average_precision, cls.precision, cls.recall);

    TextTable leads({"lead time (years)", "n", "mean", "p10", "p50", "p90"});
    const auto lead_row = [&](const char* label,
                              const DistributionSummary& d) {
        leads.begin_row();
        leads.cell(std::string(label));
        leads.cell(static_cast<long long>(d.count));
        leads.cell(d.mean, 2);
        leads.cell(d.p10, 2);
        leads.cell(d.p50, 2);
        leads.cell(d.p90, 2);
    };
    lead_row("wide band -> failure", agg.lead_time_wide);
    lead_row("imminent band -> failure", agg.lead_time_imminent);
    lead_row("wear-out failure year", agg.wearout_failure_years);
    leads.print(std::cout);

    if (!agg.failed_by_mechanism.empty()) {
        std::printf("dominant mechanism of failures:");
        for (const auto& [name, count] : agg.failed_by_mechanism) {
            std::printf(" %s=%zu", name.c_str(), count);
        }
        std::printf("\n");
    }

    if (result.status.cancelled) {
        std::printf("NOTE: campaign cancelled (%s) — partial aggregate\n",
                    cancel_cause_name(result.status.cancel_cause));
    }
}

/// The report path without a trailing ".json", for derived file names.
std::string out_stem(std::string path) {
    const std::string_view suffix = ".json";
    if (path.size() >= suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
        path.resize(path.size() - suffix.size());
    }
    return path;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace fastmon;
    CliOptions opt;
    if (!parse_args(argc, argv, opt)) return 2;

    // FASTMON_HEARTBEAT sets the heartbeat period, and alone turns the
    // sidecar on next to the report.
    if (const char* env = std::getenv("FASTMON_HEARTBEAT")) {
        if (!parse_real_flag("FASTMON_HEARTBEAT", env,
                             opt.config.heartbeat_seconds, kPositive)) {
            return 2;
        }
        if (opt.config.heartbeat_path.empty()) {
            opt.config.heartbeat_path =
                out_stem(opt.out_path) + ".heartbeat.json";
        }
    }
    // A shard's mergeable artifact is its checkpoint.
    if (opt.config.shard_count > 1 && opt.config.checkpoint_path.empty()) {
        opt.config.checkpoint_path = out_stem(opt.out_path) + ".shard.json";
    }

    CancelToken::global().install_signal_handlers();

    Netlist netlist = [&] {
        if (!opt.circuit_path.empty()) {
            return read_netlist(opt.circuit_path);
        }
        if (!opt.profile.empty()) {
            return generate_circuit(
                profile_config(find_profile(opt.profile), opt.scale));
        }
        return make_mini_alu();
    }();

    const CampaignResult result = run_campaign(netlist, opt.config);

    const std::string report = result.to_json(opt.config).dump(2);
    if (!atomic_write_file(opt.out_path, report)) {
        std::cerr << "error: cannot write " << opt.out_path << "\n";
        return 1;
    }
    if (!opt.csv_path.empty() &&
        !atomic_write_file(opt.csv_path, outcomes_csv(result.outcomes))) {
        std::cerr << "error: cannot write " << opt.csv_path << "\n";
        return 1;
    }

    if (!opt.quiet) {
        print_summary(result);
        std::printf("report: %s (%.2f s", opt.out_path.c_str(),
                    result.total_wall_seconds);
        if (!opt.csv_path.empty()) {
            std::printf(", csv: %s", opt.csv_path.c_str());
        }
        std::printf(")\n");
    }
    return 0;
}
