// fastmon_fleet — fault-tolerant sharded campaign supervisor.
//
// Splits one campaign into N shard jobs in a directory queue, runs each
// as a `fastmon_campaign --shard i/N` subprocess (at-least-once: claims
// are atomic renames, so a crashed supervisor can be restarted with
// --recover and nothing is lost), retries crashed / hung / corrupt
// shards with bounded exponential backoff — a retried shard resumes
// from its own incomplete artifact — and quarantines poison jobs after
// --max-attempts.  When the queue drains it validates and merges the
// shard artifacts into a campaign report that is bit-identical to a
// single-process run whenever every shard completed.
//
// Exit 0 with an honest status block covers every recovered-or-
// quarantined outcome; exit 1 means not a single shard produced a
// mergeable artifact.
//
//   fastmon_fleet --root /tmp/fleet --shards 4 --
//       --circuit s9234.bench --population 400 --seed 7 --quiet
//
// `--circuit` accepts any read_netlist format (.bench/.v/.aag/.aig);
// the shard subprocesses load it through the same front end.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "campaign/fleet.hpp"
#include "campaign/shard.hpp"
#include "util/atomic_file.hpp"
#include "util/cli_parse.hpp"

namespace {

void print_usage() {
    std::cout <<
        "usage: fastmon_fleet [options] -- <fastmon_campaign args...>\n"
        "\n"
        "fleet:\n"
        "  --root <dir>             fleet state directory (required):\n"
        "                           queue/ running/ done/ quarantine/\n"
        "                           shards/ logs/\n"
        "  --shards <n>             shard count (default 2)\n"
        "  --campaign-bin <path>    fastmon_campaign binary (default\n"
        "                           resolved through $PATH)\n"
        "  --out <path>             merged campaign report (default\n"
        "                           <root>/merged_report.json)\n"
        "  --recover                requeue stale claims left by a dead\n"
        "                           supervisor before running\n"
        "\n"
        "failure handling:\n"
        "  --max-attempts <n>       launches per job before quarantine\n"
        "                           (default 3)\n"
        "  --max-parallel <n>       concurrent shard workers (default 2)\n"
        "  --stall-timeout <sec>    kill a worker whose heartbeat stops\n"
        "                           advancing for this long (default 30)\n"
        "  --backoff <sec>          initial retry backoff, doubling per\n"
        "                           attempt (default 0.5, capped at 8)\n"
        "\n"
        "fault injection (CI / tests):\n"
        "  --inject <spec>          FASTMON_FAULT_INJECT spec for the\n"
        "                           injected shard's workers\n"
        "  --inject-shard <i>       shard to inject (default 0)\n"
        "  --inject-every-attempt   keep the fault armed on retries (a\n"
        "                           poison job; default: first attempt\n"
        "                           only, so the retry recovers)\n";
}

}  // namespace

int main(int argc, char** argv) {
    using namespace fastmon;
    FleetConfig config;
    std::string campaign_bin = "fastmon_campaign";
    std::string out_path;
    std::string inject_spec;
    std::uint32_t inject_shard = 0;
    bool inject_every_attempt = false;
    bool recover = false;
    std::vector<std::string> campaign_args;
    config.shard_count = 2;

    int i = 1;
    for (; i < argc; ++i) {
        const char* arg = argv[i];
        auto need_value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::cerr << "error: " << arg << " needs a value\n";
                return nullptr;
            }
            return argv[++i];
        };
        // Checked flag values: false after a diagnostic when the value
        // is missing or malformed.
        auto count = [&](auto& out) {
            const char* text = need_value();
            return text != nullptr && parse_count_flag(arg, text, out);
        };
        auto real = [&](double& out, const RealRange& range) {
            const char* text = need_value();
            return text != nullptr && parse_real_flag(arg, text, out, range);
        };
        const char* v = nullptr;
        if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
            print_usage();
            return 0;
        } else if (std::strcmp(arg, "--") == 0) {
            ++i;
            break;
        } else if (std::strcmp(arg, "--recover") == 0) {
            recover = true;
        } else if (std::strcmp(arg, "--inject-every-attempt") == 0) {
            inject_every_attempt = true;
        } else if (std::strcmp(arg, "--root") == 0) {
            if (!(v = need_value())) return 2;
            config.root = v;
        } else if (std::strcmp(arg, "--shards") == 0) {
            if (!count(config.shard_count)) return 2;
        } else if (std::strcmp(arg, "--campaign-bin") == 0) {
            if (!(v = need_value())) return 2;
            campaign_bin = v;
        } else if (std::strcmp(arg, "--out") == 0) {
            if (!(v = need_value())) return 2;
            out_path = v;
        } else if (std::strcmp(arg, "--max-attempts") == 0) {
            if (!count(config.max_attempts)) return 2;
        } else if (std::strcmp(arg, "--max-parallel") == 0) {
            if (!count(config.max_parallel)) return 2;
        } else if (std::strcmp(arg, "--stall-timeout") == 0) {
            if (!real(config.stall_timeout_seconds, kPositive)) return 2;
        } else if (std::strcmp(arg, "--backoff") == 0) {
            if (!real(config.backoff_initial_seconds, kNonNegative)) return 2;
        } else if (std::strcmp(arg, "--inject") == 0) {
            if (!(v = need_value())) return 2;
            inject_spec = v;
        } else if (std::strcmp(arg, "--inject-shard") == 0) {
            if (!count(inject_shard)) return 2;
        } else {
            std::cerr << "error: unknown option " << arg
                      << " (--help for usage)\n";
            return 2;
        }
    }
    for (; i < argc; ++i) campaign_args.emplace_back(argv[i]);

    if (config.root.empty()) {
        std::cerr << "error: --root is required (--help for usage)\n";
        return 2;
    }
    if (config.shard_count == 0 || config.max_attempts == 0 ||
        config.max_parallel == 0) {
        std::cerr << "error: --shards/--max-attempts/--max-parallel must "
                     "be positive\n";
        return 2;
    }

    FleetQueue queue(config.root);
    std::string error;
    if (!queue.init(&error)) {
        std::cerr << "error: " << error << "\n";
        return 1;
    }
    if (recover) {
        const std::size_t recovered = queue.recover_stale();
        if (recovered > 0) {
            std::printf("fleet: requeued %zu stale claim(s)\n", recovered);
        }
    }

    // Enqueue every shard that is not already done or quarantined (so
    // re-running the supervisor over an existing root only finishes
    // the remaining work).
    const auto finished = [&](const std::string& id,
                              const std::vector<std::string>& ids) {
        for (const std::string& d : ids) {
            if (d == id) return true;
        }
        return false;
    };
    const auto done_ids = queue.done();
    const auto quarantined_ids = queue.quarantined();
    const auto pending_ids = queue.pending();
    for (std::uint32_t s = 0; s < config.shard_count; ++s) {
        FleetJob job;
        job.id = "shard-" + std::to_string(s);
        job.shard_index = s;
        job.shard_count = config.shard_count;
        if (finished(job.id, done_ids) ||
            finished(job.id, quarantined_ids) ||
            finished(job.id, pending_ids)) {
            continue;
        }
        if (!inject_spec.empty() && s == inject_shard) {
            job.fault_inject = inject_spec;
            job.fault_first_attempt_only = !inject_every_attempt;
        }
        if (!queue.enqueue(job)) {
            std::cerr << "error: cannot enqueue " << job.id << "\n";
            return 1;
        }
    }

    SubprocessShardLauncher launcher(campaign_bin, campaign_args);
    const FleetReport fleet = run_fleet(config, queue, launcher);

    for (const FleetJobRecord& job : fleet.jobs) {
        std::printf("shard %u: %-12s %u attempt(s)%s%s\n", job.shard_index,
                    job.state.c_str(), job.attempts,
                    job.detail.empty() ? "" : " — ", job.detail.c_str());
    }

    // Merge whatever the fleet produced (quarantined shards show up as
    // missing/corrupt artifacts and degrade the merge honestly).
    std::vector<std::string> shard_paths;
    shard_paths.reserve(config.shard_count);
    for (std::uint32_t s = 0; s < config.shard_count; ++s) {
        shard_paths.push_back(shard_artifact_path(config.root, s));
    }
    ShardMerge merged = merge_shard_results(shard_paths);
    // One combined status block: supervision first, then the merge.
    FlowStatus status = fleet.status;
    for (const PhaseStatus& phase : merged.status.phases) {
        status.phases.push_back(phase);
    }
    merged.report.set("run", [&] {
        Json run = *merged.report.find("run");
        run.set("fleet", fleet.to_json());
        run.set("status", status.to_json());
        return run;
    }());

    std::printf("fleet: %zu done, %zu quarantined, %zu retr%s, merged %zu "
                "of %zu devices (%s)\n",
                fleet.jobs_done, fleet.jobs_quarantined, fleet.retries,
                fleet.retries == 1 ? "y" : "ies", merged.devices_merged,
                merged.devices_expected, status.overall());

    if (!merged.mergeable) {
        std::cerr << "error: no shard produced a mergeable artifact\n";
        return 1;
    }
    if (out_path.empty()) out_path = config.root + "/merged_report.json";
    if (!atomic_write_file(out_path, merged.report.dump(2))) {
        std::cerr << "error: cannot write " << out_path << "\n";
        return 1;
    }
    std::printf("report: %s\n", out_path.c_str());
    return 0;
}
