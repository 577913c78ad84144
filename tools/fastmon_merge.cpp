// fastmon_merge — validate and merge shard campaign artifacts.
//
// Takes the per-shard artifacts a fleet run produced (each
// `fastmon_campaign --shard i/N` run's --checkpoint file, default
// <out-stem>.shard.json), validates each one (schema, content checksum,
// campaign fingerprint, device-range coverage, aggregate cross-check),
// and folds the survivors into one campaign report whose
// campaign/aggregate blocks are bit-identical to a single-process run
// of the same campaign.  Any campaign's checkpoint is such an artifact,
// so a killed run's checkpoint merges directly as an `incomplete`
// shard.  Damage is never fatal: a missing, corrupt, or
// foreign shard is reported per shard, the merge degrades honestly
// (run.merge + run.status say exactly what is covered), and the exit
// status stays 0 as long as anything at all could be merged —
// mirroring the repo-wide graceful-degradation contract.  Exit 1 means
// no report could be produced; exit 2 is a usage error.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "campaign/shard.hpp"
#include "util/atomic_file.hpp"

namespace {

void print_usage() {
    std::cout <<
        "usage: fastmon_merge [options] <shard.json> [<shard.json> ...]\n"
        "\n"
        "  --out <path>     merged campaign report (default\n"
        "                   merged_report.json)\n"
        "  --strict         exit 1 unless every shard is ok and the merged\n"
        "                   report covers the full population\n"
        "  --quiet          suppress the per-shard status table\n";
}

}  // namespace

int main(int argc, char** argv) {
    using namespace fastmon;
    std::string out_path = "merged_report.json";
    std::vector<std::string> shard_paths;
    bool strict = false;
    bool quiet = false;
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
            print_usage();
            return 0;
        } else if (std::strcmp(arg, "--strict") == 0) {
            strict = true;
        } else if (std::strcmp(arg, "--quiet") == 0) {
            quiet = true;
        } else if (std::strcmp(arg, "--out") == 0) {
            if (i + 1 >= argc) {
                std::cerr << "error: --out needs a value\n";
                return 2;
            }
            out_path = argv[++i];
        } else if (arg[0] == '-') {
            std::cerr << "error: unknown option " << arg
                      << " (--help for usage)\n";
            return 2;
        } else {
            shard_paths.push_back(arg);
        }
    }
    if (shard_paths.empty()) {
        std::cerr << "error: no shard artifacts given (--help for usage)\n";
        return 2;
    }

    const ShardMerge merged = merge_shard_results(shard_paths);

    if (!quiet) {
        for (const ShardStatus& s : merged.shards) {
            std::printf("shard %zu: %-20s %s%s%s\n", s.slot,
                        shard_state_name(s.state), s.path.c_str(),
                        s.detail.empty() ? "" : " — ",
                        s.detail.c_str());
        }
        std::printf("merged: %zu of %zu devices (%s)\n",
                    merged.devices_merged, merged.devices_expected,
                    merged.status.overall());
    }

    if (!merged.mergeable) {
        std::cerr << "error: no valid shard artifacts; nothing to merge\n";
        return 1;
    }
    if (!atomic_write_file(out_path, merged.report.dump(2))) {
        std::cerr << "error: cannot write " << out_path << "\n";
        return 1;
    }
    if (!quiet) std::printf("report: %s\n", out_path.c_str());
    if (strict && !merged.complete) {
        std::cerr << "error: --strict and the merge is incomplete\n";
        return 1;
    }
    return 0;
}
