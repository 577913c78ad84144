// fastmon_status — pretty-print a live campaign heartbeat sidecar.
//
// Reads the *.heartbeat.json file a telemetry-enabled fastmon_campaign
// run rewrites atomically (util/progress.hpp) and renders it as a
// one-screen status report: state, devices done, throughput, ETA, and
// a per-worker utilization table.  Single-shot by default; --follow
// polls until the writer records a terminal state (anything other
// than "running").  Because the writer uses write-to-temp-then-rename,
// a reader never sees a torn file — at worst a transiently missing
// one, which --follow tolerates.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "util/cli_parse.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

using fastmon::Json;
using fastmon::TextTable;

void print_usage() {
    std::cout <<
        "usage: fastmon_status [options] <heartbeat.json>\n"
        "\n"
        "  --follow           poll until the campaign reports a terminal\n"
        "                     state (finished / cancelled / degraded)\n"
        "  --interval <sec>   polling period for --follow (default 1)\n"
        "  --stale-after <s>  with --follow, report `stale` and exit 3\n"
        "                     when the heartbeat stops advancing (or the\n"
        "                     file stays unreadable) for this long\n"
        "                     (default 10; 0 waits forever)\n"
        "\n"
        "Reads the heartbeat sidecar written by a fastmon_campaign run\n"
        "with --heartbeat or FASTMON_HEARTBEAT set.  The sidecar is\n"
        "atomically replaced, so a concurrent read never sees a torn\n"
        "file; with --follow a transiently missing file is retried (the\n"
        "file is reopened by path on every poll, so checkpoint/rename\n"
        "cycles and log rotation never wedge the follower).  A writer\n"
        "that dies without a terminal state surfaces as `stale` instead\n"
        "of an infinite wait or a read-error exit.\n";
}

std::optional<Json> read_heartbeat(const std::string& path,
                                   std::string& error) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot open " + path;
        return std::nullopt;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    fastmon::JsonParseError perr;
    std::optional<Json> j = Json::parse(buf.str(), perr);
    if (!j || !j->is_object()) {
        error = path + ": not a JSON object (" + perr.message + ")";
        return std::nullopt;
    }
    return j;
}

double num(const Json& j, const char* key, double fallback = 0.0) {
    const Json* v = j.find(key);
    return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

std::string str(const Json& j, const char* key) {
    const Json* v = j.find(key);
    return (v != nullptr && v->is_string()) ? v->as_string() : "?";
}

std::string format_eta(double seconds) {
    if (seconds < 0.0) return "unknown";
    char buf[64];
    if (seconds >= 3600.0) {
        std::snprintf(buf, sizeof buf, "%.1f h", seconds / 3600.0);
    } else if (seconds >= 60.0) {
        std::snprintf(buf, sizeof buf, "%.1f min", seconds / 60.0);
    } else {
        std::snprintf(buf, sizeof buf, "%.1f s", seconds);
    }
    return buf;
}

void print_heartbeat(const Json& hb) {
    const std::string label = str(hb, "label");
    const std::string state = str(hb, "state");
    const double done = num(hb, "devices_done");
    const double total = num(hb, "devices_total");
    const double resumed = num(hb, "devices_resumed");
    const double pct = total > 0.0 ? 100.0 * done / total : 0.0;

    std::printf("campaign %s: %s  (heartbeat #%.0f, %.1f s elapsed)\n",
                label.c_str(), state.c_str(), num(hb, "sequence"),
                num(hb, "elapsed_seconds"));
    std::printf("devices:  %.0f/%.0f (%.1f%%)", done, total, pct);
    if (resumed > 0.0) std::printf(", %.0f resumed", resumed);
    std::printf("\n");
    std::printf("rate:     %.0f devices/s, eta %s\n",
                num(hb, "throughput_devices_per_sec"),
                format_eta(num(hb, "eta_seconds", -1.0)).c_str());
    const double budget = num(hb, "lane_years_budget");
    const double lane_years = num(hb, "lane_years_done");
    const double settled = num(hb, "lanes_settled_early");
    if (budget > 0.0) {
        std::printf(
            "grid:     %.0f/%.0f lane-years (%.1f%%), "
            "%.0f lanes settled early, %.0f STA passes\n",
            lane_years, budget, 100.0 * lane_years / budget, settled,
            num(hb, "batches"));
    }

    const Json* workers = hb.find("workers");
    if (workers != nullptr && workers->is_array() &&
        !workers->as_array().empty()) {
        TextTable table({"worker", "devices", "STA passes", "busy (s)",
                         "util %"});
        std::size_t index = 0;
        for (const Json& w : workers->as_array()) {
            table.begin_row();
            table.cell(index++);
            table.cell(static_cast<long long>(num(w, "devices")));
            table.cell(static_cast<long long>(num(w, "batches")));
            table.cell(num(w, "busy_seconds"), 2);
            table.cell(100.0 * num(w, "utilization"), 1);
        }
        table.print(std::cout);
    }
}

}  // namespace

int main(int argc, char** argv) {
    std::string path;
    bool follow = false;
    double interval = 1.0;
    double stale_after = 10.0;
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        // Checked flag value: false after a diagnostic when it is
        // missing or malformed.
        auto real = [&](double& out, const fastmon::RealRange& range) {
            if (i + 1 >= argc) {
                std::cerr << "error: " << arg << " needs a value\n";
                return false;
            }
            return fastmon::parse_real_flag(arg, argv[++i], out, range);
        };
        if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
            print_usage();
            return 0;
        } else if (std::strcmp(arg, "--follow") == 0) {
            follow = true;
        } else if (std::strcmp(arg, "--interval") == 0) {
            if (!real(interval, fastmon::kPositive)) return 2;
        } else if (std::strcmp(arg, "--stale-after") == 0) {
            if (!real(stale_after, fastmon::kNonNegative)) return 2;
        } else if (arg[0] == '-') {
            std::cerr << "error: unknown option " << arg
                      << " (--help for usage)\n";
            return 2;
        } else if (path.empty()) {
            path = arg;
        } else {
            std::cerr << "error: more than one heartbeat path\n";
            return 2;
        }
    }
    if (path.empty()) {
        print_usage();
        return 2;
    }

    bool printed = false;
    // Staleness: the sidecar's own sequence counter is the liveness
    // signal.  A writer that died leaves a frozen (or missing) file;
    // after stale_after seconds without a new sequence the follower
    // reports `stale` and exits 3 instead of waiting forever.
    double last_sequence = -1.0;
    auto last_advance = std::chrono::steady_clock::now();
    for (;;) {
        std::string error;
        std::optional<Json> hb = read_heartbeat(path, error);
        const auto now = std::chrono::steady_clock::now();
        if (hb) {
            const double sequence = num(*hb, "sequence", -1.0);
            if (sequence != last_sequence) {
                last_sequence = sequence;
                last_advance = now;
            }
            if (printed) std::printf("\n");
            print_heartbeat(*hb);
            printed = true;
            if (!follow || str(*hb, "state") != "running") return 0;
        } else if (!follow) {
            std::cerr << "error: " << error << "\n";
            return 1;
        }
        // else: transient — the writer may not have produced the first
        // snapshot yet, or is mid-rename.  Keep polling (by path: a
        // fresh open every round, never a cached descriptor).
        const double silent =
            std::chrono::duration<double>(now - last_advance).count();
        if (stale_after > 0.0 && silent > stale_after) {
            std::printf("campaign ?: stale — %s for %.0f s%s\n",
                        printed ? "heartbeat frozen"
                                : "no readable heartbeat",
                        silent, printed ? " (writer died?)" : "");
            return 3;
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double>(interval));
    }
}
