// bench_check — bench-history regression gate for the campaign bench.
//
// run_bench.sh already validates each BENCH_campaign.json in
// isolation; this tool adds memory.  `append` distills a validated
// artifact's demo entry into one JSON line of BENCH_history.jsonl
// (schema fastmon-bench-history-v1), and `check` compares the current
// artifact against the median of the recent comparable history —
// same fast flag and batch width, so a FASTMON_FAST=1 smoke run is
// never judged against full-population numbers.  A metric that drops
// below (1 - tolerance) * median exits non-zero, catching gradual
// perf erosion that any single-run validation is blind to.
//
// The tolerance bands default wide (wall-clock on shared CI runners
// is noisy); ratios like batch_speedup are steadier than absolute
// devices/sec, so they get the tighter band.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "util/file_lock.hpp"
#include "util/json.hpp"

namespace {

using fastmon::Json;

constexpr const char* kSchema = "fastmon-bench-history-v1";

void print_usage() {
    std::cout <<
        "usage: bench_check <append|check> [options]\n"
        "\n"
        "common options:\n"
        "  --artifact <path>   campaign bench artifact\n"
        "                      (default BENCH_campaign.json)\n"
        "  --history <path>    history ledger, one JSON object per line\n"
        "                      (default BENCH_history.jsonl)\n"
        "  --fast              mark/compare FASTMON_FAST=1 smoke runs\n"
        "\n"
        "append: distill the artifact's demo entry into one history line\n"
        "  --git <describe>    git describe to record (default unknown)\n"
        "\n"
        "check: gate the artifact against the comparable history\n"
        "  --window <n>        newest comparable entries to use\n"
        "                      (default 10)\n"
        "  --min-history <n>   entries required before the gate engages;\n"
        "                      fewer passes with a note (default 3)\n"
        "  --tolerance-speedup <f>  allowed fractional drop in\n"
        "                      batch_speedup (default 0.4)\n"
        "  --tolerance-dps <f> allowed fractional drop in\n"
        "                      devices_per_sec (default 0.6)\n"
        "\n"
        "exit status: 0 ok, 1 regression, 2 usage / malformed input\n";
}

std::optional<Json> parse_file(const std::string& path, std::string& error) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot open " + path;
        return std::nullopt;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    fastmon::JsonParseError perr;
    std::optional<Json> j = Json::parse(buf.str(), perr);
    if (!j) {
        error = path + ": parse error at line " +
                std::to_string(perr.line) + ": " + perr.message;
        return std::nullopt;
    }
    return j;
}

double num(const Json& j, const char* key, double fallback) {
    const Json* v = j.find(key);
    return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

/// The demo entry of the artifact (entries[0] carries the
/// differential speedups), reduced to the history metrics.
struct DemoPerf {
    int batch_width = 0;
    double devices_per_sec = 0.0;
    double batch_speedup = 0.0;
    double demo_wall_seconds = 0.0;
};

std::optional<DemoPerf> read_demo_perf(const std::string& artifact_path,
                                       std::string& error) {
    const std::optional<Json> doc = parse_file(artifact_path, error);
    if (!doc) return std::nullopt;
    const Json* entries = doc->find("entries");
    if (entries == nullptr || !entries->is_array() ||
        entries->as_array().empty()) {
        error = artifact_path + ": no campaign entries";
        return std::nullopt;
    }
    const Json& demo = entries->as_array().front();
    DemoPerf perf;
    perf.batch_width = static_cast<int>(num(demo, "batch_width", 0.0));
    perf.devices_per_sec = num(demo, "devices_per_sec", 0.0);
    perf.batch_speedup = num(demo, "batch_speedup", 0.0);
    if (const Json* run = demo.find("run"); run != nullptr) {
        perf.demo_wall_seconds = num(*run, "total_wall_seconds", 0.0);
    }
    if (perf.batch_width < 1 || perf.devices_per_sec <= 0.0) {
        error = artifact_path + ": demo entry lacks batch_width / "
                                "devices_per_sec (run the bench first)";
        return std::nullopt;
    }
    return perf;
}

/// Parses the JSONL ledger, skipping blank lines; a malformed line is
/// an error (the ledger is append-only and machine-written, so damage
/// means something is wrong, not "ignore it").
std::optional<std::vector<Json>> read_history(const std::string& path,
                                              std::string& error,
                                              bool missing_ok) {
    std::vector<Json> lines;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (missing_ok) return lines;
        error = "cannot open " + path;
        return std::nullopt;
    }
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
        fastmon::JsonParseError perr;
        std::optional<Json> j = Json::parse(line, perr);
        if (!j || !j->is_object()) {
            error = path + ":" + std::to_string(lineno) +
                    ": malformed history line (" + perr.message + ")";
            return std::nullopt;
        }
        lines.push_back(std::move(*j));
    }
    return lines;
}

double median(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

struct Options {
    std::string command;
    std::string artifact = "BENCH_campaign.json";
    std::string history = "BENCH_history.jsonl";
    std::string git = "unknown";
    bool fast = false;
    std::size_t window = 10;
    std::size_t min_history = 3;
    double tolerance_speedup = 0.4;
    double tolerance_dps = 0.6;
};

bool parse_args(int argc, char** argv, Options& opt) {
    if (argc < 2) return false;
    opt.command = argv[1];
    if (opt.command == "--help" || opt.command == "-h") {
        print_usage();
        std::exit(0);
    }
    if (opt.command != "append" && opt.command != "check") return false;
    auto need_value = [&](int& i) -> const char* {
        if (i + 1 >= argc) {
            std::cerr << "error: " << argv[i] << " needs a value\n";
            return nullptr;
        }
        return argv[++i];
    };
    for (int i = 2; i < argc; ++i) {
        const char* arg = argv[i];
        const char* v = nullptr;
        if (std::strcmp(arg, "--fast") == 0) {
            opt.fast = true;
        } else if (std::strcmp(arg, "--artifact") == 0) {
            if (!(v = need_value(i))) return false;
            opt.artifact = v;
        } else if (std::strcmp(arg, "--history") == 0) {
            if (!(v = need_value(i))) return false;
            opt.history = v;
        } else if (std::strcmp(arg, "--git") == 0) {
            if (!(v = need_value(i))) return false;
            opt.git = v;
        } else if (std::strcmp(arg, "--window") == 0) {
            if (!(v = need_value(i))) return false;
            opt.window = static_cast<std::size_t>(std::atoll(v));
        } else if (std::strcmp(arg, "--min-history") == 0) {
            if (!(v = need_value(i))) return false;
            opt.min_history = static_cast<std::size_t>(std::atoll(v));
        } else if (std::strcmp(arg, "--tolerance-speedup") == 0) {
            if (!(v = need_value(i))) return false;
            opt.tolerance_speedup = std::atof(v);
        } else if (std::strcmp(arg, "--tolerance-dps") == 0) {
            if (!(v = need_value(i))) return false;
            opt.tolerance_dps = std::atof(v);
        } else {
            std::cerr << "error: unknown option " << arg << "\n";
            return false;
        }
    }
    if (opt.window == 0) opt.window = 1;
    return true;
}

int run_append(const Options& opt) {
    std::string error;
    // Exclusive ledger lock: two concurrent bench runs must not
    // interleave their read-check-append cycles (flock is advisory and
    // auto-released if the holder crashes, so a dead run never wedges
    // the ledger).
    const auto lock =
        fastmon::FileLock::exclusive(opt.history + ".lock", &error);
    if (!lock) {
        std::cerr << "error: " << error << "\n";
        return 2;
    }
    const std::optional<DemoPerf> perf = read_demo_perf(opt.artifact, error);
    if (!perf) {
        std::cerr << "error: " << error << "\n";
        return 2;
    }
    Json line = Json::object();
    line.set("schema", kSchema);
    line.set("git", opt.git);
    line.set("fast", opt.fast);
    line.set("batch_width", static_cast<std::int64_t>(perf->batch_width));
    line.set("devices_per_sec", perf->devices_per_sec);
    line.set("batch_speedup", perf->batch_speedup);
    line.set("demo_wall_seconds", perf->demo_wall_seconds);
    std::ofstream out(opt.history, std::ios::app | std::ios::binary);
    if (!out || !(out << line.dump(0) << '\n')) {
        std::cerr << "error: cannot append to " << opt.history << "\n";
        return 2;
    }
    std::cout << "bench_check: appended to " << opt.history << ": "
              << line.dump(0) << "\n";
    return 0;
}

int run_check(const Options& opt) {
    std::string error;
    // Same lock as append: a check racing another run's append must see
    // either the full new line or none of it, never a partial write.
    const auto lock =
        fastmon::FileLock::exclusive(opt.history + ".lock", &error);
    if (!lock) {
        std::cerr << "error: " << error << "\n";
        return 2;
    }
    const std::optional<DemoPerf> perf = read_demo_perf(opt.artifact, error);
    if (!perf) {
        std::cerr << "error: " << error << "\n";
        return 2;
    }
    const std::optional<std::vector<Json>> history =
        read_history(opt.history, error, /*missing_ok=*/true);
    if (!history) {
        std::cerr << "error: " << error << "\n";
        return 2;
    }

    // Only entries from the same regime are comparable: the fast flag
    // changes the population and the batch width changes the engine.
    std::vector<const Json*> comparable;
    for (const Json& line : *history) {
        const Json* fast = line.find("fast");
        if (fast == nullptr || !fast->is_bool() ||
            fast->as_bool() != opt.fast) {
            continue;
        }
        if (static_cast<int>(num(line, "batch_width", 0.0)) !=
            perf->batch_width) {
            continue;
        }
        comparable.push_back(&line);
    }
    if (comparable.size() < opt.min_history) {
        std::cout << "bench_check: pass — no comparable history yet ("
                  << comparable.size() << " of " << opt.min_history
                  << " required entries for fast=" << (opt.fast ? 1 : 0)
                  << " width=" << perf->batch_width << ")\n";
        return 0;
    }
    if (comparable.size() > opt.window) {
        comparable.erase(comparable.begin(),
                         comparable.end() -
                             static_cast<std::ptrdiff_t>(opt.window));
    }

    struct Gate {
        const char* key;
        double current;
        double tolerance;
    };
    const Gate gates[] = {
        {"devices_per_sec", perf->devices_per_sec, opt.tolerance_dps},
        {"batch_speedup", perf->batch_speedup, opt.tolerance_speedup},
    };
    bool ok = true;
    for (const Gate& gate : gates) {
        std::vector<double> values;
        for (const Json* line : comparable) {
            const double v = num(*line, gate.key, 0.0);
            if (v > 0.0) values.push_back(v);
        }
        if (values.size() < opt.min_history) {
            std::printf("bench_check: %-16s current %10.2f  (history too "
                        "thin, skipped)\n", gate.key, gate.current);
            continue;
        }
        const double med = median(values);
        const double floor = med * (1.0 - gate.tolerance);
        const bool pass = gate.current >= floor;
        std::printf("bench_check: %-16s current %10.2f  median %10.2f "
                    "(n=%zu)  floor %10.2f  %s\n",
                    gate.key, gate.current, med, values.size(), floor,
                    pass ? "ok" : "REGRESSION");
        ok = ok && pass;
    }
    if (!ok) {
        std::cerr << "bench_check: REGRESSION against " << opt.history
                  << " (window " << comparable.size() << ", fast="
                  << (opt.fast ? 1 : 0) << ", width=" << perf->batch_width
                  << ")\n";
        return 1;
    }
    std::cout << "bench_check: within the tolerance band of "
              << comparable.size() << " comparable run(s)  [OK]\n";
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    if (!parse_args(argc, argv, opt)) {
        print_usage();
        return 2;
    }
    return opt.command == "append" ? run_append(opt) : run_check(opt);
}
