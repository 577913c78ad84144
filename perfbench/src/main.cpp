// perfbench: the repository's benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Untraced (--trace 0): sets the workload up several times (median =
// setup_s), then repeats the timed call for --seconds and reports the
// median call as wall_s, plus peak RSS.  Traced (--trace 1): one
// reference call, the same result composed from public calls under
// spans, and the per-layer metrics; spans are written to
// .bench_out/<workload>-seed<n>.spans.json under the working directory.  Either way the last line
// of stdout is the JSON result {"correct", "attempted", "failed",
// "metrics"}.
#include <malloc.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "spans.hpp"
#include "util/log.hpp"
#include "util/manifest.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 7;

const char* const kWorkloads[] = {"flow_s9234", "flow_s38417_sat",
                                  "campaign_s38417",
                                  "campaign_s9234_mission"};

struct MetricName {
    const char* name;
    const char* unit;
};

/// Printed by every traced run, in this order; a layer that does no
/// work on a workload reports 0.
const MetricName kPerLayer[] = {
    {"netlist.load_s", "s"},
    {"timing.sta_s", "s"},
    {"monitor.place_s", "s"},
    {"monitor.shift_s", "s"},
    {"atpg.s", "s"},
    {"atpg.random_s", "s"},
    {"atpg.deterministic_s", "s"},
    {"atpg.targets", "count"},
    {"atpg.aborted", "count"},
    {"atpg.untestable", "count"},
    {"atpg.patterns", "count"},
    {"atpg.backtracks", "count"},
    {"atpg.ms_per_target", "ms"},
    {"podem.backtracks", "count"},
    {"sat.solves", "count"},
    {"sat.conflicts", "count"},
    {"sat.conflicts_per_s", "1/s"},
    {"fault.classify_s", "s"},
    {"fault.candidates", "count"},
    {"fault.simulated", "count"},
    {"fault_sim.pass_a_s", "s"},
    {"fault_sim.pass_b_s", "s"},
    {"fault_sim.pairs_total", "count"},
    {"fault_sim.screened_ratio", "ratio"},
    {"fault_sim.simulated_ratio", "ratio"},
    {"fault_sim.us_per_pair", "us"},
    {"fault_sim.gates_reevaluated", "count"},
    {"fault_sim.good_wave_s", "s"},
    {"schedule.freq_select_s", "s"},
    {"schedule.pattern_config_s", "s"},
    {"opt.set_cover.solves", "count"},
    {"opt.set_cover.nodes", "count"},
    {"opt.set_cover.nodes_per_s", "1/s"},
    {"opt.set_cover.budget_exhausted", "count"},
    {"campaign.sample_s", "s"},
    {"campaign.roll_s", "s"},
    {"campaign.aggregate_s", "s"},
    {"campaign.lane_years", "count"},
    {"campaign.lane_years_per_s", "1/s"},
    {"campaign.settled_early_ratio", "ratio"},
    {"campaign.batch_sta_passes", "count"},
    {"wearout.activity_s", "s"},
    {"wearout.model_s", "s"},
    {"pool.busy_s", "s"},
    {"pool.utilization", "ratio"},
    {"pool.steals", "count"},
    {"cores_used", "ratio"},
    {"trace.wall_s", "s"},
    {"trace.untraced_wall_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.self_coverage", "ratio"},
    {"trace.named_self_share", "ratio"},
    {"tdf_coverage", "ratio"},
    {"atpg_abort_ratio", "ratio"},
    {"hdf_coverage_prop", "ratio"},
    {"test_frequencies", "count"},
    {"schedule_size", "count"},
    {"solve_budget_ratio", "ratio"},
    {"devices_per_s", "1/s"},
    {"roc_auc", "ratio"},
    {"average_precision", "ratio"},
};

[[noreturn]] void usage(const std::string& error) {
    std::cerr << "perfbench: " << error << "\n"
              << "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\nworkloads:";
    for (const char* w : kWorkloads) std::cerr << " " << w;
    std::cerr << "\n";
    std::exit(2);
}

unsigned long long parse_uint(const char* flag, const char* text) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-') {
        usage(std::string("bad value for ") + flag + ": " + text);
    }
    return v;
}

void print_run_info(const RunOptions& opt) {
    double load[3] = {0.0, 0.0, 0.0};
    if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1.0;
    std::cout << "run_info: {\"workload\": \"" << opt.workload
              << "\", \"seed\": " << opt.seed
              << ", \"seconds\": " << json_number(opt.seconds)
              << ", \"trace\": " << (opt.trace ? 1 : 0)
              << ", \"threads\": " << opt.threads
              << ", \"nproc\": " << std::thread::hardware_concurrency()
              << ", \"loadavg\": [" << json_number(load[0]) << ", "
              << json_number(load[1]) << ", " << json_number(load[2])
              << "], \"build_type\": \"" << PERFBENCH_BUILD_TYPE
              << "\", \"git_describe\": \"" << fastmon::build_git_describe()
              << "\"}\n";
}

void print_table(const Metrics& m) {
    for (const Metric& x : m.items()) {
        std::cout << "  " << x.name << " = " << json_number(x.value) << " "
                  << x.unit << "\n";
    }
}

int run(const RunOptions& opt) {
    std::unique_ptr<Workload> workload =
        opt.workload.rfind("flow_", 0) == 0 ? make_flow_workload(opt)
                                            : make_campaign_workload(opt);
    print_run_info(opt);

    std::vector<double> setups;
    for (int k = 0; k < kSetupRepeats; ++k) {
        const double t0 = now_seconds();
        workload->setup();
        setups.push_back(now_seconds() - t0);
    }

    Checks checks;
    Metrics result;
    if (!opt.trace) {
        std::vector<double> walls;
        const double start = now_seconds();
        const double cpu0 = cpu_seconds();
        // Repeat whole calls until the measuring window has passed.
        while (now_seconds() - start < opt.seconds) {
            checks.begin("timed_call");
            walls.push_back(workload->timed_call(checks));
            checks.end();
        }
        const double elapsed = now_seconds() - start;
        const double cores = (cpu_seconds() - cpu0) / elapsed;
        workload->final_checks(checks);

        result.set("setup_s", median(setups), "s");
        result.set("wall_s", median(walls), "s");
        result.set("peak_rss_mb", peak_rss_mb(), "MB");

        Metrics table = result;
        table.set("timed_calls", static_cast<double>(walls.size()), "count");
        table.set("cores_used", cores, "ratio");
        workload->report(table);
        std::cout << "timed calls (s):";
        for (double w : walls) std::cout << " " << json_number(w);
        std::cout << "\nmetrics:\n";
        print_table(table);
    } else {
        SpanRecorder spans;
        Metrics layers;
        workload->traced(checks, spans, layers);
        for (const MetricName& m : kPerLayer) {
            // A layer that does no work on this workload reports 0.
            const Metric* found = layers.find(m.name);
            result.set(m.name, found ? found->value : 0.0, m.unit);
        }
        std::cout << "per-layer metrics:\n";
        print_table(result);
        std::filesystem::create_directories(".bench_out");
        const std::string path = ".bench_out/" + opt.workload + "-seed" +
                                 std::to_string(opt.seed) + ".spans.json";
        if (!spans.write_json(path)) {
            std::cerr << "perfbench: cannot write " << path << "\n";
            return 1;
        }
        std::cout << "spans written to " << path << "\n";
    }
    print_result(std::cout, checks, result);
    return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    RunOptions opt;
    bool have_workload = false;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) usage("missing value for " + arg);
        const char* v = argv[++i];
        if (arg == "--workload") {
            opt.workload = v;
            have_workload = true;
        } else if (arg == "--seed") {
            opt.seed = parse_uint("--seed", v);
            have_seed = true;
        } else if (arg == "--seconds") {
            opt.seconds = static_cast<double>(parse_uint("--seconds", v));
        } else if (arg == "--trace") {
            opt.trace = parse_uint("--trace", v) != 0;
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (!have_workload || !have_seed) usage("--workload and --seed are required");
    bool known = false;
    for (const char* w : kWorkloads) known = known || opt.workload == w;
    if (!known) usage("unknown workload " + opt.workload);
    // An explicit worker count, never the library's 0 = all cores.
    opt.threads = std::min<std::size_t>(
        2, std::max(1u, std::thread::hardware_concurrency()));
    fastmon::set_log_level(fastmon::LogLevel::Warn);
    // One malloc arena: with glibc's per-thread arenas the flows' peak RSS
    // depends on which thread freed what (one seed of flow_s38417_sat read
    // 62-84 MB from run to run); one arena halves that spread.
    mallopt(M_ARENA_MAX, 1);
    try {
        return run(opt);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
