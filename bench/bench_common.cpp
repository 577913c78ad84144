#include "bench_common.hpp"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "util/atomic_file.hpp"
#include "util/cancel.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace fastmon::bench {

namespace {

std::size_t env_size(const char* name, std::size_t fallback) {
    const char* v = std::getenv(name);
    if (v == nullptr) return fallback;
    return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

bool env_flag(const char* name) {
    const char* v = std::getenv(name);
    return v != nullptr && std::string(v) != "0" && std::string(v) != "";
}

}  // namespace

BenchSettings BenchSettings::from_env() {
    // Every bench is interruptible: Ctrl-C (or FASTMON_DEADLINE, armed
    // by the token's first access) requests cooperative cancellation,
    // and the flow flushes a manifest snapshot at each phase boundary.
    CancelToken::global().install_signal_handlers();
    BenchSettings s;
    s.fast = env_flag("FASTMON_FAST");
    if (s.fast) {
        s.max_gates = 800;
        s.max_faults = 1000;
    }
    s.max_gates = env_size("FASTMON_MAX_GATES", s.max_gates);
    s.max_faults = env_size("FASTMON_MAX_FAULTS", s.max_faults);
    s.no_cache = env_flag("FASTMON_NO_CACHE");
    if (const char* p = std::getenv("FASTMON_PROFILES")) {
        std::istringstream is(p);
        std::string tok;
        while (std::getline(is, tok, ',')) {
            if (!tok.empty()) s.profiles.push_back(tok);
        }
    }
    return s;
}

void BenchSettings::print_header(const std::string& bench_name) const {
    std::cout << "== " << bench_name << " ==\n";
    std::cout << "settings: max_gates=" << max_gates
              << " max_faults=" << max_faults << " fast=" << (fast ? 1 : 0)
              << "\n";
    std::cout << "note: profiles larger than max_gates are generated scaled"
                 " down; absolute counts are therefore smaller than the"
                 " paper's, the qualitative shape is the reproduction"
                 " target (see EXPERIMENTS.md).\n";
}

double profile_scale(const BenchSettings& settings,
                     const CircuitProfile& profile) {
    if (profile.gates <= settings.max_gates) return 1.0;
    return static_cast<double>(settings.max_gates) /
           static_cast<double>(profile.gates);
}

HdfFlowConfig bench_flow_config(const BenchSettings& settings,
                                const CircuitProfile& profile) {
    HdfFlowConfig config;
    config.seed = profile.seed;
    config.max_simulated_faults = settings.max_faults;
    config.atpg.seed = profile.seed;
    config.atpg.max_deterministic_faults = settings.fast ? 0 : 400;
    config.atpg.deterministic_phase = !settings.fast;
    config.atpg.max_random_batches = settings.fast ? 40 : 150;
    config.solver.time_limit_sec = settings.fast ? 2.0 : 10.0;
    config.solver.max_nodes = settings.fast ? 20000 : 200000;
    // Phase-boundary manifest snapshots (atomic replace), so a run
    // killed mid-flow still leaves a well-formed BENCH_manifest.json.
    config.manifest_path = "BENCH_manifest.json";
    return config;
}

namespace {

std::string cache_key(const BenchSettings& settings,
                      const CircuitProfile& profile) {
    std::ostringstream os;
    os << profile.name << "_v6_g" << settings.max_gates << "_f"
       << settings.max_faults << (settings.fast ? "_fast" : "");
    return os.str();
}

std::filesystem::path cache_dir() {
    return std::filesystem::path("fastmon_bench_cache");
}

}  // namespace

std::string serialize_result(const HdfFlowResult& r) {
    std::ostringstream os;
    os.precision(12);
    os << "circuit " << r.circuit << '\n';
    os << "num_gates " << r.num_gates << '\n';
    os << "num_ffs " << r.num_ffs << '\n';
    os << "num_patterns " << r.num_patterns << '\n';
    os << "num_monitors " << r.num_monitors << '\n';
    os << "fault_universe " << r.fault_universe << '\n';
    os << "at_speed " << r.at_speed_detectable << '\n';
    os << "redundant " << r.timing_redundant << '\n';
    os << "candidates " << r.candidate_faults << '\n';
    os << "simulated " << r.simulated_faults << '\n';
    os << "detected_conv " << r.detected_conv << '\n';
    os << "detected_prop " << r.detected_prop << '\n';
    os << "gain_percent " << r.gain_percent << '\n';
    os << "monitor_at_speed " << r.monitor_at_speed << '\n';
    os << "target_faults " << r.target_faults << '\n';
    os << "freq_conv " << r.freq_conv << '\n';
    os << "freq_heur " << r.freq_heur << '\n';
    os << "freq_prop " << r.freq_prop << '\n';
    os << "freq_reduction " << r.freq_reduction_percent << '\n';
    os << "orig_pc " << r.orig_pc << '\n';
    os << "opti_pc " << r.opti_pc << '\n';
    os << "pc_reduction " << r.pc_reduction_percent << '\n';
    os << "schedule_optimal " << (r.schedule_proven_optimal ? 1 : 0) << '\n';
    os << "schedule_lower_bound " << r.schedule_lower_bound << '\n';
    os << "schedule_uncovered " << r.schedule_uncovered << '\n';
    os << "clock_period " << r.clock_period << '\n';
    os << "t_min " << r.t_min << '\n';
    os << "atpg_coverage " << r.atpg_coverage << '\n';
    for (const CoverageRow& row : r.coverage_rows) {
        os << "coverage_row " << row.coverage << ' ' << row.num_frequencies
           << ' ' << row.naive_pc << ' ' << row.schedule_size << ' '
           << row.reduction_percent << '\n';
    }
    const DetectionCounters& c = r.detection;
    os << "detection " << c.pairs_total << ' ' << c.pairs_screened_out << ' '
       << c.pairs_inactive << ' ' << c.pairs_simulated << ' '
       << c.pairs_detected << ' ' << c.gates_reevaluated << ' '
       << c.good_wave_sims << ' ' << c.screen_seconds << ' '
       << c.good_wave_seconds << ' ' << c.fault_sim_seconds << ' '
       << c.analyze_seconds << ' ' << c.table_seconds << '\n';
    return os.str();
}

bool deserialize_result(const std::string& text, HdfFlowResult& r) {
    std::istringstream is(text);
    std::string key;
    std::size_t fields = 0;
    while (is >> key) {
        if (key == "circuit") {
            is >> r.circuit;
        } else if (key == "num_gates") {
            is >> r.num_gates;
        } else if (key == "num_ffs") {
            is >> r.num_ffs;
        } else if (key == "num_patterns") {
            is >> r.num_patterns;
        } else if (key == "num_monitors") {
            is >> r.num_monitors;
        } else if (key == "fault_universe") {
            is >> r.fault_universe;
        } else if (key == "at_speed") {
            is >> r.at_speed_detectable;
        } else if (key == "redundant") {
            is >> r.timing_redundant;
        } else if (key == "candidates") {
            is >> r.candidate_faults;
        } else if (key == "simulated") {
            is >> r.simulated_faults;
        } else if (key == "detected_conv") {
            is >> r.detected_conv;
        } else if (key == "detected_prop") {
            is >> r.detected_prop;
        } else if (key == "gain_percent") {
            is >> r.gain_percent;
        } else if (key == "monitor_at_speed") {
            is >> r.monitor_at_speed;
        } else if (key == "target_faults") {
            is >> r.target_faults;
        } else if (key == "freq_conv") {
            is >> r.freq_conv;
        } else if (key == "freq_heur") {
            is >> r.freq_heur;
        } else if (key == "freq_prop") {
            is >> r.freq_prop;
        } else if (key == "freq_reduction") {
            is >> r.freq_reduction_percent;
        } else if (key == "orig_pc") {
            is >> r.orig_pc;
        } else if (key == "opti_pc") {
            is >> r.opti_pc;
        } else if (key == "pc_reduction") {
            is >> r.pc_reduction_percent;
        } else if (key == "schedule_optimal") {
            int v = 0;
            is >> v;
            r.schedule_proven_optimal = v != 0;
        } else if (key == "schedule_lower_bound") {
            is >> r.schedule_lower_bound;
        } else if (key == "schedule_uncovered") {
            is >> r.schedule_uncovered;
        } else if (key == "clock_period") {
            is >> r.clock_period;
        } else if (key == "t_min") {
            is >> r.t_min;
        } else if (key == "atpg_coverage") {
            is >> r.atpg_coverage;
        } else if (key == "coverage_row") {
            CoverageRow row;
            is >> row.coverage >> row.num_frequencies >> row.naive_pc >>
                row.schedule_size >> row.reduction_percent;
            r.coverage_rows.push_back(row);
            continue;
        } else if (key == "detection") {
            DetectionCounters& c = r.detection;
            is >> c.pairs_total >> c.pairs_screened_out >> c.pairs_inactive >>
                c.pairs_simulated >> c.pairs_detected >> c.gates_reevaluated >>
                c.good_wave_sims >> c.screen_seconds >>
                c.good_wave_seconds >> c.fault_sim_seconds >>
                c.analyze_seconds >> c.table_seconds;
            continue;
        } else {
            return false;
        }
        ++fields;
    }
    return fields >= 20;
}

std::vector<HdfFlowResult> run_all_profiles(const BenchSettings& settings) {
    std::vector<HdfFlowResult> results;
    std::error_code ec;
    std::filesystem::create_directories(cache_dir(), ec);

    for (const CircuitProfile& profile : paper_profiles()) {
        if (!settings.profiles.empty() &&
            std::find(settings.profiles.begin(), settings.profiles.end(),
                      profile.name) == settings.profiles.end()) {
            continue;
        }
        const std::filesystem::path cache_file =
            cache_dir() / (cache_key(settings, profile) + ".txt");
        if (!settings.no_cache && std::filesystem::exists(cache_file)) {
            std::ifstream in(cache_file);
            std::stringstream buf;
            buf << in.rdbuf();
            HdfFlowResult r;
            if (deserialize_result(buf.str(), r)) {
                std::cerr << "[cache] " << profile.name << " loaded from "
                          << cache_file.string() << '\n';
                results.push_back(std::move(r));
                continue;
            }
        }
        const auto start = std::chrono::steady_clock::now();
        const double scale = profile_scale(settings, profile);
        const Netlist netlist =
            generate_circuit(profile_config(profile, scale));
        HdfFlow flow(netlist, bench_flow_config(settings, profile));
        HdfFlowResult r;
        try {
            r = flow.run();
        } catch (const FlowError& e) {
            // An essential phase died; the phase-boundary snapshot
            // (with its "failed" phase entry) is already on disk.
            std::cerr << "[flow] " << profile.name << " FAILED: "
                      << e.what() << '\n';
            RunManifest failed;
            failed.set_circuit("name", Json(profile.name));
            failed.set_status(flow.status().to_json("failed"));
            failed.write("BENCH_manifest.json");
            if (CancelToken::global().cancelled()) break;
            continue;
        }
        const double secs =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        std::cerr << "[flow] " << profile.name << " (scale "
                  << scale << ") done in " << secs << " s"
                  << (r.status.complete() ? "" : " (degraded)") << '\n';
        // Flow-level run manifest (config, circuit, per-phase times,
        // metrics snapshot); successive profiles overwrite, so the file
        // describes the last fresh run.
        if (flow.manifest(r).write("BENCH_manifest.json")) {
            std::cerr << "[artifact] wrote BENCH_manifest.json ("
                      << profile.name << ")\n";
        } else {
            std::cerr << "[artifact] FAILED to write BENCH_manifest.json\n";
        }
        // Never cache a degraded result: the next (uncancelled) run
        // must recompute it in full.
        if (r.status.complete()) {
            std::ofstream out(cache_file);
            out << serialize_result(r);
        }
        const bool stop = CancelToken::global().cancelled();
        results.push_back(std::move(r));
        if (stop) {
            std::cerr << "[flow] cancelled ("
                      << cancel_cause_name(CancelToken::global().cause())
                      << "); skipping remaining profiles\n";
            break;
        }
    }
    return results;
}

void write_detection_json(const std::string& path,
                          const std::string& bench_name,
                          std::span<const DetectionBenchEntry> entries) {
    Json doc = Json::object();
    doc.set("bench", Json(bench_name));
    Json rows = Json::array();
    for (const DetectionBenchEntry& e : entries) {
        Json row = Json::object();
        row.set("name", Json(e.name));
        row.set("num_faults", Json(e.num_faults));
        row.set("num_patterns", Json(e.num_patterns));
        const Json counters = e.counters.to_json();
        for (const auto& [key, value] : counters.as_object()) {
            row.set(key, value);
        }
        rows.push_back(std::move(row));
    }
    doc.set("entries", std::move(rows));
    if (!atomic_write_file(path, doc.dump(2) + '\n')) {
        std::cerr << "[artifact] FAILED to write " << path << '\n';
        return;
    }
    std::cerr << "[artifact] wrote " << path << '\n';
}

void write_bench_manifest(const std::string& path,
                          const std::string& bench_name,
                          const BenchSettings& settings,
                          std::span<const PhaseTime> phases,
                          double total_wall_seconds,
                          const FlowStatus* flow_status) {
    RunManifest m;
    m.set_config("bench", Json(bench_name));
    m.set_config("max_gates", Json(settings.max_gates));
    m.set_config("max_faults", Json(settings.max_faults));
    m.set_config("fast", Json(settings.fast));
    for (const PhaseTime& p : phases) m.add_phase(p);
    m.set_total_wall_seconds(total_wall_seconds);
    // Status block: per-phase outcomes when the caller hands over its
    // flow status, process-level cancellation either way.
    const CancelToken& cancel = CancelToken::global();
    FlowStatus status;
    if (flow_status != nullptr) status = *flow_status;
    status.cancelled = status.cancelled || cancel.cancelled();
    if (status.cancel_cause == CancelCause::None) {
        status.cancel_cause = cancel.cause();
    }
    m.set_status(status.to_json());
    MetricsRegistry& reg = MetricsRegistry::global();
    ThreadPool::shared().publish_metrics(reg);
    m.set_metrics(reg.to_json());
    if (!m.write(path)) {
        std::cerr << "[artifact] FAILED to write " << path << '\n';
        return;
    }
    std::cerr << "[artifact] wrote " << path << '\n';
}

}  // namespace fastmon::bench
