// fastmon_flow — single-circuit HDF flow CLI.
//
// Reads any read_netlist format (.bench/.v/.aag/.aig), runs the full
// hidden-delay-fault flow (STA -> monitor placement -> ATPG -> fault
// simulation -> detection ranges -> schedule optimization) and prints
// the paper's tables for that circuit.  The ATPG engine is selectable
// on the command line (--atpg podem|sat|auto), making this the
// smallest end-to-end harness for the SAT test generator and for
// AIGER imports:
//
//   fastmon_flow --circuit design.aag --atpg sat --manifest run.json
//
// Exit status: 0 on a complete run, 2 on a degraded run under
// --strict (some non-essential phase failed or was cancelled),
// 1 on hard errors (unreadable netlist, invalid options).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "flow/hdf_flow.hpp"
#include "flow/report.hpp"
#include "netlist/netlist_io.hpp"
#include "util/cli_parse.hpp"
#include "util/diagnostic.hpp"
#include "util/log.hpp"

namespace {

void print_usage() {
    std::cout <<
        "usage: fastmon_flow --circuit <file> [options]\n"
        "\n"
        "circuit:\n"
        "  --circuit <file>         netlist to analyze (.bench/.v/.aag/.aig)\n"
        "\n"
        "ATPG engine:\n"
        "  --atpg <podem|sat|auto>  deterministic-phase engine (default podem)\n"
        "  --podem-backtracks <n>   PODEM backtrack limit (default 250)\n"
        "  --sat-budget <n>         SAT conflicts per fault, 0=unlimited\n"
        "                           (default 20000)\n"
        "  --sat-restart <n>        rebuild SAT solver every n fault sites,\n"
        "                           0=never (default 512)\n"
        "\n"
        "flow:\n"
        "  --seed <n>               instance seed (default 1)\n"
        "  --fmax <f>               f_max factor (default 3.0)\n"
        "  --monitor-fraction <f>   monitored PPO share (default 0.25)\n"
        "  --variation <s>          per-gate delay sigma (default 0.0)\n"
        "  --max-faults <n>         stratified fault-simulation cap, 0=all\n"
        "\n"
        "output:\n"
        "  --manifest <path>        write the run manifest JSON\n"
        "  --strict                 exit 2 when any phase degraded\n"
        "  --quiet                  suppress info logging\n"
        "  --help                   this text\n";
}

}  // namespace

int main(int argc, char** argv) {
    using namespace fastmon;

    std::string circuit_path;
    std::string manifest_path;
    bool strict = false;
    HdfFlowConfig config;

    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        auto value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::cerr << "error: " << arg << " needs a value\n";
                std::exit(1);
            }
            return argv[++i];
        };
        if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
            print_usage();
            return 0;
        } else if (std::strcmp(arg, "--circuit") == 0) {
            circuit_path = value();
        } else if (std::strcmp(arg, "--atpg") == 0) {
            const char* v = value();
            const auto kind = atpg_engine_kind_from_name(v);
            if (!kind) {
                std::cerr << "error: unknown ATPG engine '" << v
                          << "' (podem|sat|auto)\n";
                return 1;
            }
            config.atpg.engine = *kind;
        } else if (std::strcmp(arg, "--podem-backtracks") == 0) {
            if (!parse_count_flag(arg, value(),
                                  config.atpg.podem_backtrack_limit)) {
                return 1;
            }
        } else if (std::strcmp(arg, "--sat-budget") == 0) {
            if (!parse_count_flag(arg, value(),
                                  config.atpg.sat_conflict_budget)) {
                return 1;
            }
        } else if (std::strcmp(arg, "--sat-restart") == 0) {
            if (!parse_count_flag(arg, value(),
                                  config.atpg.sat_restart_period)) {
                return 1;
            }
        } else if (std::strcmp(arg, "--seed") == 0) {
            if (!parse_count_flag(arg, value(), config.seed)) return 1;
        } else if (std::strcmp(arg, "--fmax") == 0) {
            if (!parse_real_flag(arg, value(), config.fmax_factor, kPositive)) return 1;
        } else if (std::strcmp(arg, "--monitor-fraction") == 0) {
            if (!parse_real_flag(arg, value(), config.monitor_fraction, kUnitInterval)) return 1;
        } else if (std::strcmp(arg, "--variation") == 0) {
            if (!parse_real_flag(arg, value(), config.variation_sigma, kNonNegative)) return 1;
        } else if (std::strcmp(arg, "--max-faults") == 0) {
            if (!parse_count_flag(arg, value(),
                                  config.max_simulated_faults)) {
                return 1;
            }
        } else if (std::strcmp(arg, "--manifest") == 0) {
            manifest_path = value();
        } else if (std::strcmp(arg, "--strict") == 0) {
            strict = true;
        } else if (std::strcmp(arg, "--quiet") == 0) {
            set_log_level(LogLevel::Warn);
        } else {
            std::cerr << "error: unknown option " << arg
                      << " (--help for usage)\n";
            return 1;
        }
    }

    if (circuit_path.empty()) {
        std::cerr << "error: --circuit is required (--help for usage)\n";
        return 1;
    }

    try {
        const Netlist netlist = read_netlist(circuit_path);
        std::cout << "circuit " << netlist.name() << ": "
                  << netlist.num_comb_gates() << " gates, "
                  << netlist.flip_flops().size() << " FFs, "
                  << netlist.primary_inputs().size() << " PIs, "
                  << netlist.primary_outputs().size() << " POs\n";

        HdfFlow flow(netlist, config);
        const HdfFlowResult result = flow.run();

        const HdfFlowResult rows[] = {result};
        print_table1(std::cout, rows);
        print_table2(std::cout, rows);
        print_table3(std::cout, rows);
        print_phase_table(std::cout, result);
        std::cout << "atpg engine: "
                  << atpg_engine_kind_name(config.atpg.engine)
                  << ", coverage " << result.atpg_coverage << "\n";
        std::cout << "flow status: "
                  << (result.status.complete() ? "complete" : "degraded")
                  << "\n";

        if (!manifest_path.empty()) {
            std::ofstream os(manifest_path);
            if (!os) {
                std::cerr << "error: cannot write manifest " << manifest_path
                          << "\n";
                return 1;
            }
            os << flow.manifest(result).to_json().dump(2) << "\n";
        }
        if (strict && !result.status.complete()) return 2;
        return 0;
    } catch (const Diagnostic& d) {
        std::cerr << "error: " << d.what() << "\n";
        return 1;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
