#include "flow/report.hpp"

#include <cstdio>
#include <ostream>

#include "util/table.hpp"

namespace fastmon {

void print_table1(std::ostream& os, std::span<const HdfFlowResult> rows) {
    TextTable t({"Circuit", "Gates", "FFs", "|P|", "|M|", "conv.", "prop.",
                 "d%", "Phi_tar"});
    for (const HdfFlowResult& r : rows) {
        t.begin_row();
        t.cell(r.circuit);
        t.cell(r.num_gates);
        t.cell(r.num_ffs);
        t.cell(r.num_patterns);
        t.cell(r.num_monitors);
        t.cell(r.detected_conv);
        t.cell(r.detected_prop);
        t.cell_percent(r.gain_percent);
        t.cell(r.target_faults);
    }
    t.print(os);
}

void print_table2(std::ostream& os, std::span<const HdfFlowResult> rows) {
    TextTable t({"Circuit", "F conv.", "F heur.", "F prop.", "d%|F|",
                 "PC orig.", "PC opti.", "d%|PC|", "PC bound", "PC opt."});
    for (const HdfFlowResult& r : rows) {
        t.begin_row();
        t.cell(r.circuit);
        t.cell(r.freq_conv);
        t.cell(r.freq_heur);
        t.cell(r.freq_prop);
        t.cell(r.freq_reduction_percent, 1);
        t.cell(r.orig_pc);
        t.cell(r.opti_pc);
        t.cell_percent(r.pc_reduction_percent);
        t.cell(r.schedule_lower_bound);
        t.cell(r.schedule_optimality());
    }
    t.print(os);
}

void print_table3(std::ostream& os, std::span<const HdfFlowResult> rows) {
    std::vector<std::string> headers{"Circuit"};
    if (!rows.empty()) {
        for (const CoverageRow& cr : rows.front().coverage_rows) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.0f%%", cr.coverage * 100.0);
            const std::string tag(buf);
            headers.push_back("|F" + tag + "|");
            headers.push_back("|PC" + tag + "|");
            headers.push_back("|S" + tag + "|");
            headers.push_back("d%" + tag);
        }
    }
    TextTable t(std::move(headers));
    for (const HdfFlowResult& r : rows) {
        t.begin_row();
        t.cell(r.circuit);
        for (const CoverageRow& cr : r.coverage_rows) {
            t.cell(cr.num_frequencies);
            t.cell(cr.naive_pc);
            t.cell(cr.schedule_size);
            t.cell_percent(cr.reduction_percent);
        }
    }
    t.print(os);
}

void print_fig3(std::ostream& os, std::span<const CoverageBySpeed> curve) {
    TextTable t({"fmax/fnom", "conv. FAST", "with monitors"});
    for (const CoverageBySpeed& p : curve) {
        t.begin_row();
        t.cell(p.fmax_factor, 2);
        t.cell(p.conv * 100.0, 1);
        t.cell(p.prop * 100.0, 1);
    }
    t.print(os);
    // Small ASCII plot (conv: '.', prop: '#').
    const int width = 60;
    for (const CoverageBySpeed& p : curve) {
        const int c = static_cast<int>(p.conv * width);
        const int m = static_cast<int>(p.prop * width);
        char buf[32];
        std::snprintf(buf, sizeof buf, "%5.2f |", p.fmax_factor);
        os << buf;
        for (int x = 0; x <= width; ++x) {
            if (x == m) {
                os << '#';
            } else if (x == c) {
                os << '.';
            } else {
                os << ' ';
            }
        }
        os << '\n';
    }
}

void print_engine_counters(std::ostream& os,
                           std::span<const HdfFlowResult> rows) {
    // Columns come from DetectionCounters::to_json(), so new counters
    // show up here (and in the bench artifacts) without touching any
    // per-consumer field list.
    std::vector<std::string> headers{"Circuit"};
    if (!rows.empty()) {
        const Json first = rows.front().detection.to_json();
        for (const auto& [key, value] : first.as_object()) {
            headers.push_back(key);
        }
    }
    TextTable t(std::move(headers));
    for (const HdfFlowResult& r : rows) {
        t.begin_row();
        t.cell(r.circuit);
        const Json j = r.detection.to_json();
        for (const auto& [key, value] : j.as_object()) {
            const double v = value.as_number();
            if (v == static_cast<double>(static_cast<long long>(v))) {
                t.cell(static_cast<long long>(v));
            } else {
                t.cell(v, 3);
            }
        }
    }
    t.print(os);
}

void print_phase_table(std::ostream& os, const HdfFlowResult& result) {
    TextTable t({"Phase", "wall [s]", "cpu [s]", "wall %"});
    double phase_wall = 0.0;
    for (const PhaseTime& p : result.phases) phase_wall += p.wall_seconds;
    const double total =
        result.total_wall_seconds > 0.0 ? result.total_wall_seconds : phase_wall;
    for (const PhaseTime& p : result.phases) {
        t.begin_row();
        t.cell(p.name);
        t.cell(p.wall_seconds, 3);
        t.cell(p.cpu_seconds, 3);
        t.cell(total > 0.0 ? 100.0 * p.wall_seconds / total : 0.0, 1);
    }
    t.begin_row();
    t.cell(std::string("total (phases)"));
    t.cell(phase_wall, 3);
    t.cell(std::string("-"));
    t.cell(total > 0.0 ? 100.0 * phase_wall / total : 0.0, 1);
    t.begin_row();
    t.cell(std::string("total (wall)"));
    t.cell(result.total_wall_seconds, 3);
    t.cell(std::string("-"));
    t.cell(std::string("-"));
    t.print(os);
}

}  // namespace fastmon
