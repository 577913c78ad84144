// Flow workloads: the full HDF flow of the paper's Fig. 4 (STA -> TDF
// ATPG -> waveform fault simulation -> detection ranges -> two-step
// set-cover schedule) on a generated circuit profile.
//
//   flow_s9234       s9234 profile, PODEM, 100 deterministic targets
//   flow_s38417_sat  s38417 profile at 2000 gates, SAT, 4 deterministic
//                    targets, 4000 simulated faults
#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "atpg/tdf_atpg.hpp"
#include "atpg/tfault_sim.hpp"
#include "fault/classify.hpp"
#include "fault/detection_range.hpp"
#include "flow/hdf_flow.hpp"
#include "monitor/placement.hpp"
#include "monitor/shifting.hpp"
#include "netlist/generator.hpp"
#include "schedule/freq_select.hpp"
#include "schedule/pattern_config_select.hpp"
#include "schedule/validate.hpp"
#include "timing/sta_engine.hpp"
#include "util/prng.hpp"
#include "util/metrics.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace fastmon;

namespace {

struct FlowSpec {
    const char* profile;
    std::size_t max_gates;  ///< profiles above this are scaled down
    AtpgEngineKind engine;
    std::size_t deterministic_targets;
    std::size_t random_batches;
    std::size_t simulated_faults;
    std::uint64_t sat_conflict_budget;  ///< per SAT target
};

FlowSpec flow_spec(const std::string& workload) {
    if (workload == "flow_s9234") {
        return {"s9234", 3500, AtpgEngineKind::Podem, 100, 20, 2000, 20000};
    }
    if (workload == "flow_s38417_sat") {
        return {"s38417", 2000, AtpgEngineKind::Sat, 8, 10, 5000, 1000};
    }
    throw std::invalid_argument("unknown flow workload " + workload);
}

std::uint64_t counter(const char* name) {
    return MetricsRegistry::global().counter(name).value();
}

/// Quality figures of one flow, compared across calls and thread
/// counts (they must be identical).
struct FlowQuality {
    double tdf_coverage = 0.0;
    std::uint64_t atpg_faults = 0;
    std::uint64_t atpg_detected = 0;
    std::uint64_t atpg_aborted = 0;
    std::uint64_t atpg_untestable = 0;
    std::uint64_t atpg_patterns = 0;
    std::uint64_t atpg_backtracks = 0;
    double hdf_conv = 0.0;
    double hdf_prop = 0.0;
    std::size_t test_frequencies = 0;
    std::size_t schedule_size = 0;
    std::size_t schedule_uncovered = 0;
    std::uint64_t solves = 0;
    std::uint64_t budget_exhausted = 0;
    std::vector<CoverageRow> coverage_rows;

    friend bool operator==(const FlowQuality&, const FlowQuality&) = default;
};

bool same_ranges(std::span<const FaultRanges> a,
                 std::span<const FaultRanges> b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!(a[i].ff == b[i].ff) || !(a[i].sr == b[i].sr) ||
            a[i].active_patterns != b[i].active_patterns) {
            return false;
        }
    }
    return true;
}

class FlowWorkload final : public Workload {
public:
    explicit FlowWorkload(const RunOptions& options)
        : options_(options), spec_(flow_spec(options.workload)) {}

    void setup() override {
        const CircuitProfile& profile = find_profile(spec_.profile);
        const double scale =
            profile.gates <= spec_.max_gates
                ? 1.0
                : static_cast<double>(spec_.max_gates) /
                      static_cast<double>(profile.gates);
        flow_.reset();
        const double t0 = now_seconds();
        netlist_.emplace(generate_circuit(profile_config(profile, scale)));
        load_seconds_ = now_seconds() - t0;

        HdfFlowConfig config;
        config.seed = profile.seed;
        config.max_simulated_faults = spec_.simulated_faults;
        config.atpg.engine = spec_.engine;
        config.atpg.deterministic_phase = true;
        config.atpg.max_deterministic_faults = spec_.deterministic_targets;
        config.atpg.max_random_batches = spec_.random_batches;
        config.atpg.sat_conflict_budget = spec_.sat_conflict_budget;
        // A wall-clock limit no solve reaches: only the node budget (a
        // count) binds, so schedules do not depend on host speed.
        config.solver.time_limit_sec = 1e6;
        config.solver.max_nodes = 200000;
        config.num_threads = options_.threads;
        for (std::size_t v = 0; v < kVariants; ++v) {
            configs_[v] = config;
            configs_[v].atpg.seed =
                derive_seed(profile.seed, options_.seed * kVariants + v);
        }

        // Warm-up: the flow's first step (STA), and one 64-pattern batch
        // of the ATPG's TDF fault simulator over the first faults.
        const DelayAnnotation delays = DelayAnnotation::nominal(*netlist_);
        StaEngine engine(*netlist_, delays, config.clock_margin);
        (void)engine.analyze();
        const std::vector<TdfFault> faults = enumerate_tdf_faults(*netlist_);
        const TransitionFaultSim sim(*netlist_);
        Prng rng(configs_[0].atpg.seed);
        std::vector<PatternPair> batch(64);
        for (PatternPair& p : batch) {
            for (std::vector<Bit>* v : {&p.v1, &p.v2}) {
                v->resize(netlist_->comb_sources().size());
                for (Bit& b : *v) b = rng.chance(0.5) ? 1 : 0;
            }
        }
        const auto values = sim.evaluate(sim.pack(batch, 0));
        for (std::size_t i = 0; i < std::min<std::size_t>(faults.size(), 512);
             ++i) {
            (void)sim.detect_mask(faults[i], values);
        }
    }

    /// Calls cycle through the stimulus variants.
    double timed_call(Checks& checks) override {
        return call_variant(checks, calls_++ % kVariants);
    }

    void final_checks(Checks& checks) override {
        // The final test set, re-simulated with the TDF fault
        // simulator, must reproduce the reported ATPG coverage.
        const std::vector<TdfFault> faults = enumerate_tdf_faults(*netlist_);
        for (std::size_t v = 0; v < kVariants; ++v) {
            if (!first_[v]) continue;
            checks.begin("tdf_resimulation");
            const std::vector<std::size_t> first = fault_simulate_tdf(
                *netlist_, faults, first_patterns_[v].patterns);
            const auto detected = static_cast<std::size_t>(std::count_if(
                first.begin(), first.end(),
                [](std::size_t p) { return p != SIZE_MAX; }));
            const double coverage =
                faults.empty() ? 1.0
                               : static_cast<double>(detected) /
                                     static_cast<double>(faults.size());
            checks.expect(coverage == first_[v]->tdf_coverage,
                          "re-simulated TDF coverage " +
                              json_number(coverage) + " != reported " +
                              json_number(first_[v]->tdf_coverage));
            checks.end();
        }
    }

    /// Quality of the first stimulus variant (the one the traced run
    /// composes).
    void report(Metrics& out) const override {
        const FlowQuality& q = *first_[0];
        out.set("tdf_coverage", q.tdf_coverage, "ratio");
        out.set("atpg_abort_ratio", abort_ratio(q), "ratio");
        out.set("hdf_coverage_prop", q.hdf_prop, "ratio");
        out.set("test_frequencies", static_cast<double>(q.test_frequencies),
                "count");
        out.set("schedule_size", static_cast<double>(q.schedule_size),
                "count");
        out.set("solve_budget_ratio", budget_ratio(q), "ratio");
    }

    void traced(Checks& checks, SpanRecorder& spans, Metrics& out) override;

private:
    /// Random-pattern seeds per run (derived from the run seed); the
    /// timed calls cycle through them, so no single test set sets the
    /// run's figures.
    static constexpr std::size_t kVariants = 3;

    double call_variant(Checks& checks, std::size_t v) {
        MetricsRegistry::global().reset();
        flow_.emplace(*netlist_, configs_[v]);
        const double t0 = now_seconds();
        last_ = flow_->run();
        const double wall = now_seconds() - t0;
        const FlowQuality q = quality(*flow_, last_);
        check_result(checks, last_, q);
        if (first_[v]) {
            checks.expect(q == *first_[v],
                          "quality differs between repeated calls");
        } else {
            first_[v] = q;
            first_patterns_[v] = flow_->patterns();
        }
        return wall;
    }

    [[nodiscard]] double abort_ratio(const FlowQuality& q) const {
        return static_cast<double>(q.atpg_aborted) /
               static_cast<double>(spec_.deterministic_targets);
    }
    [[nodiscard]] static double budget_ratio(const FlowQuality& q) {
        return q.solves == 0 ? 0.0
                             : static_cast<double>(q.budget_exhausted) /
                                   static_cast<double>(q.solves);
    }

    static FlowQuality quality(const HdfFlow& flow, const HdfFlowResult& r) {
        FlowQuality q;
        q.tdf_coverage = r.atpg_coverage;
        q.atpg_faults = counter("atpg.faults");
        q.atpg_detected = counter("atpg.detected");
        q.atpg_aborted = counter("atpg.aborted");
        q.atpg_untestable = counter("atpg.untestable");
        q.atpg_patterns = counter("atpg.patterns");
        q.atpg_backtracks = counter("atpg.backtracks");
        const double fmax[] = {3.0};
        const CoverageBySpeed point = flow.coverage_curve(fmax).front();
        q.hdf_conv = point.conv;
        q.hdf_prop = point.prop;
        q.test_frequencies = r.freq_prop;
        q.schedule_size = r.opti_pc;
        q.schedule_uncovered = r.schedule_uncovered;
        q.solves = counter("opt.set_cover.solves");
        q.budget_exhausted = counter("opt.set_cover.budget_exhausted");
        q.coverage_rows = r.coverage_rows;
        return q;
    }

    void check_result(Checks& checks, const HdfFlowResult& r,
                      const FlowQuality& q) const {
        checks.expect(r.status.complete(), "flow status not complete");
        checks.expect(r.schedule_uncovered == 0,
                      "schedule leaves " +
                          std::to_string(r.schedule_uncovered) +
                          " targets uncovered");
        checks.expect(q.hdf_prop >= q.hdf_conv,
                      "prop coverage below conventional coverage");
        // The deterministic-target cap must bind, so that it is the
        // number of targets attempted (more faults stay undetected
        // than the cap allows targeting).
        checks.expect(q.atpg_faults - q.atpg_detected >
                          spec_.deterministic_targets,
                      "deterministic-target cap does not bind");
    }

    RunOptions options_;
    FlowSpec spec_;
    std::optional<Netlist> netlist_;
    double load_seconds_ = 0.0;
    HdfFlowConfig configs_[kVariants];
    std::optional<HdfFlow> flow_;
    HdfFlowResult last_;
    std::size_t calls_ = 0;
    std::optional<FlowQuality> first_[kVariants];
    TestSet first_patterns_[kVariants];
};

/// The flow composed from the layers' public calls, mirroring
/// HdfFlow::prepare() + run() step for step.
struct ComposedFlow {
    TestSet patterns;
    AtpgResult atpg;
    std::vector<FaultRanges> ranges;
    std::vector<std::uint32_t> targets;
    std::size_t candidates = 0;
    std::size_t simulated = 0;
    std::size_t detected_conv = 0;
    std::size_t detected_prop = 0;
    double hdf_conv = 0.0;
    double hdf_prop = 0.0;
    std::size_t freq_conv = 0;
    std::size_t freq_heur = 0;
    std::size_t freq_prop = 0;
    std::size_t opti_pc = 0;
    std::size_t schedule_uncovered = 0;
    std::vector<CoverageRow> coverage_rows;
    DetectionCounters detection;
    bool schedule_valid = false;
};

ComposedFlow compose_flow(const Netlist& nl, const HdfFlowConfig& cfg,
                          SpanRecorder& spans) {
    ComposedFlow c;
    SpanRecorder::Span flow_span(spans, "flow");

    SpanRecorder::Span sta_span(spans, "timing.sta");
    const DelayAnnotation delays = DelayAnnotation::nominal(nl);
    StaEngine engine(nl, delays, cfg.clock_margin);
    const StaResult sta = engine.analyze();
    sta_span.end();

    SpanRecorder::Span place_span(spans, "monitor.place");
    const MonitorPlacement placement = place_monitors(
        nl, sta, cfg.monitor_fraction, cfg.monitor_delay_fractions);
    place_span.end();

    SpanRecorder::Span atpg_span(spans, "atpg");
    AtpgConfig atpg_config = cfg.atpg;
    atpg_config.seed ^= cfg.seed;
    c.atpg = generate_tdf_tests(nl, atpg_config);
    c.patterns = c.atpg.test_set;
    atpg_span.end();

    SpanRecorder::Span classify_span(spans, "fault.classify");
    const FaultUniverse universe =
        FaultUniverse::generate(nl, delays, cfg.delta_factor);
    StructuralClassifyConfig scc;
    scc.fmax_factor = cfg.fmax_factor;
    scc.max_monitor_delay = placement.max_delay();
    scc.monitored_observe = placement.monitored;
    const StructuralClassification structural =
        classify_structural(nl, delays, sta, universe, scc);
    std::vector<FaultId> simulated = structural.candidates();
    double sample_scale = 1.0;
    c.candidates = simulated.size();
    if (cfg.max_simulated_faults != 0 &&
        simulated.size() > cfg.max_simulated_faults) {
        std::vector<FaultId> sampled;
        const std::size_t n = simulated.size();
        const std::size_t k = cfg.max_simulated_faults;
        for (std::size_t i = 0; i < k; ++i) {
            sampled.push_back(simulated[i * n / k]);
        }
        sampled.erase(std::unique(sampled.begin(), sampled.end()),
                      sampled.end());
        sample_scale = static_cast<double>(n) /
                       static_cast<double>(sampled.size());
        simulated = std::move(sampled);
    }
    c.simulated = simulated.size();
    classify_span.end();

    const WaveSim wave_sim(nl, delays, cfg.wave);
    DetectionAnalysisConfig dac;
    dac.glitch_threshold = cfg.glitch_threshold >= 0.0
                               ? cfg.glitch_threshold
                               : delays.glitch_threshold();
    dac.horizon = sta.clock_period * 1.02;
    dac.num_threads = cfg.num_threads;

    SpanRecorder::Span pass_a_span(spans, "fault_sim.pass_a");
    {
        const DetectionAnalyzer analyzer(wave_sim, c.patterns.patterns,
                                         placement.monitored, dac);
        std::vector<DelayFault> faults;
        faults.reserve(simulated.size());
        for (FaultId id : simulated) faults.push_back(universe.fault(id));
        c.ranges = analyzer.analyze(faults);
        c.detection += analyzer.counters();
    }
    pass_a_span.end();

    // Range shifting: targets, Table I counts, the Fig. 3 point.
    SpanRecorder::Span shift_span(spans, "monitor.shift");
    const Interval window = fast_window(sta.clock_period, cfg.fmax_factor);
    std::vector<IntervalSet> conv_ranges(c.ranges.size());
    std::vector<IntervalSet> full_ranges(c.ranges.size());
    std::size_t conv = 0;
    std::size_t prop = 0;
    for (std::uint32_t i = 0; i < c.ranges.size(); ++i) {
        conv_ranges[i] = c.ranges[i].ff;
        conv_ranges[i].clip(window.lo, window.hi);
        const IntervalSet full =
            full_detection_range(c.ranges[i], placement.config_delays);
        full_ranges[i] = full;
        full_ranges[i].clip(window.lo, window.hi);
        if (!conv_ranges[i].empty()) ++conv;
        if (full_ranges[i].empty()) continue;
        ++prop;
        if (!detects_at_speed(full, sta.clock_period)) c.targets.push_back(i);
    }
    const auto scaled = [&](std::size_t n) {
        return static_cast<std::size_t>(
            std::llround(sample_scale * static_cast<double>(n)));
    };
    c.detected_conv = scaled(conv);
    c.detected_prop = scaled(prop);
    const double hdf_universe =
        static_cast<double>(universe.size() - structural.num_at_speed);
    if (hdf_universe > 0) {
        c.hdf_conv = sample_scale * static_cast<double>(conv) / hdf_universe;
        c.hdf_prop = sample_scale * static_cast<double>(prop) / hdf_universe;
    }
    shift_span.end();

    SpanRecorder::Span freq_span(spans, "schedule.freq_select");
    FrequencySelectOptions fopts;
    fopts.discretize = cfg.discretize;
    fopts.solver = cfg.solver;
    fopts.method = SelectMethod::BranchAndBound;
    c.freq_conv = select_frequencies(conv_ranges, fopts).periods.size();
    std::vector<IntervalSet> target_ranges;
    for (std::uint32_t pos : c.targets) target_ranges.push_back(full_ranges[pos]);
    FrequencySelectOptions heur_opts = fopts;
    heur_opts.method = SelectMethod::Greedy;
    c.freq_heur = select_frequencies(target_ranges, heur_opts).periods.size();
    const FrequencySelection sel_prop =
        select_frequencies(target_ranges, fopts);
    c.freq_prop = sel_prop.periods.size();
    std::vector<Time> all_periods = sel_prop.periods;
    std::vector<FrequencySelection> cov_selections;
    for (double cov : cfg.coverage_targets) {
        FrequencySelectOptions copts = fopts;
        copts.coverage = cov;
        cov_selections.push_back(select_frequencies(target_ranges, copts));
        for (Time t : cov_selections.back().periods) all_periods.push_back(t);
    }
    std::sort(all_periods.begin(), all_periods.end());
    all_periods.erase(std::unique(all_periods.begin(), all_periods.end(),
                                  [](Time a, Time b) {
                                      return std::abs(a - b) <= kTimeEps;
                                  }),
                      all_periods.end());
    freq_span.end();

    SpanRecorder::Span pass_b_span(spans, "fault_sim.pass_b");
    std::vector<DelayFault> target_faults;
    std::vector<FaultRanges> target_fault_ranges;
    for (std::uint32_t pos : c.targets) {
        target_faults.push_back(universe.fault(simulated[pos]));
        target_fault_ranges.push_back(c.ranges[pos]);
    }
    std::vector<DetectionEntry> all_entries;
    {
        const DetectionAnalyzer analyzer(wave_sim, c.patterns.patterns,
                                         placement.monitored, dac);
        all_entries = analyzer.detection_table(target_faults,
                                               target_fault_ranges,
                                               all_periods,
                                               placement.config_delays);
        c.detection += analyzer.counters();
    }
    pass_b_span.end();

    SpanRecorder::Span pc_span(spans, "schedule.pattern_config");
    const auto entries_for = [&](std::span<const Time> periods) {
        std::vector<std::uint16_t> remap(all_periods.size(), UINT16_MAX);
        for (std::uint16_t j = 0; j < periods.size(); ++j) {
            for (std::uint16_t k = 0; k < all_periods.size(); ++k) {
                if (std::abs(all_periods[k] - periods[j]) <= kTimeEps) {
                    remap[k] = j;
                    break;
                }
            }
        }
        std::vector<DetectionEntry> out;
        for (DetectionEntry e : all_entries) {
            if (e.period < remap.size() && remap[e.period] != UINT16_MAX) {
                e.period = remap[e.period];
                out.push_back(e);
            }
        }
        return out;
    };
    PatternConfigOptions pco;
    pco.method = SelectMethod::BranchAndBound;
    pco.solver = cfg.solver;
    std::vector<std::uint32_t> all_targets(target_faults.size());
    for (std::uint32_t i = 0; i < all_targets.size(); ++i) all_targets[i] = i;
    const std::vector<DetectionEntry> full_entries =
        entries_for(sel_prop.periods);
    const PatternConfigResult pc = select_pattern_configs(
        full_entries, sel_prop.periods, all_targets, pco);
    c.opti_pc = pc.schedule.size();
    c.schedule_uncovered = pc.uncovered_faults.size();
    const std::size_t num_configs = placement.config_delays.size();
    for (std::size_t k = 0; k < cfg.coverage_targets.size(); ++k) {
        const FrequencySelection& sel = cov_selections[k];
        CoverageRow row;
        row.coverage = cfg.coverage_targets[k];
        row.num_frequencies = sel.periods.size();
        row.naive_pc = c.patterns.size() * num_configs * sel.periods.size();
        std::vector<bool> in_cover(target_faults.size(), false);
        for (const auto& covered : sel.covered) {
            for (std::uint32_t fi : covered) in_cover[fi] = true;
        }
        std::vector<std::uint32_t> cov_targets;
        for (std::uint32_t i = 0; i < in_cover.size(); ++i) {
            if (in_cover[i]) cov_targets.push_back(i);
        }
        const PatternConfigResult row_pc = select_pattern_configs(
            entries_for(sel.periods), sel.periods, cov_targets, pco);
        row.schedule_size = row_pc.schedule.size();
        row.reduction_percent =
            schedule_reduction_percent(row.schedule_size, row.naive_pc);
        c.coverage_rows.push_back(row);
    }
    pc_span.end();
    flow_span.end();

    // Not part of HdfFlow::run(): the composed schedule must cover every
    // target according to the detection table.
    SpanRecorder::Span validate_span(spans, "schedule.validate");
    c.schedule_valid =
        validate_schedule(pc.schedule, full_entries, all_targets).valid;
    return c;
}

}  // namespace

void FlowWorkload::traced(Checks& checks, SpanRecorder& spans, Metrics& out) {
    // Untraced reference: the one-call flow at the chosen thread count,
    // once before and once after the composed run, so that host drift
    // during the traced run does not land in the overhead.
    const auto reference_call = [&] {
        checks.begin("reference_call");
        const double cpu0 = cpu_seconds();
        const double wall = call_variant(checks, 0);
        checks.end();
        return std::pair(wall, cpu_seconds() - cpu0);
    };
    const auto [wall_before, cpu_before] = reference_call();
    const FlowQuality reference = *first_[0];
    const Netlist& nl = *netlist_;
    const HdfFlowConfig& config = configs_[0];

    checks.begin("composed_flow");
    MetricsRegistry::global().reset();
    const ComposedFlow c = compose_flow(nl, config, spans);
    const double traced_wall = spans.total_seconds("flow");
    const std::uint64_t solves = counter("opt.set_cover.solves");
    const std::uint64_t nodes = counter("opt.set_cover.nodes");
    const std::uint64_t exhausted = counter("opt.set_cover.budget_exhausted");
    const std::uint64_t sat_solves = counter("atpg.sat.solves");
    const HdfFlowResult& r = last_;
    checks.expect(c.patterns.patterns == flow_->patterns().patterns,
                  "composed ATPG test set differs");
    checks.expect(same_ranges(c.ranges, flow_->ranges()),
                  "composed pass-A ranges differ");
    checks.expect(std::equal(c.targets.begin(), c.targets.end(),
                             flow_->target_positions().begin(),
                             flow_->target_positions().end()),
                  "composed target set differs");
    checks.expect(c.atpg.coverage() == r.atpg_coverage &&
                      c.candidates == r.candidate_faults &&
                      c.simulated == r.simulated_faults &&
                      c.detected_conv == r.detected_conv &&
                      c.detected_prop == r.detected_prop &&
                      c.hdf_conv == reference.hdf_conv &&
                      c.hdf_prop == reference.hdf_prop &&
                      c.freq_conv == r.freq_conv &&
                      c.freq_heur == r.freq_heur &&
                      c.freq_prop == r.freq_prop && c.opti_pc == r.opti_pc &&
                      c.schedule_uncovered == r.schedule_uncovered &&
                      c.coverage_rows == r.coverage_rows,
                  "composed flow result differs from HdfFlow::run()");
    checks.expect(c.detection.pairs_total == r.detection.pairs_total &&
                      c.detection.pairs_screened_out ==
                          r.detection.pairs_screened_out &&
                      c.detection.pairs_simulated ==
                          r.detection.pairs_simulated &&
                      c.detection.pairs_detected == r.detection.pairs_detected,
                  "composed fault-simulation counters differ");
    checks.expect(c.schedule_valid, "composed schedule fails validation");
    checks.end();

    // The deterministic phase's share: the same ATPG call with the
    // deterministic phase off.
    const auto [wall_after, cpu_after] = reference_call();
    const double untraced_wall = 0.5 * (wall_before + wall_after);
    const double cores_used =
        (cpu_before + cpu_after) / (wall_before + wall_after);

    checks.begin("atpg_random_only");
    AtpgConfig random_only = config.atpg;
    random_only.seed ^= config.seed;
    random_only.deterministic_phase = false;
    double random_seconds = 0.0;
    {
        SpanRecorder::Span span(spans, "atpg.random_only");
        (void)generate_tdf_tests(nl, random_only);
        random_seconds = span.end();
    }
    checks.end();

    // Quality must not depend on the thread count.
    checks.begin("one_thread_call");
    {
        HdfFlowConfig serial = config;
        serial.num_threads = 1;
        MetricsRegistry::global().reset();
        HdfFlow flow(nl, serial);
        const HdfFlowResult sr = flow.run();
        checks.expect(quality(flow, sr) == reference,
                      "1-thread quality differs from " +
                          std::to_string(options_.threads) + "-thread");
    }
    checks.end();

    const double atpg_s = spans.self_seconds("atpg");
    const double det_s = atpg_s - random_seconds;
    const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
    const std::size_t targets = spec_.deterministic_targets;
    out.set("netlist.load_s", load_seconds_, "s");
    out.set("timing.sta_s", spans.self_seconds("timing.sta"), "s");
    out.set("monitor.place_s", spans.self_seconds("monitor.place"), "s");
    out.set("monitor.shift_s", spans.self_seconds("monitor.shift"), "s");
    out.set("atpg.s", atpg_s, "s");
    out.set("atpg.random_s", random_seconds, "s");
    out.set("atpg.deterministic_s", det_s, "s");
    out.set("atpg.targets", n(targets), "count");
    out.set("atpg.aborted", n(reference.atpg_aborted), "count");
    out.set("atpg.untestable", n(reference.atpg_untestable), "count");
    out.set("atpg.patterns", n(reference.atpg_patterns), "count");
    out.set("atpg.backtracks", n(reference.atpg_backtracks), "count");
    out.set("atpg.ms_per_target", 1e3 * det_s / n(targets), "ms");
    if (spec_.engine == AtpgEngineKind::Podem) {
        out.set("podem.backtracks", n(reference.atpg_backtracks), "count");
    } else {
        // The SAT engine's effort is its conflict count.
        out.set("sat.solves", n(sat_solves), "count");
        out.set("sat.conflicts", n(reference.atpg_backtracks), "count");
        out.set("sat.conflicts_per_s", n(reference.atpg_backtracks) / det_s,
                "1/s");
    }
    out.set("fault.classify_s", spans.self_seconds("fault.classify"), "s");
    out.set("fault.candidates", n(c.candidates), "count");
    out.set("fault.simulated", n(c.simulated), "count");
    const DetectionCounters& d = c.detection;
    const double pass_a = spans.self_seconds("fault_sim.pass_a");
    const double pass_b = spans.self_seconds("fault_sim.pass_b");
    out.set("fault_sim.pass_a_s", pass_a, "s");
    out.set("fault_sim.pass_b_s", pass_b, "s");
    out.set("fault_sim.pairs_total", n(d.pairs_total), "count");
    out.set("fault_sim.screened_ratio",
            n(d.pairs_screened_out) / n(std::max<std::uint64_t>(d.pairs_total, 1)),
            "ratio");
    out.set("fault_sim.simulated_ratio",
            n(d.pairs_simulated) / n(std::max<std::uint64_t>(d.pairs_total, 1)),
            "ratio");
    out.set("fault_sim.us_per_pair",
            1e6 * d.fault_sim_seconds /
                n(std::max<std::uint64_t>(d.pairs_simulated, 1)),
            "us");
    out.set("fault_sim.gates_reevaluated", n(d.gates_reevaluated), "count");
    out.set("fault_sim.good_wave_s", d.good_wave_seconds, "s");
    const double freq_s = spans.self_seconds("schedule.freq_select");
    const double pc_s = spans.self_seconds("schedule.pattern_config");
    out.set("schedule.freq_select_s", freq_s, "s");
    out.set("schedule.pattern_config_s", pc_s, "s");
    out.set("opt.set_cover.solves", n(solves), "count");
    out.set("opt.set_cover.nodes", n(nodes), "count");
    out.set("opt.set_cover.nodes_per_s", n(nodes) / (freq_s + pc_s), "1/s");
    out.set("opt.set_cover.budget_exhausted", n(exhausted), "count");
    // The detection engine's pool is private to each analyzer; its busy
    // time is the engine's own CPU-time counters.
    const double busy =
        d.fault_sim_seconds + d.good_wave_seconds + d.screen_seconds;
    out.set("pool.busy_s", busy, "s");
    out.set("pool.utilization",
            busy / (static_cast<double>(options_.threads) * (pass_a + pass_b)),
            "ratio");
    out.set("cores_used", cores_used, "ratio");
    out.set("trace.wall_s", traced_wall, "s");
    out.set("trace.untraced_wall_s", untraced_wall, "s");
    out.set("trace.overhead_s", traced_wall - untraced_wall, "s");
    double named = 0.0;
    for (const char* name :
         {"timing.sta", "monitor.place", "atpg", "fault.classify",
          "fault_sim.pass_a", "monitor.shift", "schedule.freq_select",
          "fault_sim.pass_b", "schedule.pattern_config"}) {
        named += spans.self_seconds(name);
    }
    out.set("trace.self_coverage", named / traced_wall, "ratio");
    out.set("trace.named_self_share", named / untraced_wall, "ratio");
    report(out);
}

std::unique_ptr<Workload> make_flow_workload(const RunOptions& options) {
    return std::make_unique<FlowWorkload>(options);
}

}  // namespace perfbench
