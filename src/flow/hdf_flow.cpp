#include "flow/hdf_flow.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "timing/sta_engine.hpp"
#include "util/cancel.hpp"
#include "util/fault_inject.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace fastmon {

namespace {

/// One flow phase: a trace span plus a wall/CPU stopwatch whose reading
/// is appended to the phase list when the recorder finishes (or goes
/// out of scope).
class PhaseRecorder {
public:
    PhaseRecorder(std::vector<PhaseTime>& out, const char* name)
        : out_(&out), name_(name), span_(name, "flow") {}
    ~PhaseRecorder() { finish(); }

    PhaseRecorder(const PhaseRecorder&) = delete;
    PhaseRecorder& operator=(const PhaseRecorder&) = delete;

    void finish() {
        if (out_ == nullptr) return;
        out_->push_back(watch_.elapsed(name_));
        span_.end();
        out_ = nullptr;
    }

private:
    std::vector<PhaseTime>* out_;
    const char* name_;
    TraceSpan span_;
    PhaseStopwatch watch_;
};

double wall_seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

}  // namespace

HdfFlow::HdfFlow(const Netlist& netlist, HdfFlowConfig config)
    : netlist_(&netlist), config_(std::move(config)) {}

Interval HdfFlow::window_for(double fmax_factor) const {
    return fast_window(sta_.clock_period, fmax_factor);
}

void HdfFlow::note_cancelled() {
    status_.cancelled = true;
    status_.cancel_cause = CancelToken::global().cause();
}

void HdfFlow::record_status(PhaseStatus st) {
    if (st.outcome != PhaseOutcome::Ok) {
        log_warn() << "flow " << netlist_->name() << ": phase " << st.name
                   << " " << phase_outcome_name(st.outcome)
                   << (st.detail.empty() ? "" : ": ") << st.detail;
    }
    status_.phases.push_back(std::move(st));
    flush_manifest("running");
}

bool HdfFlow::guarded_phase(std::vector<PhaseTime>& times, const char* name,
                            bool essential,
                            const std::function<void(PhaseStatus&)>& body) {
    PhaseStatus st;
    st.name = name;
    // Test hook: FASTMON_FAULT_INJECT=cancel.<phase> requests
    // cancellation right as this phase starts.
    if (FaultInjector::global().trip(std::string("cancel.") + name)) {
        CancelToken::global().cancel(CancelCause::Test);
    }
    const bool entered_cancelled = CancelToken::global().cancelled();
    try {
        const PhaseRecorder phase(times, name);
        body(st);
    } catch (const CancelledError& e) {
        // The engine had no partial result to give; the phase output
        // keeps its (safe) defaults and the flow continues degraded.
        if (essential) {
            st.outcome = PhaseOutcome::Failed;
            st.detail = e.what();
            note_cancelled();
            record_status(std::move(st));
            throw FlowError(name, e.what());
        }
        st.outcome = PhaseOutcome::Degraded;
        st.detail = e.what();
    } catch (const std::exception& e) {
        st.outcome = PhaseOutcome::Failed;
        st.detail = e.what();
        if (essential) {
            record_status(std::move(st));
            throw FlowError(name, e.what());
        }
    }
    if (CancelToken::global().cancelled()) {
        note_cancelled();
        if (st.outcome == PhaseOutcome::Ok) {
            st.outcome = PhaseOutcome::Degraded;
            st.detail = entered_cancelled
                            ? "ran after cancellation: fallback/partial inputs"
                            : "cancelled mid-phase: partial results";
        }
    }
    const bool ok = st.outcome != PhaseOutcome::Failed;
    record_status(std::move(st));
    return ok;
}

void HdfFlow::skip_phase(const char* name, std::string reason) {
    PhaseStatus st;
    st.name = name;
    st.outcome = PhaseOutcome::Skipped;
    st.detail = std::move(reason);
    record_status(std::move(st));
}

void HdfFlow::fill_config(RunManifest& m) const {
    m.set_config("fmax_factor", config_.fmax_factor);
    m.set_config("clock_margin", config_.clock_margin);
    m.set_config("monitor_fraction", config_.monitor_fraction);
    m.set_config("delta_factor", config_.delta_factor);
    m.set_config("variation_sigma", config_.variation_sigma);
    m.set_config("seed", config_.seed);
    m.set_config("max_simulated_faults", config_.max_simulated_faults);
    m.set_config("num_threads", config_.num_threads);
    m.set_config("glitch_threshold", config_.glitch_threshold);
    m.set_config("atpg_engine",
                 std::string(atpg_engine_kind_name(config_.atpg.engine)));
    m.set_config("atpg_podem_backtrack_limit",
                 config_.atpg.podem_backtrack_limit);
    m.set_config("atpg_sat_conflict_budget", config_.atpg.sat_conflict_budget);
    m.set_config("atpg_sat_restart_period", config_.atpg.sat_restart_period);
}

void HdfFlow::flush_manifest(const char* outcome) const {
    if (config_.manifest_path.empty()) return;
    RunManifest m;
    fill_config(m);
    m.set_circuit("name", netlist_->name());
    for (const PhaseTime& p : phases_) m.add_phase(p);
    if (active_run_phases_ != nullptr) {
        for (const PhaseTime& p : *active_run_phases_) m.add_phase(p);
    }
    m.set_status(status_.to_json(outcome));
    if (!m.write(config_.manifest_path)) {
        log_warn() << "flow: failed to write manifest snapshot to "
                   << config_.manifest_path;
    }
}

void HdfFlow::prepare() {
    if (prepared_) return;
    const TraceSpan prepare_span("prepare", "flow");
    const auto t_prepare = std::chrono::steady_clock::now();
    const Netlist& nl = *netlist_;

    // (0) Timing annotation and STA (essential: nothing downstream has
    // meaning without a clock period).
    guarded_phase(phases_, "sta", /*essential=*/true, [&](PhaseStatus&) {
        delays_ = config_.variation_sigma > 0.0
                      ? DelayAnnotation::with_variation(
                            nl, config_.variation_sigma, config_.seed)
                      : DelayAnnotation::nominal(nl);
        StaEngine engine(nl, *delays_, config_.clock_margin);
        engine.analyze();
        sta_ = engine.take_result();
    });

    // Monitor insertion at long path ends (essential: the monitored set
    // feeds classification and every detection pass).
    guarded_phase(phases_, "monitor_placement", /*essential=*/true,
                  [&](PhaseStatus&) {
                      placement_ =
                          place_monitors(nl, sta_, config_.monitor_fraction,
                                         config_.monitor_delay_fractions);
                  });

    // Test set: supplied or ATPG-generated.  Non-essential — an
    // interrupted ATPG still yields the patterns produced so far.
    guarded_phase(phases_, "atpg", /*essential=*/false, [&](PhaseStatus& st) {
        if (config_.test_set.has_value()) {
            test_set_ = *config_.test_set;
            atpg_coverage_ = 0.0;
        } else {
            AtpgConfig atpg = config_.atpg;
            atpg.seed ^= config_.seed;
            const AtpgResult ar = generate_tdf_tests(nl, atpg);
            test_set_ = ar.test_set;
            atpg_coverage_ = ar.coverage();
            if (ar.interrupted) {
                st.outcome = PhaseOutcome::Degraded;
                st.detail = "ATPG cancelled: partial test set (" +
                            std::to_string(test_set_.size()) + " patterns)";
            }
        }
    });

    // (1) Fault universe and structural classification (essential: the
    // simulated-fault list is the backbone of every later phase).
    guarded_phase(phases_, "classify", /*essential=*/true, [&](PhaseStatus&) {
        universe_ =
            FaultUniverse::generate(nl, *delays_, config_.delta_factor);
        StructuralClassifyConfig scc;
        scc.fmax_factor = config_.fmax_factor;
        scc.max_monitor_delay = placement_.max_delay();
        scc.monitored_observe = placement_.monitored;
        structural_ = classify_structural(nl, *delays_, sta_, universe_, scc);

        // Sampling cap for the heavy simulation phase.
        std::vector<FaultId> candidates = structural_.candidates();
        if (config_.max_simulated_faults != 0 &&
            candidates.size() > config_.max_simulated_faults) {
            // Stratified subsample of the candidate list (deterministic).
            std::vector<FaultId> sampled;
            const std::size_t n = candidates.size();
            const std::size_t k = config_.max_simulated_faults;
            for (std::size_t i = 0; i < k; ++i) {
                sampled.push_back(candidates[i * n / k]);
            }
            sampled.erase(std::unique(sampled.begin(), sampled.end()),
                          sampled.end());
            simulated_ = std::move(sampled);
            sample_scale_ = static_cast<double>(candidates.size()) /
                            static_cast<double>(simulated_.size());
            log_info() << "flow " << nl.name() << ": sampling "
                       << simulated_.size() << " of " << candidates.size()
                       << " candidate faults";
        } else {
            simulated_ = std::move(candidates);
            sample_scale_ = 1.0;
        }
    });

    // (2)-(3) Pass-A detection analysis.  Non-essential: when cancelled
    // mid-simulation the analyzer returns the ranges finished so far and
    // coverage is reported from exactly those faults.
    guarded_phase(
        phases_, "fault_sim_pass_a", /*essential=*/false,
        [&](PhaseStatus& st) {
            const WaveSim wave_sim(nl, *delays_, config_.wave);
            DetectionAnalysisConfig dac;
            dac.glitch_threshold = config_.glitch_threshold >= 0.0
                                       ? config_.glitch_threshold
                                       : delays_->glitch_threshold();
            dac.horizon = sta_.clock_period * 1.02;
            dac.num_threads = config_.num_threads;
            const DetectionAnalyzer analyzer(wave_sim, test_set_.patterns,
                                             placement_.monitored, dac);
            std::vector<DelayFault> faults;
            faults.reserve(simulated_.size());
            for (FaultId id : simulated_) {
                faults.push_back(universe_.fault(id));
            }
            ranges_ = analyzer.analyze(faults);
            detect_counters_ += analyzer.counters();
            if (analyzer.interrupted()) {
                st.outcome = PhaseOutcome::Degraded;
                st.detail = "fault simulation cancelled: ranges cover the "
                            "faults simulated before the stop";
            }
        });

    // (4)-(5) Target fault set via configuration range shifting.
    guarded_phase(phases_, "shifting", /*essential=*/false,
                  [&](PhaseStatus&) {
                      const Interval window = window_for(config_.fmax_factor);
                      targets_.clear();
                      for (std::uint32_t i = 0; i < ranges_.size(); ++i) {
                          const IntervalSet full = full_detection_range(
                              ranges_[i], placement_.config_delays);
                          IntervalSet in_window = full;
                          in_window.clip(window.lo, window.hi);
                          // not prop-detectable
                          if (in_window.empty()) continue;
                          if (detects_at_speed(full, sta_.clock_period)) {
                              continue;
                          }
                          targets_.push_back(i);
                      }
                  });
    prepare_wall_seconds_ = wall_seconds_since(t_prepare);
    prepared_ = true;
    flush_manifest(nullptr);
}

IntervalSet HdfFlow::full_range_in_window(std::size_t i) const {
    IntervalSet full =
        full_detection_range(ranges_[i], placement_.config_delays);
    const Interval w = window_for(config_.fmax_factor);
    full.clip(w.lo, w.hi);
    return full;
}

Json CoverageBySpeed::to_json() const {
    Json j = Json::object();
    j.set("fmax_factor", fmax_factor);
    j.set("conv", conv);
    j.set("prop", prop);
    return j;
}

std::optional<CoverageBySpeed> CoverageBySpeed::from_json(const Json& j) {
    if (!j.is_object()) return std::nullopt;
    const Json* fmax = j.find("fmax_factor");
    const Json* conv = j.find("conv");
    const Json* prop = j.find("prop");
    if (!fmax || !fmax->is_number() || !conv || !conv->is_number() || !prop ||
        !prop->is_number()) {
        return std::nullopt;
    }
    CoverageBySpeed point;
    point.fmax_factor = fmax->as_number();
    point.conv = conv->as_number();
    point.prop = prop->as_number();
    return point;
}

Json CoverageRow::to_json() const {
    Json j = Json::object();
    j.set("coverage", coverage);
    j.set("num_frequencies", num_frequencies);
    j.set("naive_pc", naive_pc);
    j.set("schedule_size", schedule_size);
    j.set("reduction_percent", reduction_percent);
    return j;
}

std::optional<CoverageRow> CoverageRow::from_json(const Json& j) {
    if (!j.is_object()) return std::nullopt;
    const Json* coverage = j.find("coverage");
    const Json* freqs = j.find("num_frequencies");
    const Json* naive = j.find("naive_pc");
    const Json* schedule = j.find("schedule_size");
    const Json* reduction = j.find("reduction_percent");
    if (!coverage || !coverage->is_number() || !freqs || !freqs->is_number() ||
        !naive || !naive->is_number() || !schedule ||
        !schedule->is_number() || !reduction || !reduction->is_number()) {
        return std::nullopt;
    }
    const auto num_frequencies = json_uint<std::size_t>(*freqs);
    const auto naive_pc = json_uint<std::size_t>(*naive);
    const auto schedule_size = json_uint<std::size_t>(*schedule);
    if (!num_frequencies || !naive_pc || !schedule_size) return std::nullopt;
    CoverageRow row;
    row.coverage = coverage->as_number();
    row.num_frequencies = *num_frequencies;
    row.naive_pc = *naive_pc;
    row.schedule_size = *schedule_size;
    row.reduction_percent = reduction->as_number();
    return row;
}

IntervalSet HdfFlow::ff_range_in_window(std::size_t i) const {
    IntervalSet ff = ranges_[i].ff;
    const Interval w = window_for(config_.fmax_factor);
    ff.clip(w.lo, w.hi);
    return ff;
}

std::vector<CoverageBySpeed> HdfFlow::coverage_curve(
    std::span<const double> fmax_factors) const {
    // Denominator: all hidden delay faults (everything that survives
    // at-speed removal; timing-redundant faults count as undetected).
    const double hdf_universe = static_cast<double>(
        universe_.size() - structural_.num_at_speed);
    std::vector<CoverageBySpeed> curve;
    for (double fmax : fmax_factors) {
        const Interval w = window_for(fmax);
        std::size_t conv = 0;
        std::size_t prop = 0;
        for (const FaultRanges& r : ranges_) {
            IntervalSet ff = r.ff;
            ff.clip(w.lo, w.hi);
            if (!ff.empty()) ++conv;
            IntervalSet full =
                full_detection_range(r, placement_.config_delays);
            full.clip(w.lo, w.hi);
            if (!full.empty()) ++prop;
        }
        CoverageBySpeed point;
        point.fmax_factor = fmax;
        if (hdf_universe > 0) {
            point.conv = sample_scale_ * static_cast<double>(conv) / hdf_universe;
            point.prop = sample_scale_ * static_cast<double>(prop) / hdf_universe;
        }
        curve.push_back(point);
    }
    return curve;
}

HdfFlowResult HdfFlow::run() {
    prepare();
    const TraceSpan run_span("run", "flow");
    const auto t_run = std::chrono::steady_clock::now();
    std::vector<PhaseTime> run_phases;
    active_run_phases_ = &run_phases;
    const Netlist& nl = *netlist_;
    HdfFlowResult res;
    res.circuit = nl.name();
    res.num_gates = nl.num_comb_gates();
    res.num_ffs = nl.flip_flops().size();
    res.num_patterns = test_set_.size();
    res.num_monitors = placement_.num_monitors();
    res.fault_universe = universe_.size();
    res.at_speed_detectable = structural_.num_at_speed;
    res.timing_redundant = structural_.num_redundant;
    res.candidate_faults = structural_.num_candidates;
    res.simulated_faults = simulated_.size();
    res.clock_period = sta_.clock_period;
    res.t_min = sta_.clock_period / config_.fmax_factor;
    res.atpg_coverage = atpg_coverage_;

    auto scaled = [this](std::size_t n) {
        return static_cast<std::size_t>(
            std::llround(sample_scale_ * static_cast<double>(n)));
    };

    // --- Table I ---
    guarded_phase(run_phases, "table1", /*essential=*/false,
                  [&](PhaseStatus&) {
        std::size_t conv_detected = 0;
        std::size_t prop_detected = 0;
        std::size_t at_speed_monitor = 0;
        for (std::uint32_t i = 0; i < ranges_.size(); ++i) {
            if (!ff_range_in_window(i).empty()) ++conv_detected;
            const IntervalSet full =
                full_detection_range(ranges_[i], placement_.config_delays);
            IntervalSet in_window = full;
            const Interval w = window_for(config_.fmax_factor);
            in_window.clip(w.lo, w.hi);
            if (in_window.empty()) continue;
            ++prop_detected;
            if (detects_at_speed(full, sta_.clock_period)) {
                ++at_speed_monitor;
            }
        }
        res.detected_conv = scaled(conv_detected);
        res.detected_prop = scaled(prop_detected);
        res.monitor_at_speed = scaled(at_speed_monitor);
        res.target_faults = scaled(targets_.size());
        res.gain_percent =
            conv_detected == 0
                ? 0.0
                : (static_cast<double>(prop_detected) /
                       static_cast<double>(conv_detected) -
                   1.0) *
                      100.0;
    });

    // --- Table II: frequency selection ---
    // Declared outside the phase so a failure leaves safe (empty)
    // defaults for the dependents to check.
    FrequencySelection sel_prop;
    std::vector<IntervalSet> target_ranges;
    std::vector<Time> all_periods;
    std::vector<FrequencySelection> cov_selections;
    const bool freq_ok = guarded_phase(
        run_phases, "freq_select", /*essential=*/false, [&](PhaseStatus&) {
            // Conventional FAST: cover the conventionally detectable
            // faults using flip-flop ranges only.
            std::vector<IntervalSet> conv_ranges(ranges_.size());
            for (std::uint32_t i = 0; i < ranges_.size(); ++i) {
                conv_ranges[i] = ff_range_in_window(i);
            }
            FrequencySelectOptions fopts;
            fopts.discretize = config_.discretize;
            fopts.solver = config_.solver;
            fopts.method = SelectMethod::BranchAndBound;
            const FrequencySelection sel_conv =
                select_frequencies(conv_ranges, fopts);
            res.freq_conv = sel_conv.periods.size();

            // Target fault ranges (monitored).
            target_ranges.reserve(targets_.size());
            for (std::uint32_t pos : targets_) {
                target_ranges.push_back(full_range_in_window(pos));
            }
            FrequencySelectOptions heur_opts = fopts;
            heur_opts.method = SelectMethod::Greedy;
            const FrequencySelection sel_heur =
                select_frequencies(target_ranges, heur_opts);
            res.freq_heur = sel_heur.periods.size();
            sel_prop = select_frequencies(target_ranges, fopts);
            res.freq_prop = sel_prop.periods.size();
            res.freq_reduction_percent =
                res.freq_conv == 0
                    ? 0.0
                    : (1.0 - static_cast<double>(res.freq_prop) /
                                 static_cast<double>(res.freq_conv)) *
                          100.0;

            // Union of all periods pass B will need.
            all_periods = sel_prop.periods;
            for (double cov : config_.coverage_targets) {
                FrequencySelectOptions copts = fopts;
                copts.coverage = cov;
                cov_selections.push_back(
                    select_frequencies(target_ranges, copts));
                for (Time t : cov_selections.back().periods) {
                    all_periods.push_back(t);
                }
            }
            std::sort(all_periods.begin(), all_periods.end());
            all_periods.erase(
                std::unique(all_periods.begin(), all_periods.end(),
                            [](Time a, Time b) {
                                return std::abs(a - b) <= kTimeEps;
                            }),
                all_periods.end());
        });

    // --- Pass B over the union of all periods we will need ---
    std::vector<DelayFault> target_faults;
    std::vector<DetectionEntry> all_entries;
    guarded_phase(
        run_phases, "fault_sim_pass_b", /*essential=*/false,
        [&](PhaseStatus& st) {
            std::vector<FaultRanges> target_fault_ranges;
            for (std::uint32_t pos : targets_) {
                target_faults.push_back(universe_.fault(simulated_[pos]));
                target_fault_ranges.push_back(ranges_[pos]);
            }
            const WaveSim wave_sim(nl, *delays_, config_.wave);
            DetectionAnalysisConfig dac;
            dac.glitch_threshold = config_.glitch_threshold >= 0.0
                                       ? config_.glitch_threshold
                                       : delays_->glitch_threshold();
            dac.horizon = sta_.clock_period * 1.02;
            dac.num_threads = config_.num_threads;
            const DetectionAnalyzer analyzer(wave_sim, test_set_.patterns,
                                             placement_.monitored, dac);
            all_entries = analyzer.detection_table(
                target_faults, target_fault_ranges, all_periods,
                placement_.config_delays);
            detect_counters_ += analyzer.counters();
            if (analyzer.interrupted()) {
                st.outcome = PhaseOutcome::Degraded;
                st.detail = "detection table cancelled: entries cover the "
                            "faults simulated before the stop";
            }
        });
    res.detection = detect_counters_;

    // Helper: restrict the table to one period subset (remapped).
    auto entries_for = [&all_entries, &all_periods](
                           std::span<const Time> periods) {
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

    const std::size_t num_configs = placement_.config_delays.size();
    PatternConfigOptions pco;
    pco.method = SelectMethod::BranchAndBound;
    pco.solver = config_.solver;
    // The full schedule and the Table III rows mostly share periods and
    // their fault shares: each distinct instance is solved once.
    PatternConfigMemo pc_memo;

    // --- Table II: pattern x config selection at full coverage ---
    if (freq_ok) {
        guarded_phase(run_phases, "pattern_config_select",
                      /*essential=*/false, [&](PhaseStatus&) {
            std::vector<std::uint32_t> all_targets(target_faults.size());
            for (std::uint32_t i = 0; i < all_targets.size(); ++i) {
                all_targets[i] = i;
            }
            const auto entries = entries_for(sel_prop.periods);
            const PatternConfigResult pc = select_pattern_configs(
                entries, sel_prop.periods, all_targets, pco, &pc_memo);
            res.orig_pc =
                test_set_.size() * num_configs * sel_prop.periods.size();
            res.opti_pc = pc.schedule.size();
            res.pc_reduction_percent =
                schedule_reduction_percent(res.opti_pc, res.orig_pc);
            res.schedule_proven_optimal =
                pc.proven_optimal && sel_prop.proven_optimal;
            res.schedule_lower_bound = pc.lower_bound;
            res.schedule_uncovered = pc.uncovered_faults.size();
        });
    } else {
        skip_phase("pattern_config_select", "frequency selection failed");
    }

    // --- Table III ---
    if (freq_ok &&
        cov_selections.size() == config_.coverage_targets.size()) {
        guarded_phase(run_phases, "coverage_rows", /*essential=*/false,
                      [&](PhaseStatus&) {
            for (std::size_t k = 0; k < config_.coverage_targets.size();
                 ++k) {
                const FrequencySelection& sel = cov_selections[k];
                CoverageRow row;
                row.coverage = config_.coverage_targets[k];
                row.num_frequencies = sel.periods.size();
                row.naive_pc =
                    test_set_.size() * num_configs * sel.periods.size();
                // Faults actually covered by this (partial) selection.
                std::vector<bool> in_cover(target_faults.size(), false);
                for (const auto& covered : sel.covered) {
                    for (std::uint32_t fi : covered) in_cover[fi] = true;
                }
                std::vector<std::uint32_t> cov_targets;
                for (std::uint32_t i = 0; i < in_cover.size(); ++i) {
                    if (in_cover[i]) cov_targets.push_back(i);
                }
                const auto entries = entries_for(sel.periods);
                const PatternConfigResult pc = select_pattern_configs(
                    entries, sel.periods, cov_targets, pco, &pc_memo);
                row.schedule_size = pc.schedule.size();
                row.reduction_percent = schedule_reduction_percent(
                    row.schedule_size, row.naive_pc);
                res.coverage_rows.push_back(row);
            }
        });
    } else {
        skip_phase("coverage_rows", "frequency selections unavailable");
    }

    res.phases = phases_;
    res.phases.insert(res.phases.end(), run_phases.begin(), run_phases.end());
    res.total_wall_seconds =
        prepare_wall_seconds_ + wall_seconds_since(t_run);
    res.status = status_;
    // Leave the snapshot file in its final state even when the caller
    // never writes the full manifest(result) itself.
    flush_manifest(nullptr);
    active_run_phases_ = nullptr;
    return res;
}

std::string HdfFlowResult::schedule_optimality() const {
    if (schedule_proven_optimal) return "optimal";
    return std::to_string(opti_pc - schedule_lower_bound) + " above bound";
}

RunManifest HdfFlow::manifest(const HdfFlowResult& result) const {
    RunManifest m;

    fill_config(m);

    m.set_circuit("name", result.circuit);
    m.set_circuit("num_gates", result.num_gates);
    m.set_circuit("num_ffs", result.num_ffs);
    m.set_circuit("num_patterns", result.num_patterns);
    m.set_circuit("num_monitors", result.num_monitors);
    m.set_circuit("fault_universe", result.fault_universe);
    m.set_circuit("candidate_faults", result.candidate_faults);
    m.set_circuit("simulated_faults", result.simulated_faults);
    m.set_circuit("target_faults", result.target_faults);

    for (const PhaseTime& p : result.phases) m.add_phase(p);
    m.set_total_wall_seconds(result.total_wall_seconds);
    m.set_status(result.status.to_json());

    // Snapshot of the process-wide metrics; the shared pool is only
    // touched when this flow actually used it (a serial flow must not
    // spin up worker threads just to report about them).
    MetricsRegistry& reg = MetricsRegistry::global();
    if (config_.num_threads != 1) {
        ThreadPool::shared().publish_metrics(reg);
    }
    Json metrics = reg.to_json();
    metrics.set("detection", result.detection.to_json());
    Json schedule = Json::object();
    schedule.set("size", result.opti_pc);
    schedule.set("lower_bound", result.schedule_lower_bound);
    schedule.set("optimality", result.schedule_optimality());
    metrics.set("schedule", std::move(schedule));
    m.set_metrics(std::move(metrics));
    return m;
}

}  // namespace fastmon
