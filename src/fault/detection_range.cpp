#include "fault/detection_range.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <mutex>

#include "sim/logic_sim.hpp"
#include "util/cancel.hpp"
#include "util/fault_inject.hpp"
#include "util/trace.hpp"

namespace fastmon {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point start) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
}

/// Pattern-boundary cancellation poll shared by both passes.  The
/// `cancel.fault_sim_mid` injection point converts into an organic
/// cancellation request so the exact same degradation path is tested.
bool cancel_requested() {
    if (FaultInjector::global().trip("cancel.fault_sim_mid")) {
        CancelToken::global().cancel(CancelCause::Test);
    }
    return CancelToken::global().cancelled();
}

/// Per-worker state of pass A: the fault simulator's scratch and the
/// interval buffers one pair's ranges are extracted into.
struct WorkerScratch {
    FaultSimScratch sim;
    std::vector<Interval> ivals;   ///< one observation point's range
    std::vector<Interval> ff;      ///< the pair's FF range
    std::vector<Interval> sr;      ///< the pair's SR range
    std::vector<Interval> merged;  ///< union buffer

    /// A detected pair's ranges, staged in `stage` until the pass ends.
    struct Staged {
        std::uint32_t fault;
        std::uint32_t pattern;
        std::uint32_t begin;   ///< FF intervals: stage[begin, ff_end)
        std::uint32_t ff_end;  ///< SR intervals: stage[ff_end, sr_end)
        std::uint32_t sr_end;
    };
    std::vector<Interval> stage;
    std::vector<Staged> staged;

    void stage_pair(std::uint32_t fault, std::uint32_t pattern) {
        const auto begin = static_cast<std::uint32_t>(stage.size());
        stage.insert(stage.end(), ff.begin(), ff.end());
        const auto ff_end = static_cast<std::uint32_t>(stage.size());
        stage.insert(stage.end(), sr.begin(), sr.end());
        staged.push_back({fault, pattern, begin, ff_end,
                          static_cast<std::uint32_t>(stage.size())});
    }
};

/// acc = acc u add through the swap buffer `merged`.
void unite_into(std::vector<Interval>& acc, std::span<const Interval> add,
                std::vector<Interval>& merged) {
    if (acc.empty()) {
        acc.assign(add.begin(), add.end());
        return;
    }
    unite_intervals(acc, add, merged);
    acc.swap(merged);
}

/// Freelist of per-worker scratches for one pass; the scratches stay
/// alive until the pass ends so their work counters can be harvested.
class ScratchPool {
public:
    WorkerScratch* acquire() {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!free_.empty()) {
            WorkerScratch* s = free_.back();
            free_.pop_back();
            return s;
        }
        all_.push_back(std::make_unique<WorkerScratch>());
        return all_.back().get();
    }

    void release(WorkerScratch* s) {
        const std::lock_guard<std::mutex> lock(mutex_);
        free_.push_back(s);
    }

    [[nodiscard]] std::uint64_t gates_evaluated() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        std::uint64_t total = 0;
        for (const auto& s : all_) total += s->sim.gates_evaluated();
        return total;
    }

    /// Every scratch of the pass (call once the pass's tasks are done).
    [[nodiscard]] const std::vector<std::unique_ptr<WorkerScratch>>& all()
        const {
        return all_;
    }

private:
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<WorkerScratch>> all_;
    std::vector<WorkerScratch*> free_;
};

}  // namespace

DetectionCounters& DetectionCounters::operator+=(
    const DetectionCounters& other) {
    pairs_total += other.pairs_total;
    pairs_screened_out += other.pairs_screened_out;
    pairs_inactive += other.pairs_inactive;
    pairs_simulated += other.pairs_simulated;
    pairs_detected += other.pairs_detected;
    gates_reevaluated += other.gates_reevaluated;
    good_wave_sims += other.good_wave_sims;
    screen_seconds += other.screen_seconds;
    good_wave_seconds += other.good_wave_seconds;
    fault_sim_seconds += other.fault_sim_seconds;
    analyze_seconds += other.analyze_seconds;
    table_seconds += other.table_seconds;
    return *this;
}

Json DetectionCounters::to_json() const {
    Json j = Json::object();
    j.set("pairs_total", pairs_total);
    j.set("pairs_screened_out", pairs_screened_out);
    j.set("pairs_inactive", pairs_inactive);
    j.set("pairs_simulated", pairs_simulated);
    j.set("pairs_detected", pairs_detected);
    j.set("gates_reevaluated", gates_reevaluated);
    j.set("good_wave_sims", good_wave_sims);
    j.set("screen_seconds", screen_seconds);
    j.set("good_wave_seconds", good_wave_seconds);
    j.set("fault_sim_seconds", fault_sim_seconds);
    j.set("analyze_seconds", analyze_seconds);
    j.set("table_seconds", table_seconds);
    return j;
}

ActivationScreen::ActivationScreen(const Netlist& netlist,
                                   std::span<const PatternPair> patterns) {
    blocks_ = (patterns.size() + 63) / 64;
    words_.assign(netlist.size() * blocks_, 0);
    if (blocks_ == 0) return;
    const LogicSim lsim(netlist);
    const std::size_t n_src = netlist.comb_sources().size();
    std::vector<std::uint64_t> can0(n_src);
    std::vector<std::uint64_t> can1(n_src);
    for (std::size_t b = 0; b < blocks_; ++b) {
        std::fill(can0.begin(), can0.end(), 0);
        std::fill(can1.begin(), can1.end(), 0);
        const std::size_t base = b * 64;
        const std::size_t lanes =
            std::min<std::size_t>(64, patterns.size() - base);
        for (std::size_t k = 0; k < lanes; ++k) {
            const PatternPair& p = patterns[base + k];
            const std::uint64_t bit = 1ULL << k;
            for (std::size_t s = 0; s < n_src; ++s) {
                const bool x1 = p.v1[s] != 0;
                const bool x2 = p.v2[s] != 0;
                if (x1 != x2) {  // toggling source: X (attains both)
                    can0[s] |= bit;
                    can1[s] |= bit;
                } else if (x1) {
                    can1[s] |= bit;
                } else {
                    can0[s] |= bit;
                }
            }
        }
        const LogicSim::TernaryValues tv = lsim.eval64_ternary(can0, can1);
        for (GateId g = 0; g < netlist.size(); ++g) {
            words_[g * blocks_ + b] = tv.can0[g] & tv.can1[g];
        }
    }
}

bool ActivationScreen::may_activate(const Netlist& netlist,
                                    const FaultSite& site,
                                    std::uint32_t pattern) const {
    return may_toggle(fault_site_signal(netlist, site), pattern);
}

DetectionAnalyzer::DetectionAnalyzer(const WaveSim& wave_sim,
                                     std::span<const PatternPair> patterns,
                                     const std::vector<bool>& monitored,
                                     DetectionAnalysisConfig config)
    : wave_sim_(&wave_sim),
      patterns_(patterns),
      monitored_(monitored),
      config_(config) {
    if (monitored_.empty()) {
        monitored_.assign(wave_sim.netlist().observe_points().size(), false);
    }
    assert(monitored_.size() == wave_sim.netlist().observe_points().size());
    if (config_.num_threads >= 2) {
        // The calling thread is one lane (it helps while waiting), so a
        // dedicated pool only needs num_threads - 1 workers.
        owned_pool_ = std::make_unique<ThreadPool>(config_.num_threads - 1);
    }
}

ThreadPool* DetectionAnalyzer::pool() const {
    if (config_.num_threads == 1) return nullptr;
    if (owned_pool_) return owned_pool_.get();
    return &ThreadPool::shared();
}

std::vector<FaultRanges> DetectionAnalyzer::analyze(
    std::span<const DelayFault> faults) const {
    const TraceSpan span("analyze", "detect");
    const auto t_total = Clock::now();
    std::vector<FaultRanges> result(faults.size());
    stats_.pairs_total += faults.size() * patterns_.size();
    if (faults.empty() || patterns_.empty()) {
        stats_.analyze_ns += ns_since(t_total);
        return result;
    }
    const Netlist& nl = wave_sim_->netlist();

    // Bit-parallel pre-screen: pack the patterns 64-wide, then keep
    // only (fault, pattern) pairs whose site signal may toggle; skip
    // patterns with no surviving pair entirely (their fault-free
    // waveforms are never needed).
    const auto t_screen = Clock::now();
    TraceSpan screen_span("activation_screen", "detect");
    const ActivationScreen screen(nl, patterns_);
    std::vector<GateId> site_signal(faults.size());
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
        site_signal[fi] = fault_site_signal(nl, faults[fi].site);
    }
    std::vector<GateId> distinct_signals = site_signal;
    std::sort(distinct_signals.begin(), distinct_signals.end());
    distinct_signals.erase(
        std::unique(distinct_signals.begin(), distinct_signals.end()),
        distinct_signals.end());
    std::vector<std::uint32_t> active_pats;
    for (std::uint32_t pi = 0; pi < patterns_.size(); ++pi) {
        for (GateId sig : distinct_signals) {
            if (screen.may_toggle(sig, pi)) {
                active_pats.push_back(pi);
                break;
            }
        }
    }
    stats_.pairs_screened_out +=
        (patterns_.size() - active_pats.size()) * faults.size();
    stats_.screen_ns += ns_since(t_screen);
    screen_span.end();

    ScratchPool scratches;
    const auto ops = nl.observe_points();

    // The FF / SR ranges of one simulated pair, into w.ff / w.sr.
    auto pair_ranges = [&](const FaultSim& fsim, const DelayFault& fault,
                           std::span<const Waveform> good, WorkerScratch& w) {
        fsim.propagate(fault, good, w.sim);
        w.ff.clear();
        w.sr.clear();
        for (std::uint32_t oi : w.sim.observed()) {
            const GateId sig = ops[oi].signal;
            xor_ones(good[sig].view(), w.sim.faulty(sig), config_.horizon,
                     w.ivals);
            drop_short_intervals(w.ivals, config_.glitch_threshold);
            if (w.ivals.empty()) continue;
            unite_into(w.ff, w.ivals, w.merged);
            if (monitored_[oi]) unite_into(w.sr, w.ivals, w.merged);
        }
    };

    // One (pattern, fault chunk) work item; patterns are processed in
    // ascending order with a barrier in between, so the per-fault
    // accumulation order is identical to a sequential engine.
    auto run_chunk = [&](std::uint32_t pi, std::span<const Waveform> good,
                         std::size_t begin, std::size_t end) {
        const TraceSpan chunk_span("fault_sim_chunk", "detect");
        const auto t0 = Clock::now();
        WorkerScratch* scratch = scratches.acquire();
        const FaultSim fsim(*wave_sim_);
        std::uint64_t screened = 0;
        std::uint64_t inactive = 0;
        std::uint64_t simulated = 0;
        std::uint64_t detected = 0;
        for (std::size_t fi = begin; fi < end; ++fi) {
            if (CancelToken::global().cancelled()) {
                // Faults not reached keep empty ranges; the analyzer
                // reports interrupted() so callers scale accordingly.
                interrupted_.store(true, std::memory_order_relaxed);
                break;
            }
            if (!screen.may_toggle(site_signal[fi], pi)) {
                ++screened;
                continue;
            }
            if (!fsim.activated(faults[fi], good)) {
                ++inactive;
                continue;
            }
            ++simulated;
            pair_ranges(fsim, faults[fi], good, *scratch);
            if (scratch->ff.empty() && scratch->sr.empty()) continue;
            ++detected;
            result[fi].ff.unite(scratch->ff);
            result[fi].sr.unite(scratch->sr);
            scratch->stage_pair(static_cast<std::uint32_t>(fi), pi);
        }
        scratches.release(scratch);
        stats_.pairs_screened_out += screened;
        stats_.pairs_inactive += inactive;
        stats_.pairs_simulated += simulated;
        stats_.pairs_detected += detected;
        stats_.fault_sim_ns += ns_since(t0);
    };

    ThreadPool* tp = pool();
    if (tp == nullptr) {
        for (std::uint32_t pi : active_pats) {
            if (cancel_requested()) {
                interrupted_.store(true, std::memory_order_relaxed);
                break;
            }
            const auto t0 = Clock::now();
            const PatternPair& p = patterns_[pi];
            const std::vector<Waveform> good =
                wave_sim_->simulate(p.v1, p.v2);
            ++stats_.good_wave_sims;
            stats_.good_wave_ns += ns_since(t0);
            run_chunk(pi, good, 0, faults.size());
        }
    } else {
        // Pipelined producer: fault-free waveforms of upcoming patterns
        // are simulated on the pool while the current pattern's fault
        // chunks run, so workers never idle between patterns.
        const std::size_t lanes = tp->size() + 1;
        const std::size_t lookahead =
            std::min(active_pats.size(), lanes + 2);
        std::vector<std::vector<Waveform>> slots(active_pats.size());
        std::vector<std::unique_ptr<ThreadPool::TaskGroup>> producers(
            active_pats.size());
        std::size_t next_submit = 0;
        auto submit_until = [&](std::size_t limit) {
            for (; next_submit < limit; ++next_submit) {
                const std::size_t idx = next_submit;
                producers[idx] =
                    std::make_unique<ThreadPool::TaskGroup>(*tp);
                producers[idx]->run([this, idx, &slots, &active_pats] {
                    const TraceSpan wave_span("good_wave", "detect");
                    const auto t0 = Clock::now();
                    const PatternPair& p = patterns_[active_pats[idx]];
                    slots[idx] = wave_sim_->simulate(p.v1, p.v2);
                    ++stats_.good_wave_sims;
                    stats_.good_wave_ns += ns_since(t0);
                });
            }
        };
        for (std::size_t idx = 0; idx < active_pats.size(); ++idx) {
            if (cancel_requested()) {
                // Already-submitted producer groups drain through their
                // destructors; no slot is consumed after this point.
                interrupted_.store(true, std::memory_order_relaxed);
                break;
            }
            submit_until(std::min(active_pats.size(), idx + lookahead));
            producers[idx]->wait();
            const std::vector<Waveform>& good = slots[idx];
            const std::uint32_t pi = active_pats[idx];
            ThreadPool::TaskGroup group(*tp);
            const std::size_t chunk_count =
                std::min(faults.size(), lanes * 4);
            const std::size_t chunk =
                (faults.size() + chunk_count - 1) / chunk_count;
            for (std::size_t b = 0; b < faults.size(); b += chunk) {
                const std::size_t e = std::min(faults.size(), b + chunk);
                group.run([&run_chunk, pi, &good, b, e] {
                    run_chunk(pi, good, b, e);
                });
            }
            group.wait();
            slots[idx] = {};
            producers[idx].reset();
        }
    }

    // Move the staged per-pattern ranges into their faults.  Each
    // fault's arrays are allocated once, at their exact size, after the
    // pass's transient buffers are gone: grown pair by pair during the
    // pass, they would pin fragments of the whole pass's heap.
    using Staged = WorkerScratch::Staged;
    std::vector<std::uint32_t> first(faults.size() + 1, 0);
    for (const auto& w : scratches.all()) {
        for (const Staged& p : w->staged) ++first[p.fault + 1];
    }
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
        first[fi + 1] += first[fi];
    }
    std::vector<std::pair<const Staged*, const WorkerScratch*>> by_fault(
        first.back());
    {
        std::vector<std::uint32_t> fill(first.begin(), first.end() - 1);
        for (const auto& w : scratches.all()) {
            for (const Staged& p : w->staged) {
                by_fault[fill[p.fault]++] = {&p, w.get()};
            }
        }
    }
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
        const auto begin = by_fault.begin() + first[fi];
        const auto end = by_fault.begin() + first[fi + 1];
        if (begin == end) continue;
        std::sort(begin, end, [](const auto& a, const auto& b) {
            return a.first->pattern < b.first->pattern;
        });
        std::size_t intervals = 0;
        for (auto it = begin; it != end; ++it) {
            intervals += it->first->sr_end - it->first->begin;
        }
        FaultRanges& r = result[fi];
        r.active_patterns.reserve(static_cast<std::size_t>(end - begin));
        r.pattern_ends.reserve(2 * static_cast<std::size_t>(end - begin));
        r.pattern_intervals.reserve(intervals);
        for (auto it = begin; it != end; ++it) {
            const Staged& p = *it->first;
            const Interval* stage = it->second->stage.data();
            r.active_patterns.push_back(p.pattern);
            r.pattern_intervals.insert(r.pattern_intervals.end(),
                                       stage + p.begin, stage + p.ff_end);
            r.pattern_ends.push_back(
                static_cast<std::uint32_t>(r.pattern_intervals.size()));
            r.pattern_intervals.insert(r.pattern_intervals.end(),
                                       stage + p.ff_end, stage + p.sr_end);
            r.pattern_ends.push_back(
                static_cast<std::uint32_t>(r.pattern_intervals.size()));
        }
    }
    stats_.gates_reevaluated += scratches.gates_evaluated();
    stats_.analyze_ns += ns_since(t_total);
    return result;
}

std::vector<DetectionEntry> DetectionAnalyzer::detection_table(
    std::span<const DelayFault> faults, std::span<const FaultRanges> ranges,
    std::span<const Time> periods, std::span<const Time> config_delays) const {
    const TraceSpan span("detection_table", "detect");
    const auto t_total = Clock::now();
    assert(ranges.size() == faults.size());
    (void)faults;

    // Visits the entries of fault fi in (period, pattern, config) order;
    // with faults in index order that is the table's order.
    auto for_each_entry = [&](std::uint32_t fi, auto&& emit) {
        const FaultRanges& r = ranges[fi];
        assert(r.pattern_ends.size() == 2 * r.active_patterns.size());
        for (std::uint16_t ti = 0; ti < periods.size(); ++ti) {
            const Time t = periods[ti];
            for (std::size_t k = 0; k < r.active_patterns.size(); ++k) {
                const bool ff = intervals_contain(r.pattern_ff(k), t);
                const std::span<const Interval> sr = r.pattern_sr(k);
                for (std::uint16_t ci = 0; ci < config_delays.size(); ++ci) {
                    if (ff || (ci != 0 &&
                               intervals_contain(sr, t - config_delays[ci]))) {
                        emit(DetectionEntry{fi, r.active_patterns[k], ci, ti});
                    }
                }
            }
        }
    };

    // Fault chunks run in parallel twice: once to size each fault's run
    // of entries, once to write them in place.  A chunk that sees a
    // cancellation request contributes no entries.
    ThreadPool* tp = pool();
    const std::size_t lanes = tp == nullptr ? 1 : tp->size() + 1;
    const std::size_t chunk_count =
        std::max<std::size_t>(1, std::min(ranges.size(), lanes * 4));
    const std::size_t chunk = (ranges.size() + chunk_count - 1) / chunk_count;
    auto for_each_chunk = [&](auto&& body) {
        if (tp == nullptr) {
            for (std::size_t b = 0; b < ranges.size(); b += chunk) {
                body(b, std::min(ranges.size(), b + chunk));
            }
            return;
        }
        ThreadPool::TaskGroup group(*tp);
        for (std::size_t b = 0; b < ranges.size(); b += chunk) {
            const std::size_t e = std::min(ranges.size(), b + chunk);
            group.run([&body, b, e] { body(b, e); });
        }
        group.wait();
    };

    std::vector<std::size_t> offset(ranges.size() + 1, 0);
    std::vector<char> chunk_done(chunk_count, 0);
    for_each_chunk([&](std::size_t b, std::size_t e) {
        const TraceSpan chunk_span("table_chunk", "detect");
        if (cancel_requested()) {
            interrupted_.store(true, std::memory_order_relaxed);
            return;
        }
        for (std::size_t fi = b; fi < e; ++fi) {
            std::size_t n = 0;
            for_each_entry(static_cast<std::uint32_t>(fi),
                           [&n](const DetectionEntry&) { ++n; });
            offset[fi + 1] = n;
        }
        chunk_done[b / chunk] = 1;
    });
    for (std::size_t fi = 0; fi < ranges.size(); ++fi) {
        offset[fi + 1] += offset[fi];
    }
    std::vector<DetectionEntry> entries(offset.back());
    for_each_chunk([&](std::size_t b, std::size_t e) {
        if (chunk_done[b / chunk] == 0) return;
        for (std::size_t fi = b; fi < e; ++fi) {
            DetectionEntry* out = entries.data() + offset[fi];
            for_each_entry(static_cast<std::uint32_t>(fi),
                           [&out](const DetectionEntry& d) { *out++ = d; });
        }
    });
    stats_.table_ns += ns_since(t_total);
    return entries;
}

DetectionCounters DetectionAnalyzer::counters() const {
    DetectionCounters c;
    c.pairs_total = stats_.pairs_total.load();
    c.pairs_screened_out = stats_.pairs_screened_out.load();
    c.pairs_inactive = stats_.pairs_inactive.load();
    c.pairs_simulated = stats_.pairs_simulated.load();
    c.pairs_detected = stats_.pairs_detected.load();
    c.gates_reevaluated = stats_.gates_reevaluated.load();
    c.good_wave_sims = stats_.good_wave_sims.load();
    c.screen_seconds = static_cast<double>(stats_.screen_ns.load()) * 1e-9;
    c.good_wave_seconds =
        static_cast<double>(stats_.good_wave_ns.load()) * 1e-9;
    c.fault_sim_seconds =
        static_cast<double>(stats_.fault_sim_ns.load()) * 1e-9;
    c.analyze_seconds = static_cast<double>(stats_.analyze_ns.load()) * 1e-9;
    c.table_seconds = static_cast<double>(stats_.table_ns.load()) * 1e-9;
    return c;
}

}  // namespace fastmon
