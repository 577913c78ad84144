// Detection-range computation by timing-accurate fault simulation —
// steps (2)-(4) of the paper's test flow (Fig. 4).
//
// Pass A (analyze): for every candidate fault and every pattern pair,
// the fault effect is re-simulated; the XOR of fault-free and faulty
// waveforms at each observation point yields detection intervals, which
// are pulse-filtered (Sec. II-A) and accumulated into two aggregates per
// fault: the range observable by standard flip-flops (all observation
// points) and the unshifted range observable by monitor shadow
// registers (monitored observation points only).  Patterns that produce
// any difference are remembered for pass B.
//
// Pass B (detection_table): re-simulates only (fault, active pattern)
// pairs and evaluates detection at a small set of selected observation
// times under every monitor configuration — the input of the second
// scheduling step (pattern x configuration selection).
//
// Engine structure (this is the dominant cost of the whole flow):
//   * a bit-parallel ternary pre-screen (ActivationScreen) packs
//     patterns 64-wide and discards (fault, pattern) pairs whose site
//     provably never toggles, before any waveform is touched;
//   * surviving pairs run through FaultSim's event worklist (only gates
//     whose fanin changed are re-evaluated; no fanout cone is built or
//     cached) with a per-worker dense-overlay scratch that recycles
//     every waveform buffer;
//   * work executes on a persistent thread pool: fault pairs of the
//     current pattern in parallel chunks, the next patterns'
//     fault-free waveforms as pipelined producer tasks;
//   * cheap counters record how much work each stage did.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "sim/pattern.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace fastmon {

/// Aggregated (pass A) detection data per fault.
struct FaultRanges {
    /// Detection range via standard flip-flops, union over all patterns
    /// and all observation points; raw observation times in [0, horizon).
    IntervalSet ff;
    /// Unshifted detection range at monitored observation points; the
    /// shadow-register range under configuration delay d is (sr + d).
    IntervalSet sr;
    /// Pattern indices that produced any output difference.
    std::vector<std::uint32_t> active_patterns;
};

/// One confirmed detection opportunity (pass B).
struct DetectionEntry {
    std::uint32_t fault_index = 0;    ///< index into the analyzed fault list
    std::uint32_t pattern = 0;        ///< pattern index
    std::uint16_t config = 0;         ///< monitor configuration index
    std::uint16_t period = 0;         ///< index into the period list
};

struct DetectionAnalysisConfig {
    /// Pulse-filtering threshold for detection intervals (Sec. II-A);
    /// intervals shorter than this are pessimistically dropped.
    Time glitch_threshold = 0.0;
    /// Upper bound of recorded observation times (>= t_nom + max
    /// monitor delay).
    Time horizon = 0.0;
    /// Simulation lanes: 0 = one per hardware thread (the process-wide
    /// shared pool), 1 = serial, n >= 2 = a dedicated pool of n - 1
    /// workers plus the calling thread.
    std::size_t num_threads = 0;
};

/// Cumulative work/timing counters of a DetectionAnalyzer — the
/// baseline data of performance work on the engine.  pairs_total,
/// the screen/activation counters and pairs_detected cover analyze();
/// pairs_simulated, gates_reevaluated, good_wave_* and
/// fault_sim_seconds count the work of both passes (detection_table()
/// re-simulations included).
struct DetectionCounters {
    std::uint64_t pairs_total = 0;         ///< (fault, pattern) pairs seen
    std::uint64_t pairs_screened_out = 0;  ///< dropped by the bit-parallel screen
    std::uint64_t pairs_inactive = 0;      ///< dropped by the exact activation check
    std::uint64_t pairs_simulated = 0;     ///< FaultSim::simulate calls
    std::uint64_t pairs_detected = 0;      ///< simulations with a non-empty range
    std::uint64_t gates_reevaluated = 0;   ///< gate evaluations inside FaultSim
    std::uint64_t good_wave_sims = 0;      ///< fault-free waveform simulations
    double screen_seconds = 0.0;           ///< building the activation screen
    double good_wave_seconds = 0.0;        ///< fault-free simulation (CPU time)
    double fault_sim_seconds = 0.0;        ///< fault simulation chunks (CPU time)
    double analyze_seconds = 0.0;          ///< analyze() wall clock
    double table_seconds = 0.0;            ///< detection_table() wall clock

    DetectionCounters& operator+=(const DetectionCounters& other);

    /// Stable key/value view of every counter, in declaration order —
    /// the single source of truth for reports, bench artifacts, and the
    /// run manifest (no per-consumer field lists).
    [[nodiscard]] Json to_json() const;
};

/// Bit-parallel, hazard-aware fault-activation pre-screen.
///
/// Patterns are packed 64 per word and pushed through a ternary logic
/// simulation (LogicSim::eval64_ternary): a stable (non-X) node
/// provably never toggles in the timed waveform simulation, so no
/// delay fault at that site can be activated by that pattern.  The
/// screen is conservative: may_toggle() == false guarantees
/// FaultSim::activated() == false for both transition directions;
/// true means "must check".
class ActivationScreen {
public:
    ActivationScreen(const Netlist& netlist,
                     std::span<const PatternPair> patterns);

    /// May the signal driven by `signal` toggle under pattern `pattern`?
    [[nodiscard]] bool may_toggle(GateId signal,
                                  std::uint32_t pattern) const {
        return (words_[signal * blocks_ + pattern / 64] >>
                (pattern % 64)) &
               1ULL;
    }

    /// Convenience: screen bit of a fault site (either direction).
    [[nodiscard]] bool may_activate(const Netlist& netlist,
                                    const FaultSite& site,
                                    std::uint32_t pattern) const;

    /// 64-pattern block of screen bits for `signal` (bit k = pattern
    /// block * 64 + k).
    [[nodiscard]] std::uint64_t block(GateId signal,
                                      std::size_t block_index) const {
        return words_[signal * blocks_ + block_index];
    }

    [[nodiscard]] std::size_t num_blocks() const { return blocks_; }

private:
    std::size_t blocks_ = 0;
    std::vector<std::uint64_t> words_;  ///< [signal * blocks_ + block]
};

class DetectionAnalyzer {
public:
    /// `monitored` flags each observation point carrying a monitor (may
    /// be empty: no monitors).
    DetectionAnalyzer(const WaveSim& wave_sim,
                      std::span<const PatternPair> patterns,
                      const std::vector<bool>& monitored,
                      DetectionAnalysisConfig config);

    /// Pass A over `faults` (screened and parallelized on the persistent
    /// pool internally).
    [[nodiscard]] std::vector<FaultRanges> analyze(
        std::span<const DelayFault> faults) const;

    /// Pass B: for each fault (with its active pattern list from pass A),
    /// tests detection at each observation time in `periods` under each
    /// monitor configuration delay in `config_delays` (index 0 is the
    /// monitor-off configuration with delay 0).
    [[nodiscard]] std::vector<DetectionEntry> detection_table(
        std::span<const DelayFault> faults,
        std::span<const FaultRanges> ranges,
        std::span<const Time> periods,
        std::span<const Time> config_delays) const;

    [[nodiscard]] const WaveSim& wave_sim() const { return *wave_sim_; }

    /// Work/timing counters accumulated over every analyze() and
    /// detection_table() call on this analyzer.
    [[nodiscard]] DetectionCounters counters() const;

    /// True when any pass on this analyzer stopped early on a
    /// cancellation request; the returned ranges/entries then cover the
    /// (fault, pattern) pairs processed before the stop.  Kept off
    /// DetectionCounters so the bench cache format stays stable.
    [[nodiscard]] bool interrupted() const {
        return interrupted_.load(std::memory_order_relaxed);
    }

private:
    /// FF/SR interval pair for one fault under one pattern.
    struct PairRanges {
        IntervalSet ff;
        IntervalSet sr;
    };
    [[nodiscard]] PairRanges ranges_for_pattern(
        const FaultSim& fsim, const DelayFault& fault,
        std::span<const Waveform> good, FaultSimScratch& scratch) const;

    /// nullptr = run serial (num_threads == 1).
    [[nodiscard]] ThreadPool* pool() const;

    struct Atomics {
        std::atomic<std::uint64_t> pairs_total{0};
        std::atomic<std::uint64_t> pairs_screened_out{0};
        std::atomic<std::uint64_t> pairs_inactive{0};
        std::atomic<std::uint64_t> pairs_simulated{0};
        std::atomic<std::uint64_t> pairs_detected{0};
        std::atomic<std::uint64_t> gates_reevaluated{0};
        std::atomic<std::uint64_t> good_wave_sims{0};
        std::atomic<std::uint64_t> screen_ns{0};
        std::atomic<std::uint64_t> good_wave_ns{0};
        std::atomic<std::uint64_t> fault_sim_ns{0};
        std::atomic<std::uint64_t> analyze_ns{0};
        std::atomic<std::uint64_t> table_ns{0};
    };

    const WaveSim* wave_sim_;
    std::span<const PatternPair> patterns_;
    std::vector<bool> monitored_;
    DetectionAnalysisConfig config_;
    std::unique_ptr<ThreadPool> owned_pool_;  ///< only when num_threads >= 2
    mutable Atomics stats_;
    mutable std::atomic<bool> interrupted_{false};
};

}  // namespace fastmon
