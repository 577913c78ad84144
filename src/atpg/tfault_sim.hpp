// 64-way parallel-pattern transition delay fault (TDF) simulation.
//
// Under enhanced-scan application a slow-to-rise (slow-to-fall)
// transition fault at a site is detected by a pattern pair (v1, v2) iff
// v1 sets the site to the initial value, v2 launches the transition,
// and the stale value propagates to an observation point under v2 —
// i.e. the gross-delay abstraction of a delay fault.  The simulator
// packs 64 pattern pairs into machine words and propagates each fault
// event-driven on a RankWorklist: only gates with a changed fanin are
// queued, the faulty values live in a dense overlay whose valid slots
// carry the worklist's "changed" stamp, and the detection mask
// accumulates as values are written at observed signals.  Dff sinks
// end propagation.  No call allocates once the instance exists.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/rank_worklist.hpp"
#include "sim/fault_sim.hpp"
#include "sim/logic_sim.hpp"
#include "sim/pattern.hpp"

namespace fastmon {

/// A transition delay fault used for ATPG coverage.
struct TdfFault {
    FaultSite site;
    bool slow_rising = true;

    friend bool operator==(const TdfFault&, const TdfFault&) = default;
};

/// All transition faults of the circuit (both directions at every pin
/// of every combinational gate).
std::vector<TdfFault> enumerate_tdf_faults(const Netlist& netlist);

/// Holds per-call scratch (~20 bytes per gate) that detect_mask()
/// mutates, so one instance must not be shared between threads: use one
/// instance per thread.
class TransitionFaultSim {
public:
    explicit TransitionFaultSim(const Netlist& netlist);

    /// Packs up to 64 pattern pairs (starting at `first`) into words per
    /// source; lanes beyond the pattern count replicate pattern 0.
    struct Batch {
        std::vector<std::uint64_t> src1;
        std::vector<std::uint64_t> src2;
        std::size_t count = 0;
    };
    [[nodiscard]] Batch pack(std::span<const PatternPair> patterns,
                             std::size_t first) const;

    /// Node values for both vectors of a packed batch.
    struct BatchValues {
        std::vector<std::uint64_t> val1;
        std::vector<std::uint64_t> val2;
    };
    [[nodiscard]] BatchValues evaluate(const Batch& batch) const;

    /// Lane mask of patterns in the batch that detect `fault`.
    [[nodiscard]] std::uint64_t detect_mask(const TdfFault& fault,
                                            const BatchValues& values) const;

    [[nodiscard]] const Netlist& netlist() const { return *netlist_; }

    /// Gates detect_mask() evaluated on this instance (cheap perf
    /// counter, monotone across calls).
    [[nodiscard]] std::uint64_t gates_evaluated() const {
        return gates_evaluated_;
    }

private:
    [[nodiscard]] std::uint64_t eval_faulty(GateId id, std::uint32_t faulty_pin,
                                            std::uint64_t faulty_word,
                                            const BatchValues& values) const;

    const Netlist* netlist_;
    LogicSim logic_;

    // detect_mask() scratch: a gate's faulty v2 word is valid while the
    // worklist marks it changed.
    mutable std::vector<std::uint64_t> overlay_;
    mutable RankWorklist work_;
    mutable std::uint64_t gates_evaluated_ = 0;
};

/// Convenience: fault-simulates `patterns` against `faults` with
/// dropping; returns per-fault index of the first detecting pattern
/// (SIZE_MAX if undetected).
std::vector<std::size_t> fault_simulate_tdf(const Netlist& netlist,
                                            std::span<const TdfFault> faults,
                                            std::span<const PatternPair> patterns);

/// Same, on the caller's simulator (whose gates_evaluated() counts the
/// work).
std::vector<std::size_t> fault_simulate_tdf(const TransitionFaultSim& sim,
                                            std::span<const TdfFault> faults,
                                            std::span<const PatternPair> patterns);

}  // namespace fastmon
