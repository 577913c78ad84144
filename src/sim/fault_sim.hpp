// Timing-accurate small delay fault simulation.
//
// For a fault (site, transition direction, size delta) and a pattern
// pair, re-simulates the gates the fault effect reaches against the
// fault-free waveforms and yields, per observation point, the XOR of
// fault-free and faulty waveforms — the raw material of detection
// ranges (Sec. III-B).  Only gates whose fanin waveforms actually
// changed are re-evaluated.
//
// Hot-path plumbing (the engine runs one simulate() per activated
// (fault, pattern) pair, millions on the larger benches):
//   * event frontier: a RankWorklist seeded from the site gate queues a
//     gate only when one of its fanins changed and pops it after every
//     fanin is final, so cost scales with the changed gates — there is
//     no per-site fanout cone to build, cache or walk.  Observation
//     points come from Netlist::observe_indices of the changed gates.
//   * FaultSimScratch holds the faulty-waveform overlay as a dense
//     array indexed by GateId, valid where the worklist marks a gate
//     changed, so a new walk clears it without deallocating.  Gates
//     are evaluated straight into their overlay slot through
//     WaveSim::eval_gate_into, so every waveform and event buffer is
//     recycled across calls.  One scratch per thread.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/rank_worklist.hpp"
#include "sim/wave_sim.hpp"

namespace fastmon {

/// Location of a small delay fault: a pin of a combinational gate.
/// pin == kOutputPin places the fault at the gate output; otherwise at
/// input pin `pin`.
struct FaultSite {
    static constexpr std::uint32_t kOutputPin = 0xFFFFFFFF;

    GateId gate = kNoGate;
    std::uint32_t pin = kOutputPin;

    friend bool operator==(const FaultSite&, const FaultSite&) = default;
};

/// A small delay fault phi = (site, direction, delta): transitions of
/// the given direction at the site are retarded by delta (Sec. II-A).
struct DelayFault {
    FaultSite site;
    bool slow_rising = true;  ///< true: slow-to-rise; false: slow-to-fall
    Time delta = 0.0;
};

/// Faulty/fault-free difference at one observation point.
struct ObserveDiff {
    std::uint32_t observe_index = 0;  ///< index into Netlist::observe_points()
    Waveform diff;                    ///< XOR(fault-free, faulty) at op.signal
};

/// Gate whose output waveform carries the fault effect of `site`:
/// the site gate itself for output faults, the driving fanin for
/// input-pin faults.
[[nodiscard]] GateId fault_site_signal(const Netlist& netlist,
                                       const FaultSite& site);

/// Per-thread scratch state of the fault-simulation hot path: the dense
/// faulty-waveform overlay, the event worklist and the
/// recycled evaluation buffers.  Not thread-safe; use one instance per
/// worker.
class FaultSimScratch {
public:
    /// Gates the simulator re-evaluated through this scratch (cheap
    /// perf counter, monotone across calls).
    [[nodiscard]] std::uint64_t gates_evaluated() const {
        return gates_evaluated_;
    }

private:
    friend class FaultSim;

    // A gate's overlay_ slot holds its faulty waveform while the
    // worklist marks it changed (a slot whose result equalled the
    // fault-free wave is left dirty and unmarked).
    std::vector<Waveform> overlay_;
    RankWorklist work_;
    std::vector<std::uint32_t> observed_;  ///< observe indices that changed
    std::vector<const Waveform*> fanin_waves_;
    Waveform pin_wave_;  ///< slowed fanin of an input-pin fault
    GateEvalScratch eval_;
    std::uint64_t gates_evaluated_ = 0;
};

class FaultSim {
public:
    explicit FaultSim(const WaveSim& wave_sim);

    /// Re-simulates `fault` against the fault-free waveforms `good`
    /// (as produced by WaveSim::simulate for the same pattern pair).
    /// Returns the non-empty difference waveforms per observation point.
    [[nodiscard]] std::vector<ObserveDiff> simulate(
        const DelayFault& fault, std::span<const Waveform> good) const;

    /// Hot-path variant: identical result, state kept in `scratch`
    /// (dense overlay, no per-call allocation beyond the returned diffs).
    [[nodiscard]] std::vector<ObserveDiff> simulate(
        const DelayFault& fault, std::span<const Waveform> good,
        FaultSimScratch& scratch) const;

    /// Cheap necessary condition for fault activation: the signal at the
    /// fault site has at least one transition in the slow direction.
    [[nodiscard]] bool activated(const DelayFault& fault,
                                 std::span<const Waveform> good) const;

private:
    const WaveSim* wave_sim_;
};

}  // namespace fastmon
