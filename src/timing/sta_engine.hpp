// Reusable static timing analysis engine.
//
// StaEngine replaces the free-function run_sta + throwaway-annotation
// pattern for workloads that evaluate many perturbations of one base
// annotation (the lifetime campaign: N devices x Y years, each year
// re-scaling every combinational gate by its aging factor).  The
// engine owns the flattened arc-delay arrays and the arrival /
// downstream result arenas, and exposes
//
//   analyze()       full pass over the unmodified base annotation,
//   update(delta)   the delta applied over the flattened base arcs,
//                   then the same full pass, and
//   rebase(base)    cheap retargeting to another device's annotation
//                   without reallocating the arenas.
//
// Bit-identity contract: update(delta) produces exactly the result of
// transforming the base annotation with `delta` and running analyze()
// on it — same arithmetic, same operation order, so equal bit
// patterns.
#pragma once

#include <cstdint>
#include <vector>

#include "timing/delay_delta.hpp"
#include "timing/delay_model.hpp"
#include "timing/sta.hpp"

namespace fastmon {

class StaEngine {
public:
    /// What update()/analyze() keep current.  Arrivals computes only
    /// max/min arrival times plus the critical path / clock period —
    /// the lifetime-monitor hot path; downstream and path_through stay
    /// zero.  Full additionally maintains the backward pass (required
    /// by fault classification and monitor placement).
    enum class Scope : std::uint8_t { Arrivals, Full };

    struct Stats {
        /// analyze() calls plus the first update() after construction,
        /// rebase(), take_result() or a cancelled pass.
        std::uint64_t full_passes = 0;
        std::uint64_t dense_updates = 0;  ///< every other update()
        std::uint64_t rebases = 0;
    };

    /// `base` must outlive the engine (or be replaced via rebase()).
    StaEngine(const Netlist& netlist, const DelayAnnotation& base,
              double clock_margin = 1.05, Scope scope = Scope::Full);

    StaEngine(const StaEngine&) = delete;
    StaEngine& operator=(const StaEngine&) = delete;
    /// Moves transfer the arenas and null the source's netlist_/base_
    /// pointers and valid_ flag (a defaulted move would leave them
    /// pointing at live objects next to empty arenas and a stale
    /// result_).  A moved-from engine may only be destroyed or
    /// assigned to; valid() reports false on it.
    StaEngine(StaEngine&& other) noexcept;
    StaEngine& operator=(StaEngine&& other) noexcept;

    /// Retargets the engine to another annotation of the *same* netlist,
    /// reusing every internal arena.  Invalidates the cached result.
    void rebase(const DelayAnnotation& base);

    /// Full from-scratch pass over the unmodified base annotation.
    const StaResult& analyze();

    /// Result of STA over base transformed by `delta` (deltas are
    /// absolute with respect to the base, not cumulative).  Bit-identical
    /// to `StaEngine(nl, base.transformed(delta), ...).analyze()`.
    const StaResult& update(const DelayDelta& delta);

    /// Last computed result.  Valid after analyze()/update() returned
    /// normally; a cancellation mid-pass leaves it stale until the next
    /// successful pass.
    [[nodiscard]] const StaResult& result() const { return result_; }

    /// Moves the result out (the compatibility path for code that wants
    /// an owned StaResult).  The engine needs a fresh analyze()/update()
    /// afterwards.
    [[nodiscard]] StaResult take_result();

    [[nodiscard]] const Netlist& netlist() const { return *netlist_; }
    [[nodiscard]] double clock_margin() const { return margin_; }
    [[nodiscard]] Scope scope() const { return scope_; }
    [[nodiscard]] const Stats& stats() const { return stats_; }
    /// False after construction-from / assignment-from this engine
    /// (moved-from state) and between a cancelled pass and the next
    /// successful one; result() is only meaningful when true.
    [[nodiscard]] bool valid() const { return valid_; }

private:
    void load_base(const DelayAnnotation& base);
    /// Rebuilds the current arc arrays: base copy, then `delta` in its
    /// application order.
    void apply_delta(const DelayDelta& delta);
    void full_forward();
    void full_backward();
    void refresh_path_through();
    void refresh_clock();
    void poll_cancel();

    const Netlist* netlist_;
    const DelayAnnotation* base_;
    double margin_;
    Scope scope_;

    /// Flattened arc layout (same shape as DelayAnnotation): per-gate
    /// start offset into the max/min arrays.
    std::vector<std::uint32_t> offset_;
    /// Flattened traversal structure (the forward passes are the
    /// campaign's innermost loop; per-gate vector indirection through
    /// Netlist costs more than the arithmetic):
    std::vector<GateId> topo_;           ///< topological order copy
    std::vector<std::uint8_t> is_source_;  ///< Input or Dff (arrival 0)
    std::vector<GateId> fanin_flat_;     ///< arc-aligned driver ids
    std::vector<Time> base_max_, base_min_;  ///< per arc: max/min(rise, fall)
    std::vector<Time> arc_max_, arc_min_;    ///< base transformed by the delta

    StaResult result_;
    bool valid_ = false;
    Stats stats_;
    std::size_t poll_counter_ = 0;
};

}  // namespace fastmon
