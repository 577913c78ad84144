// Batched structure-of-arrays static timing analysis.
//
// StaEngine made the lifetime campaign fast per *device*;
// BatchStaEngine makes it fast per *population*.  One engine
// propagates kBatchWidth devices ("lanes") per topological pass: the
// flattened traversal structure (topo order, fanin ids, arc offsets)
// and the base arc delays are shared once per netlist, while every
// per-lane quantity is a [gate][lane] column — kBatchWidth contiguous
// doubles per gate — so the innermost max/add reduction is a
// fixed-trip-count lane loop the compiler auto-vectorizes (AVX2 on
// x86, plain scalar code elsewhere; no intrinsics).
//
// Fused pass: no per-arc lane column is ever materialized.  The
// forward pass computes each arc delay in its pin loop as
// (base[arc] * variation[gate][lane]) * aging[gate][lane], then adds
// the lane's defect extras on that arc in entry order (only for the
// few gates an update flags as carrying one).  These are the scalar
// engine's load + scale + extra operations in the scalar order, so the
// per-lane working set is three [gate][lane] columns instead of two
// [arc][lane] ones on top of the arrivals.
//
// Bit-identity contract: the per-lane operation order is exactly the
// scalar StaEngine's — lanes are independent columns, the pin loop
// stays outermost, and the max reduction runs in the same order — so a
// lane's max arrivals are bit-for-bit equal to a scalar engine
// evaluating that device alone.  Campaign outcomes therefore match the
// scalar reference exactly; the documented <= 4 ulp tolerance of the
// scalar-vs-batched differential is headroom for platforms whose
// vectorizer contracts a+b*c into FMA (none of the supported
// -ffp-contract=off / default GCC x86 configurations do for this
// code), not an accepted slack on this implementation.
//
// Lane lifecycle: load_lane() points a lane at one device (its
// per-gate process-variation factors, without materializing a
// per-device DelayAnnotation), update() advances every active lane by
// its own DelayDelta, and retire_lane() parks a finished/failed
// device — the column keeps computing (the lane loop stays
// branch-free) but its values are no longer meaningful and its delta
// slot may stay null.  A lane can be re-loaded for the next device at
// any time without draining the rest of the batch; BatchRollout does
// so the moment a device settles.
//
// The engine maintains max arrival times only (the campaign hot path
// evaluates nothing else; halving the per-arc work against a min/max
// pair is most of the batch speedup on small circuits); monitor
// placement and fault classification keep using the scalar
// Scope::Full engine.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "timing/delay_delta.hpp"
#include "timing/delay_model.hpp"

namespace fastmon {

// Column width (devices per topological pass).  Runtime batch sizes
// smaller than this simply leave the trailing lanes retired; width 1
// at runtime selects the scalar StaEngine reference path instead.
inline constexpr std::size_t kBatchWidth = 8;

/// Per-lane deltas of one batched update.  A null slot means "no
/// change requested" and is only legal for retired lanes; every active
/// lane must carry a delta (possibly without scales or extras, meaning
/// "revert to the lane base").  Deltas are absolute with respect to
/// each lane's base, exactly like StaEngine::update.
///
/// Shape precondition: every non-null lane scales the same gate list,
/// strictly ascending by id — the shape DeviceDegradation always
/// produces (all combinational gates in id order).  Factors and extras
/// are free per lane.  Checked by asserts in debug builds, trusted in
/// release.
struct BatchDelayDelta {
    std::array<const DelayDelta*, kBatchWidth> lanes{};

    void clear() { lanes.fill(nullptr); }
    void set(std::size_t lane, const DelayDelta* delta) {
        assert(lane < kBatchWidth);
        lanes[lane] = delta;
    }
};

class BatchStaEngine {
public:
    struct Stats {
        std::uint64_t batch_passes = 0;   ///< full SoA forward passes
        std::uint64_t lane_updates = 0;   ///< active lanes summed over updates
        std::uint64_t lane_loads = 0;
        std::uint64_t lanes_retired = 0;
    };

    /// `base` is the *shared* base annotation (the campaign's nominal
    /// delays); per-device silicon is loaded per lane via load_lane().
    BatchStaEngine(const Netlist& netlist, const DelayAnnotation& base,
                   double clock_margin = 1.0);

    BatchStaEngine(const BatchStaEngine&) = delete;
    BatchStaEngine& operator=(const BatchStaEngine&) = delete;

    [[nodiscard]] static constexpr std::size_t width() { return kBatchWidth; }

    /// Points `lane` at a device whose arc delays are the shared base
    /// scaled by a per-gate factor (factors[gate] applies to every arc
    /// of the gate; 1.0 leaves it at base).  This is the columnar
    /// equivalent of DelayAnnotation::with_lognormal_variation + rebase
    /// without materializing the annotation: max over (rise, fall)
    /// commutes bit-for-bit with the positive per-gate scaling.  Only
    /// the lane's variation column is written; the arc products are
    /// formed in the forward pass.  (Re)activates the lane.
    void load_lane(std::size_t lane, std::span<const double> gate_factors);

    /// Parks a lane: it stops accepting deltas (its BatchDelayDelta
    /// slot may be null) and its results become meaningless until the
    /// next load_lane.  The batch keeps running full-width.
    void retire_lane(std::size_t lane);

    [[nodiscard]] bool lane_active(std::size_t lane) const {
        assert(lane < kBatchWidth);
        return active_[lane] != 0;
    }
    [[nodiscard]] std::size_t active_lanes() const;

    /// Advances every active lane to base-transformed-by-its-delta and
    /// recomputes arrivals for the whole batch in one topological
    /// pass.
    void update(const BatchDelayDelta& batch);

    /// Latest arrival of `gate` in `lane` after the last update().
    [[nodiscard]] Time max_arrival(GateId gate, std::size_t lane) const {
        return arr_max_[static_cast<std::size_t>(gate) * kBatchWidth + lane];
    }
    /// Raw column storage, indexed [gate * width() + lane] — the
    /// evaluation loops of the batch rollout read rows of this.
    [[nodiscard]] const Time* max_arrival_data() const {
        return arr_max_.data();
    }
    [[nodiscard]] Time critical_path_length(std::size_t lane) const {
        return cpl_[lane];
    }
    [[nodiscard]] Time clock_period(std::size_t lane) const {
        return clock_[lane];
    }

    [[nodiscard]] const Netlist& netlist() const { return *netlist_; }
    [[nodiscard]] double clock_margin() const { return margin_; }
    [[nodiscard]] const Stats& stats() const { return stats_; }

private:
    /// One lane's defect extra, grouped by gate for the forward pass.
    struct LaneExtra {
        GateId gate;
        std::uint32_t pin;
        std::size_t lane;
        Time extra;
    };
    static constexpr std::uint32_t kNoExtra = 0xFFFFFFFF;

    void load_deltas(const BatchDelayDelta& batch);
    void forward();
    void refresh_clock();
    void poll_cancel();

    const Netlist* netlist_;
    double margin_;

    /// Shared flattened traversal structure (one copy per netlist,
    /// amortized over every lane and every year).
    std::vector<std::uint32_t> offset_;
    std::vector<GateId> topo_;
    std::vector<std::uint8_t> is_source_;
    std::vector<GateId> fanin_flat_;

    /// Shared base arc delays (max over rise/fall), one per arc.
    std::vector<Time> base_max_;
    /// Columnar per-lane state, [gate * kBatchWidth + lane]: the
    /// loaded variation factor, this update's aging factor (1.0 for
    /// unscaled gates and null lanes), and the max arrival.
    std::vector<double> variation_;
    std::vector<double> aging_;
    std::vector<Time> arr_max_;
    /// This update's extras of every non-null lane, sorted by gate
    /// (lane-major and entry order within a gate), and per gate the
    /// index of its first extra or kNoExtra.
    std::vector<LaneExtra> extras_;
    std::vector<std::uint32_t> first_extra_;
    std::array<Time, kBatchWidth> cpl_{};
    std::array<Time, kBatchWidth> clock_{};

    std::array<std::uint8_t, kBatchWidth> active_{};

    Stats stats_;
    std::size_t poll_counter_ = 0;
};

}  // namespace fastmon
