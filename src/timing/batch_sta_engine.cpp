#include "timing/batch_sta_engine.hpp"

#include <algorithm>

#include "util/cancel.hpp"

namespace fastmon {

namespace {

constexpr std::size_t kCancelStride = 4096;

}  // namespace

BatchStaEngine::BatchStaEngine(const Netlist& netlist,
                               const DelayAnnotation& base,
                               double clock_margin)
    : netlist_(&netlist), margin_(clock_margin) {
    assert(netlist.finalized());
    const std::size_t n = netlist.size();
    offset_.resize(n + 1);
    std::uint32_t cursor = 0;
    for (GateId id = 0; id < n; ++id) {
        offset_[id] = cursor;
        cursor += static_cast<std::uint32_t>(netlist.gate(id).fanin.size());
    }
    offset_[n] = cursor;
    const auto order = netlist.topo_order();
    topo_.assign(order.begin(), order.end());
    is_source_.resize(n);
    fanin_flat_.resize(cursor);
    base_max_.resize(cursor);
    for (GateId id = 0; id < n; ++id) {
        const Gate& g = netlist.gate(id);
        is_source_[id] =
            g.type == CellType::Input || g.type == CellType::Dff ? 1 : 0;
        const std::uint32_t start = offset_[id];
        for (std::uint32_t pin = 0; pin < g.fanin.size(); ++pin) {
            fanin_flat_[start + pin] = g.fanin[pin];
            const PinDelay d = base.arc(id, pin);
            base_max_[start + pin] = std::max(d.rise, d.fall);
        }
    }
    // Every lane starts inactive at the shared base.
    variation_.assign(n * kBatchWidth, 1.0);
    aging_.assign(n * kBatchWidth, 1.0);
    arr_max_.assign(n * kBatchWidth, 0.0);
    first_extra_.assign(n, kNoExtra);
}

void BatchStaEngine::load_lane(std::size_t lane,
                               std::span<const double> gate_factors) {
    assert(lane < kBatchWidth);
    assert(gate_factors.size() == netlist_->size());
    const std::size_t n = netlist_->size();
    for (std::size_t id = 0; id < n; ++id) {
        variation_[id * kBatchWidth + lane] = gate_factors[id];
    }
    active_[lane] = 1;
    ++stats_.lane_loads;
}

void BatchStaEngine::retire_lane(std::size_t lane) {
    assert(lane < kBatchWidth);
    if (active_[lane]) {
        active_[lane] = 0;
        ++stats_.lanes_retired;
    }
}

std::size_t BatchStaEngine::active_lanes() const {
    std::size_t count = 0;
    for (std::uint8_t a : active_) count += a;
    return count;
}

void BatchStaEngine::poll_cancel() {
    // Batched per update (the inner loops stay pure); the amortized
    // cadence matches the scalar engine's per-node stride.
    poll_counter_ += topo_.size();
    if (poll_counter_ >= kCancelStride) {
        poll_counter_ = 0;
        CancelToken::global().throw_if_cancelled();
    }
}

// Transposes the lane deltas into the [gate][lane] aging column and
// groups their extras by gate.  Every non-null lane scales the same
// ascending gate list (BatchDelayDelta), so the first non-null lane's
// entries drive one merge-walk over the gates and each lane's column
// still sees its own factors; unscaled gates and null (retired) lanes
// get 1.0, and b * 1.0 == b bitwise.
void BatchStaEngine::load_deltas(const BatchDelayDelta& batch) {
    const DelayDelta* shape = nullptr;
    for (std::size_t l = 0; l < kBatchWidth && !shape; ++l) {
        shape = batch.lanes[l];
    }
#ifndef NDEBUG
    for (std::size_t l = 0; l < kBatchWidth; ++l) {
        const DelayDelta* d = batch.lanes[l];
        if (!d) continue;
        assert(d->scales.size() == shape->scales.size());
        for (std::size_t j = 0; j < shape->scales.size(); ++j) {
            assert(d->scales[j].gate == shape->scales[j].gate);
            assert(j == 0 ||
                   shape->scales[j].gate > shape->scales[j - 1].gate);
        }
    }
#endif
    const std::size_t n = netlist_->size();
    const std::size_t ns = shape ? shape->scales.size() : 0;
    std::size_t j = 0;
    for (GateId g = 0; g < n; ++g) {
        double* const row = aging_.data() + std::size_t{g} * kBatchWidth;
        const bool scaled = j < ns && shape->scales[j].gate == g;
        for (std::size_t l = 0; l < kBatchWidth; ++l) {
            const DelayDelta* d = batch.lanes[l];
            row[l] = scaled && d ? d->scales[j].factor : 1.0;
        }
        j += scaled ? 1 : 0;
    }
    assert(j == ns);

    for (const LaneExtra& e : extras_) first_extra_[e.gate] = kNoExtra;
    extras_.clear();
    for (std::size_t l = 0; l < kBatchWidth; ++l) {
        const DelayDelta* d = batch.lanes[l];
        if (!d) continue;
        for (const DelayDelta::ArcExtra& e : d->extras) {
            extras_.push_back(LaneExtra{e.gate, e.pin, l, e.extra});
        }
    }
    // Stable: a lane's extras on one gate keep their entry order.
    std::stable_sort(extras_.begin(), extras_.end(),
                     [](const LaneExtra& x, const LaneExtra& y) {
                         return x.gate < y.gate;
                     });
    for (std::size_t k = extras_.size(); k-- > 0;) {
        first_extra_[extras_[k].gate] = static_cast<std::uint32_t>(k);
    }
}

void BatchStaEngine::forward() {
    Time* const arr_max = arr_max_.data();
    const Time* const base = base_max_.data();
    const GateId* const fanin = fanin_flat_.data();
    const std::uint32_t* const offset = offset_.data();
    for (const GateId id : topo_) {
        const std::size_t row = static_cast<std::size_t>(id) * kBatchWidth;
        Time* const out_max = arr_max + row;
        if (is_source_[id]) {
            for (std::size_t l = 0; l < kBatchWidth; ++l) out_max[l] = 0.0;
            continue;
        }
        // Pin loop outer, lane loop inner: each lane sees the arcs in
        // the scalar engine's order, and the inner loop is a
        // fixed-trip-count mul/add/max the compiler turns into vector
        // code.  Arc delay = (base * variation) * aging, the product
        // order of the scalar engine's load and scale.
        const double* const vf = variation_.data() + row;
        const double* const af = aging_.data() + row;
        Time amax[kBatchWidth];
        for (std::size_t l = 0; l < kBatchWidth; ++l) amax[l] = 0.0;
        const std::uint32_t start = offset[id];
        const std::uint32_t end = offset[id + 1];
        const std::uint32_t first = first_extra_[id];
        if (first == kNoExtra) {
            for (std::uint32_t i = start; i < end; ++i) {
                const Time* const f_max =
                    arr_max + static_cast<std::size_t>(fanin[i]) * kBatchWidth;
                const Time b = base[i];
                // Kept a loop for the vectorizer: fully unrolled first,
                // GCC emits the lanes as scalar max code.
#pragma GCC unroll 1
                for (std::size_t l = 0; l < kBatchWidth; ++l) {
                    amax[l] = std::max(amax[l], f_max[l] + (b * vf[l]) * af[l]);
                }
            }
        } else {
            // Defect gate: the scaled delay, then the lane's extras on
            // this arc in entry order.
            for (std::uint32_t i = start; i < end; ++i) {
                const Time* const f_max =
                    arr_max + static_cast<std::size_t>(fanin[i]) * kBatchWidth;
                const Time b = base[i];
                Time d[kBatchWidth];
                for (std::size_t l = 0; l < kBatchWidth; ++l) {
                    d[l] = (b * vf[l]) * af[l];
                }
                const std::uint32_t pin = i - start;
                for (std::size_t k = first;
                     k < extras_.size() && extras_[k].gate == id; ++k) {
                    const LaneExtra& e = extras_[k];
                    if (e.pin == DelayDelta::kAllPins || e.pin == pin) {
                        d[e.lane] += e.extra;
                    }
                }
                for (std::size_t l = 0; l < kBatchWidth; ++l) {
                    amax[l] = std::max(amax[l], f_max[l] + d[l]);
                }
            }
        }
        for (std::size_t l = 0; l < kBatchWidth; ++l) out_max[l] = amax[l];
    }
}

void BatchStaEngine::refresh_clock() {
    std::array<Time, kBatchWidth> cpl{};
    for (const ObservePoint& op : netlist_->observe_points()) {
        const Time* const row =
            arr_max_.data() + static_cast<std::size_t>(op.signal) * kBatchWidth;
        for (std::size_t l = 0; l < kBatchWidth; ++l) {
            cpl[l] = std::max(cpl[l], row[l]);
        }
    }
    for (std::size_t l = 0; l < kBatchWidth; ++l) {
        cpl_[l] = cpl[l];
        clock_[l] = margin_ * cpl[l];
    }
}

void BatchStaEngine::update(const BatchDelayDelta& batch) {
    std::size_t active = 0;
    for (std::size_t l = 0; l < kBatchWidth; ++l) {
        if (!active_[l]) continue;
        // Every active lane must carry a delta (BatchDelayDelta doc).
        assert(batch.lanes[l] != nullptr);
        ++active;
    }
    if (active == 0) return;
    poll_cancel();
    load_deltas(batch);
    forward();
    refresh_clock();
    ++stats_.batch_passes;
    stats_.lane_updates += active;
}

}  // namespace fastmon
