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
    const std::size_t cols = static_cast<std::size_t>(cursor) * kBatchWidth;
    lane_base_max_.resize(cols);
    cur_max_.resize(cols);
    arr_max_.assign(n * kBatchWidth, 0.0);
    // Every lane starts at the shared base, inactive.
    for (std::size_t i = 0; i < cursor; ++i) {
        for (std::size_t l = 0; l < kBatchWidth; ++l) {
            lane_base_max_[i * kBatchWidth + l] = base_max_[i];
        }
    }
}

void BatchStaEngine::load_lane(std::size_t lane,
                               std::span<const double> gate_factors) {
    assert(lane < kBatchWidth);
    assert(gate_factors.size() == netlist_->size());
    const std::size_t n = netlist_->size();
    // Per-gate scaling of the shared base.  Scaling by a positive
    // factor is weakly monotone, so max over (rise, fall) commutes
    // with it bit-for-bit — the lane column equals what a scalar engine
    // would load from the materialized per-device annotation.
    for (GateId id = 0; id < n; ++id) {
        const double f = gate_factors[id];
        const std::uint32_t begin = offset_[id];
        const std::uint32_t end = offset_[id + 1];
        if (f == 1.0) {
            for (std::uint32_t i = begin; i < end; ++i) {
                lane_base_max_[i * kBatchWidth + lane] = base_max_[i];
            }
        } else {
            for (std::uint32_t i = begin; i < end; ++i) {
                lane_base_max_[i * kBatchWidth + lane] = base_max_[i] * f;
            }
        }
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

// Base copy and per-gate scales fused into one merge-walk over the
// gates: cur = lane_base * factor for scaled gates (the same product
// bits as copy-then-multiply), plain copies elsewhere.  Every non-null
// lane scales the same ascending gate list (BatchDelayDelta), so the
// first non-null lane's entries drive the walk and each lane's column
// still sees its own factors in entry order; null (retired) lanes
// multiply by 1.0, a bitwise copy of an unread column.  Additive
// extras follow per lane (defect structure differs per device; the
// entry counts are small).
void BatchStaEngine::apply(const BatchDelayDelta& batch) {
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
    std::array<double, kBatchWidth> factor;
    const std::size_t n = netlist_->size();
    const std::size_t ns = shape ? shape->scales.size() : 0;
    std::size_t j = 0;
    for (GateId g = 0; g < n; ++g) {
        const std::uint32_t begin = offset_[g];
        const std::uint32_t end = offset_[g + 1];
        if (j < ns && shape->scales[j].gate == g) {
            for (std::size_t l = 0; l < kBatchWidth; ++l) {
                const DelayDelta* d = batch.lanes[l];
                factor[l] = d ? d->scales[j].factor : 1.0;
            }
            ++j;
            for (std::uint32_t i = begin; i < end; ++i) {
                const Time* const bmax =
                    lane_base_max_.data() + i * kBatchWidth;
                Time* const cmax = cur_max_.data() + i * kBatchWidth;
                for (std::size_t l = 0; l < kBatchWidth; ++l) {
                    cmax[l] = bmax[l] * factor[l];
                }
            }
        } else {
            const std::size_t first = begin * kBatchWidth;
            const std::size_t count = (end - begin) * kBatchWidth;
            std::copy_n(lane_base_max_.data() + first, count,
                        cur_max_.data() + first);
        }
    }
    assert(j == ns);
    for (std::size_t l = 0; l < kBatchWidth; ++l) {
        const DelayDelta* d = batch.lanes[l];
        if (!d) continue;
        for (const DelayDelta::ArcExtra& e : d->extras) {
            const std::uint32_t begin = offset_[e.gate];
            const std::uint32_t first =
                e.pin == DelayDelta::kAllPins ? begin : begin + e.pin;
            const std::uint32_t last = e.pin == DelayDelta::kAllPins
                                           ? offset_[e.gate + 1]
                                           : begin + e.pin + 1;
            for (std::uint32_t i = first; i < last; ++i) {
                cur_max_[i * kBatchWidth + l] += e.extra;
            }
        }
    }
}

void BatchStaEngine::forward() {
    Time* const arr_max = arr_max_.data();
    const Time* const dly_max = cur_max_.data();
    const GateId* const fanin = fanin_flat_.data();
    const std::uint32_t* const offset = offset_.data();
    for (const GateId id : topo_) {
        Time* const out_max = arr_max + static_cast<std::size_t>(id) * kBatchWidth;
        if (is_source_[id]) {
            for (std::size_t l = 0; l < kBatchWidth; ++l) out_max[l] = 0.0;
            continue;
        }
        // Pin loop outer, lane loop inner: each lane sees the arcs in
        // the scalar engine's order, and the inner loop is a
        // fixed-trip-count add/max the compiler turns into vector code.
        Time amax[kBatchWidth];
        for (std::size_t l = 0; l < kBatchWidth; ++l) amax[l] = 0.0;
        const std::uint32_t start = offset[id];
        const std::uint32_t end = offset[id + 1];
        for (std::uint32_t i = start; i < end; ++i) {
            const Time* const f_max =
                arr_max + static_cast<std::size_t>(fanin[i]) * kBatchWidth;
            const Time* const d_max = dly_max + static_cast<std::size_t>(i) * kBatchWidth;
            for (std::size_t l = 0; l < kBatchWidth; ++l) {
                amax[l] = std::max(amax[l], f_max[l] + d_max[l]);
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
    apply(batch);
    forward();
    refresh_clock();
    ++stats_.batch_passes;
    stats_.lane_updates += active;
}

}  // namespace fastmon
