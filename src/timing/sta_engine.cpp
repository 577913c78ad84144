#include "timing/sta_engine.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "util/cancel.hpp"

namespace fastmon {

namespace {

// Arrival times admit no partial result, so a cancelled pass throws
// CancelledError; the flow records the phase as skipped.  Polling at a
// stride keeps even the relaxed load off the per-gate path.
constexpr std::size_t kCancelStride = 4096;

}  // namespace

StaEngine::StaEngine(const Netlist& netlist, const DelayAnnotation& base,
                     double clock_margin, Scope scope)
    : netlist_(&netlist), base_(&base), margin_(clock_margin), scope_(scope) {
    assert(netlist.finalized());
    const std::size_t n = netlist.size();
    offset_.resize(n + 1);
    std::uint32_t cursor = 0;
    for (GateId id = 0; id < n; ++id) {
        offset_[id] = cursor;
        cursor += static_cast<std::uint32_t>(netlist.gate(id).fanin.size());
    }
    offset_[n] = cursor;
    base_max_.resize(cursor);
    base_min_.resize(cursor);
    arc_max_.resize(cursor);
    arc_min_.resize(cursor);
    const auto order = netlist.topo_order();
    topo_.assign(order.begin(), order.end());
    is_source_.resize(n);
    fanin_flat_.resize(cursor);
    for (GateId id = 0; id < n; ++id) {
        const Gate& g = netlist.gate(id);
        is_source_[id] =
            g.type == CellType::Input || g.type == CellType::Dff ? 1 : 0;
        for (std::uint32_t pin = 0; pin < g.fanin.size(); ++pin) {
            fanin_flat_[offset_[id] + pin] = g.fanin[pin];
        }
    }
    result_.max_arrival.assign(n, 0.0);
    result_.min_arrival.assign(n, 0.0);
    result_.downstream.assign(n, 0.0);
    result_.path_through.assign(n, 0.0);
    load_base(base);
}

StaEngine::StaEngine(StaEngine&& other) noexcept
    : netlist_(std::exchange(other.netlist_, nullptr)),
      base_(std::exchange(other.base_, nullptr)),
      margin_(other.margin_),
      scope_(other.scope_),
      offset_(std::move(other.offset_)),
      topo_(std::move(other.topo_)),
      is_source_(std::move(other.is_source_)),
      fanin_flat_(std::move(other.fanin_flat_)),
      base_max_(std::move(other.base_max_)),
      base_min_(std::move(other.base_min_)),
      arc_max_(std::move(other.arc_max_)),
      arc_min_(std::move(other.arc_min_)),
      result_(std::move(other.result_)),
      valid_(std::exchange(other.valid_, false)),
      stats_(other.stats_),
      poll_counter_(other.poll_counter_) {}

StaEngine& StaEngine::operator=(StaEngine&& other) noexcept {
    if (this == &other) return *this;
    netlist_ = std::exchange(other.netlist_, nullptr);
    base_ = std::exchange(other.base_, nullptr);
    margin_ = other.margin_;
    scope_ = other.scope_;
    offset_ = std::move(other.offset_);
    topo_ = std::move(other.topo_);
    is_source_ = std::move(other.is_source_);
    fanin_flat_ = std::move(other.fanin_flat_);
    base_max_ = std::move(other.base_max_);
    base_min_ = std::move(other.base_min_);
    arc_max_ = std::move(other.arc_max_);
    arc_min_ = std::move(other.arc_min_);
    result_ = std::move(other.result_);
    valid_ = std::exchange(other.valid_, false);
    stats_ = other.stats_;
    poll_counter_ = other.poll_counter_;
    return *this;
}

void StaEngine::load_base(const DelayAnnotation& base) {
    assert(base.num_gates() == netlist_->size());
    base_ = &base;
    for (GateId id = 0; id < netlist_->size(); ++id) {
        const Gate& g = netlist_->gate(id);
        const std::uint32_t start = offset_[id];
        for (std::uint32_t pin = 0; pin < g.fanin.size(); ++pin) {
            const PinDelay d = base.arc(id, pin);
            base_max_[start + pin] = std::max(d.rise, d.fall);
            base_min_[start + pin] = std::min(d.rise, d.fall);
        }
    }
    valid_ = false;
}

void StaEngine::rebase(const DelayAnnotation& base) {
    load_base(base);
    ++stats_.rebases;
}

void StaEngine::apply_delta(const DelayDelta& delta) {
    std::copy(base_max_.begin(), base_max_.end(), arc_max_.begin());
    std::copy(base_min_.begin(), base_min_.end(), arc_min_.begin());
    // Entry-order application.  Entries of distinct gates are
    // independent, so per-entry processing preserves the order that
    // matters (multiple entries on one gate).
    for (const DelayDelta::GateScale& s : delta.scales) {
        for (std::uint32_t i = offset_[s.gate]; i < offset_[s.gate + 1]; ++i) {
            arc_max_[i] *= s.factor;
            arc_min_[i] *= s.factor;
        }
    }
    for (const DelayDelta::ArcExtra& e : delta.extras) {
        if (e.pin == DelayDelta::kAllPins) {
            for (std::uint32_t i = offset_[e.gate]; i < offset_[e.gate + 1];
                 ++i) {
                arc_max_[i] += e.extra;
                arc_min_[i] += e.extra;
            }
        } else {
            const std::uint32_t i = offset_[e.gate] + e.pin;
            arc_max_[i] += e.extra;
            arc_min_[i] += e.extra;
        }
    }
}

void StaEngine::poll_cancel() {
    if (++poll_counter_ % kCancelStride == 0) {
        CancelToken::global().throw_if_cancelled();
    }
}

void StaEngine::full_forward() {
    const std::size_t n = netlist_->size();
    // resize, not assign: the loop writes every entry.
    result_.max_arrival.resize(n);
    result_.min_arrival.resize(n);
    Time* const arr_max = result_.max_arrival.data();
    Time* const arr_min = result_.min_arrival.data();
    const Time* const dly_max = arc_max_.data();
    const Time* const dly_min = arc_min_.data();
    const GateId* const fanin = fanin_flat_.data();
    const std::uint32_t* const offset = offset_.data();
    // Cancellation poll batched per pass (the tight loop stays pure);
    // the amortized cadence matches the per-node stride.
    poll_counter_ += topo_.size();
    if (poll_counter_ >= kCancelStride) {
        poll_counter_ = 0;
        CancelToken::global().throw_if_cancelled();
    }
    for (const GateId id : topo_) {
        if (is_source_[id]) {
            // Launch edge: sources switch at t = 0.
            arr_max[id] = 0.0;
            arr_min[id] = 0.0;
            continue;
        }
        Time amax = 0.0;
        Time amin = std::numeric_limits<Time>::max();
        const std::uint32_t start = offset[id];
        const std::uint32_t end = offset[id + 1];
        for (std::uint32_t i = start; i < end; ++i) {
            const GateId f = fanin[i];
            amax = std::max(amax, arr_max[f] + dly_max[i]);
            amin = std::min(amin, arr_min[f] + dly_min[i]);
        }
        arr_max[id] = amax;
        arr_min[id] = amin == std::numeric_limits<Time>::max() ? 0.0 : amin;
    }
}

void StaEngine::full_backward() {
    const std::size_t n = netlist_->size();
    result_.downstream.resize(n);
    const auto order = netlist_->topo_order();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        poll_cancel();
        const GateId id = *it;
        const Gate& g = netlist_->gate(id);
        Time best = std::numeric_limits<Time>::lowest();
        bool observed = false;
        for (GateId out : g.fanout) {
            const Gate& og = netlist_->gate(out);
            if (og.type == CellType::Output || og.type == CellType::Dff) {
                best = std::max(best, 0.0);
                observed = true;
                continue;
            }
            // Which pin of `out` does `id` drive?  (A gate may appear on
            // several pins; take the slowest arc.)
            const std::uint32_t start = offset_[out];
            for (std::uint32_t pin = 0; pin < og.fanin.size(); ++pin) {
                if (og.fanin[pin] != id) continue;
                best = std::max(best,
                                arc_max_[start + pin] + result_.downstream[out]);
                observed = true;
            }
        }
        result_.downstream[id] = observed ? best : 0.0;
    }
}

void StaEngine::refresh_path_through() {
    const std::size_t n = netlist_->size();
    result_.path_through.resize(n);
    for (GateId id = 0; id < n; ++id) {
        result_.path_through[id] =
            result_.max_arrival[id] + result_.downstream[id];
    }
}

void StaEngine::refresh_clock() {
    Time cpl = 0.0;
    for (const ObservePoint& op : netlist_->observe_points()) {
        cpl = std::max(cpl, result_.max_arrival[op.signal]);
    }
    result_.critical_path_length = cpl;
    result_.clock_period = margin_ * cpl;
}

const StaResult& StaEngine::analyze() {
    valid_ = false;  // counted as a full pass
    return update(DelayDelta{});
}

const StaResult& StaEngine::update(const DelayDelta& delta) {
    // Every update is a whole-circuit pass: the campaign's aging delta
    // scales every combinational gate every year, so there is no cone
    // to restrict re-propagation to.
    const bool full = !valid_;
    valid_ = false;
    if (full) poll_counter_ = 0;
    apply_delta(delta);
    full_forward();
    if (scope_ == Scope::Full) {
        full_backward();
        refresh_path_through();
    } else {
        // No-ops unless take_result() emptied the arenas.
        result_.downstream.resize(netlist_->size());
        result_.path_through.resize(netlist_->size());
    }
    refresh_clock();
    ++(full ? stats_.full_passes : stats_.dense_updates);
    valid_ = true;
    return result_;
}

StaResult StaEngine::take_result() {
    StaResult out = std::move(result_);
    result_ = StaResult{};
    valid_ = false;
    return out;
}

}  // namespace fastmon
