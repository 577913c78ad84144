#include "sim/waveform.hpp"

#include <algorithm>
#include <cmath>

namespace fastmon {

Waveform Waveform::constant(bool value) {
    Waveform w;
    w.initial_ = value;
    return w;
}

Waveform Waveform::step(bool initial, Time t) {
    Waveform w;
    w.initial_ = initial;
    w.transitions_.push_back(t);
    return w;
}

Waveform Waveform::from_events(bool initial,
                               std::span<const std::pair<Time, bool>> events) {
    Waveform w;
    w.initial_ = initial;
    bool value = initial;
    for (const auto& [t, v] : events) {
        if (v == value) continue;
        // A toggle landing at (or before) the previous one cancels it
        // (the later-scheduled value wins at equal times).
        if (!w.transitions_.empty() && t <= w.transitions_.back() + kTimeEps) {
            w.transitions_.pop_back();
        } else {
            w.transitions_.push_back(t);
        }
        value = v;
    }
    return w;
}

bool Waveform::value_at(Time t) const {
    const auto it = std::upper_bound(transitions_.begin(), transitions_.end(),
                                     t + kTimeEps);
    const auto toggles = static_cast<std::size_t>(it - transitions_.begin());
    return (toggles % 2 == 0) ? initial_ : !initial_;
}

std::size_t filter_pulses(Time* t, std::size_t n, Time min_width) {
    if (min_width <= 0.0 || n < 2) return n;
    // Stack compaction in place: t[0, kept) is the surviving prefix, and
    // kept never overtakes the read index.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Time ti = t[i];
        if (kept != 0 && ti - t[kept - 1] < min_width - kTimeEps) {
            --kept;  // the pulse [back, ti) is swallowed
        } else {
            t[kept++] = ti;
        }
    }
    return kept;
}

void Waveform::filter_pulses(Time min_width) {
    transitions_.resize(fastmon::filter_pulses(
        transitions_.data(), transitions_.size(), min_width));
}

std::size_t slow_edges(WaveView src, bool rising, Time delta, Time* out) {
    // Delay the affected edge direction; when a delayed edge is
    // overtaken by its successor, the pulse between them is swallowed
    // (a delay element cannot emit an end-of-pulse before the pulse
    // started).  Classic edge-cancellation stack: edges arrive in the
    // original order; an edge landing at or before the previous
    // surviving edge cancels it, removing the pulse pair.
    std::size_t n = 0;
    bool value = src.initial;
    for (Time t : src.transitions()) {
        value = !value;
        const Time shifted = value == rising ? t + delta : t;
        if (n != 0 && shifted <= out[n - 1] + kTimeEps) {
            --n;
        } else {
            out[n++] = shifted;
        }
    }
    return n;
}

Waveform Waveform::with_slowed_edges(bool rising, Time delta) const {
    Waveform w;
    w.initial_ = initial_;
    w.transitions_.resize(transitions_.size());
    w.transitions_.resize(
        slow_edges(view(), rising, delta, w.transitions_.data()));
    return w;
}

namespace {

/// Feeds the toggle times of XOR(a, b) to `emit`, in order: XOR toggles
/// whenever either operand toggles; simultaneous toggles cancel.
template <typename Emit>
void for_each_xor_toggle(WaveView a, WaveView b, Emit&& emit) {
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.n || j < b.n) {
        if (j == b.n) {
            emit(a.t[i++]);
        } else if (i == a.n) {
            emit(b.t[j++]);
        } else if (std::abs(a.t[i] - b.t[j]) <= kTimeEps) {
            ++i;  // simultaneous toggles in both operands: XOR unchanged
            ++j;
        } else if (a.t[i] < b.t[j]) {
            emit(a.t[i++]);
        } else {
            emit(b.t[j++]);
        }
    }
}

/// The regions where a waveform is 1, clipped to [0, horizon), from its
/// initial value and a stream of toggle times.  Regions arrive in
/// ascending order, so adding one only ever touches the last.
class OnesCollector {
public:
    OnesCollector(bool initial, Time horizon, std::vector<Interval>& out)
        : out_(out), horizon_(horizon), value_(initial),
          start_(initial ? 0.0 : -1.0) {
        out_.clear();
    }

    void toggle(Time t) {
        if (stopped_ || t >= horizon_) {
            stopped_ = true;
            return;
        }
        value_ = !value_;
        if (value_) {
            start_ = std::max(t, 0.0);
        } else if (start_ >= 0.0) {
            add(start_, t);
            start_ = -1.0;
        }
    }

    void finish() {
        if (value_ && start_ >= 0.0 && start_ < horizon_) {
            add(start_, horizon_);
        }
    }

private:
    // IntervalSet::add for an interval starting at or after every
    // stored one.
    void add(Time lo, Time hi) {
        const Interval iv{lo, hi};
        if (iv.empty()) return;
        if (!out_.empty() && out_.back().hi >= lo - kTimeEps) {
            out_.back() = Interval{std::min(lo, out_.back().lo),
                                   std::max(hi, out_.back().hi)};
        } else {
            out_.push_back(iv);
        }
    }

    std::vector<Interval>& out_;
    Time horizon_;
    bool value_;
    Time start_;
    bool stopped_ = false;
};

}  // namespace

Waveform Waveform::xor_of(const Waveform& a, const Waveform& b) {
    Waveform w;
    w.initial_ = a.initial_ != b.initial_;
    w.transitions_.reserve(a.transitions_.size() + b.transitions_.size());
    for_each_xor_toggle(a.view(), b.view(),
                        [&w](Time t) { w.transitions_.push_back(t); });
    return w;
}

void xor_ones(WaveView a, WaveView b, Time horizon,
              std::vector<Interval>& out) {
    OnesCollector ones(a.initial != b.initial, horizon, out);
    for_each_xor_toggle(a, b, [&ones](Time t) { ones.toggle(t); });
    ones.finish();
}

IntervalSet Waveform::ones(Time horizon) const {
    std::vector<Interval> ivals;
    OnesCollector collect(initial_, horizon, ivals);
    for (Time t : transitions_) collect.toggle(t);
    collect.finish();
    IntervalSet s;
    s.unite(ivals);
    return s;
}

}  // namespace fastmon
