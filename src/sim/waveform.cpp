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
    w.assign_events(initial, events);
    return w;
}

void Waveform::assign_events(bool initial,
                             std::span<const std::pair<Time, bool>> events) {
    initial_ = initial;
    transitions_.clear();
    bool value = initial;
    for (const auto& [t, v] : events) {
        if (v == value) continue;
        // A toggle landing at (or before) the previous one cancels it
        // (the later-scheduled value wins at equal times).
        if (!transitions_.empty() && t <= transitions_.back() + kTimeEps) {
            transitions_.pop_back();
        } else {
            transitions_.push_back(t);
        }
        value = v;
    }
}

bool Waveform::value_at(Time t) const {
    const auto it = std::upper_bound(transitions_.begin(), transitions_.end(),
                                     t + kTimeEps);
    const auto toggles = static_cast<std::size_t>(it - transitions_.begin());
    return (toggles % 2 == 0) ? initial_ : !initial_;
}

void Waveform::filter_pulses(Time min_width) {
    if (min_width <= 0.0 || transitions_.size() < 2) return;
    // Stack compaction in place: transitions_[0, kept) is the surviving
    // prefix, and kept never overtakes the read index.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < transitions_.size(); ++i) {
        const Time t = transitions_[i];
        if (kept != 0 && t - transitions_[kept - 1] < min_width - kTimeEps) {
            --kept;  // the pulse [back, t) is swallowed
        } else {
            transitions_[kept++] = t;
        }
    }
    transitions_.resize(kept);
}

Waveform Waveform::with_slowed_edges(bool rising, Time delta) const {
    Waveform w;
    w.assign_slowed(*this, rising, delta);
    return w;
}

void Waveform::assign_slowed(const Waveform& src, bool rising, Time delta) {
    // Delay the affected edge direction; when a delayed edge is
    // overtaken by its successor, the pulse between them is swallowed
    // (a delay element cannot emit an end-of-pulse before the pulse
    // started).  Classic edge-cancellation stack: edges arrive in the
    // original order; an edge landing at or before the previous
    // surviving edge cancels it, removing the pulse pair.
    initial_ = src.initial_;
    transitions_.clear();
    bool value = src.initial_;
    for (Time t : src.transitions_) {
        value = !value;
        const Time shifted = value == rising ? t + delta : t;
        if (!transitions_.empty() &&
            shifted <= transitions_.back() + kTimeEps) {
            transitions_.pop_back();
        } else {
            transitions_.push_back(shifted);
        }
    }
}

Waveform Waveform::xor_of(const Waveform& a, const Waveform& b) {
    // XOR toggles whenever either operand toggles; simultaneous toggles
    // cancel.
    Waveform w;
    w.initial_ = a.initial_ != b.initial_;
    w.transitions_.reserve(a.transitions_.size() + b.transitions_.size());
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.transitions_.size() || j < b.transitions_.size()) {
        Time t = 0.0;
        if (j == b.transitions_.size()) {
            t = a.transitions_[i++];
        } else if (i == a.transitions_.size()) {
            t = b.transitions_[j++];
        } else if (std::abs(a.transitions_[i] - b.transitions_[j]) <= kTimeEps) {
            // Simultaneous toggles in both operands: XOR unchanged.
            ++i;
            ++j;
            continue;
        } else if (a.transitions_[i] < b.transitions_[j]) {
            t = a.transitions_[i++];
        } else {
            t = b.transitions_[j++];
        }
        w.transitions_.push_back(t);
    }
    return w;
}

IntervalSet Waveform::ones(Time horizon) const {
    IntervalSet s;
    bool value = initial_;
    Time start = value ? 0.0 : -1.0;
    for (Time t : transitions_) {
        if (t >= horizon) break;
        value = !value;
        if (value) {
            start = std::max(t, 0.0);
        } else if (start >= 0.0) {
            s.add(start, t);
            start = -1.0;
        }
    }
    if (value && start >= 0.0 && start < horizon) {
        s.add(start, horizon);
    }
    return s;
}

}  // namespace fastmon
