// Signal waveforms for timing-accurate simulation.
//
// A Waveform is an initial logic value plus a strictly increasing list
// of toggle times — the representation used by waveform-based delay
// fault simulators such as the GPU engine the paper builds on [20].
// Detection ranges fall out of waveform algebra: XOR the fault-free and
// faulty output waveforms and take the regions where the XOR is 1
// (Sec. III-B).
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "util/interval.hpp"

namespace fastmon {

class Waveform {
public:
    /// Constant signal.
    static Waveform constant(bool value);

    /// Signal with initial value `initial` toggling once at time t.
    static Waveform step(bool initial, Time t);

    /// Builds a waveform from (time, value-after-event) pairs sorted by
    /// time (ties allowed; later entries win).  Events that do not change
    /// the value are dropped.
    static Waveform from_events(bool initial,
                                std::span<const std::pair<Time, bool>> events);

    /// Buffer-reusing form of from_events: overwrites this waveform,
    /// keeping the capacity of its transition buffer.
    void assign_events(bool initial,
                       std::span<const std::pair<Time, bool>> events);

    [[nodiscard]] bool initial() const { return initial_; }
    [[nodiscard]] bool final() const {
        return (transitions_.size() % 2 == 0) == initial_;
    }

    /// Value at time t; a transition at exactly t is already visible.
    [[nodiscard]] bool value_at(Time t) const;

    [[nodiscard]] std::size_t num_transitions() const { return transitions_.size(); }
    [[nodiscard]] std::span<const Time> transitions() const { return transitions_; }
    [[nodiscard]] bool is_constant() const { return transitions_.empty(); }

    /// Time of the last transition (0 if constant).
    [[nodiscard]] Time settle_time() const {
        return transitions_.empty() ? 0.0 : transitions_.back();
    }

    /// Inertial pulse filtering: repeatedly cancels adjacent transition
    /// pairs closer than min_width, modelling pulses swallowed by the
    /// gate's output stage.  Works in place (no allocation).
    void filter_pulses(Time min_width);

    /// Shifts every transition of the given direction (rising if
    /// `rising`) right by delta, then renormalizes — the waveform-level
    /// manifestation of a slow-to-rise / slow-to-fall small delay fault
    /// of size delta at this signal.
    [[nodiscard]] Waveform with_slowed_edges(bool rising, Time delta) const;

    /// Buffer-reusing form of with_slowed_edges: this waveform becomes
    /// `src.with_slowed_edges(rising, delta)`.  `src` must not be *this.
    void assign_slowed(const Waveform& src, bool rising, Time delta);

    /// Pointwise XOR of two waveforms.
    static Waveform xor_of(const Waveform& a, const Waveform& b);

    /// Regions where the waveform is 1, clipped to [0, horizon).
    [[nodiscard]] IntervalSet ones(Time horizon) const;

    friend bool operator==(const Waveform& a, const Waveform& b) = default;

private:
    bool initial_ = false;
    std::vector<Time> transitions_;
};

}  // namespace fastmon
