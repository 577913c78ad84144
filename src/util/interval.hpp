// Interval arithmetic on the observation-time axis.
//
// Detection ranges of small delay faults (Sec. II-A of the paper) are
// unions of disjoint time intervals.  IntervalSet is the canonical
// representation used throughout the library: fault simulation produces
// raw intervals from waveform XOR, pulse filtering removes glitch-sized
// intervals, monitors shift interval sets right by their delay, and the
// scheduler discretizes their endpoints into test-period candidates.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <vector>

namespace fastmon {

/// Time unit used across the library: picoseconds, carried in double.
using Time = double;

/// Tolerance for interval-boundary comparisons (sub-femtosecond; delay
/// values in this library are O(1)..O(1e6) ps).
inline constexpr Time kTimeEps = 1e-9;

/// A half-open interval [lo, hi) on the time axis.  Empty iff hi <= lo.
struct Interval {
    Time lo = 0.0;
    Time hi = 0.0;

    [[nodiscard]] bool empty() const { return hi - lo <= kTimeEps; }
    [[nodiscard]] Time length() const { return empty() ? 0.0 : hi - lo; }
    [[nodiscard]] bool contains(Time t) const { return t >= lo && t < hi; }
    [[nodiscard]] Time midpoint() const { return 0.5 * (lo + hi); }

    friend bool operator==(const Interval& a, const Interval& b) = default;
};

std::ostream& operator<<(std::ostream& os, const Interval& iv);

/// Span-level kernels of IntervalSet, for callers that keep interval
/// lists in their own (flat, reused) buffers.  `a` and `b` are sorted
/// disjoint lists as IntervalSet stores them.

/// True iff t lies inside some interval of `ivals`.
[[nodiscard]] bool intervals_contain(std::span<const Interval> ivals, Time t);

/// out = a u b (out is overwritten; must alias neither input).
void unite_intervals(std::span<const Interval> a, std::span<const Interval> b,
                     std::vector<Interval>& out);

/// Removes every interval shorter than min_width (the rule of
/// IntervalSet::filter_glitches).
void drop_short_intervals(std::vector<Interval>& ivals, Time min_width);

/// A union of disjoint, sorted, non-empty half-open intervals.
///
/// Invariant: for consecutive stored intervals a, b it holds that
/// a.hi < b.lo - kTimeEps (touching or overlapping intervals are merged
/// on insertion).
class IntervalSet {
public:
    IntervalSet() = default;
    explicit IntervalSet(Interval iv) { add(iv); }
    IntervalSet(std::initializer_list<Interval> ivs) {
        for (const Interval& iv : ivs) add(iv);
    }

    /// Inserts an interval, merging with overlapping/touching neighbours.
    void add(Interval iv);
    void add(Time lo, Time hi) { add(Interval{lo, hi}); }

    /// Set union with another interval set (or a sorted disjoint list).
    void unite(const IntervalSet& other) { unite(other.intervals()); }
    void unite(std::span<const Interval> other);

    /// Intersects this set with [lo, hi).
    void clip(Time lo, Time hi);

    /// Shifts every interval right by d (d may be negative).
    /// Models detection-range shifting by a monitor delay element:
    /// I_SR(phi, o) = I_FF(phi, o) + d  (Sec. III-B).
    void shift(Time d);

    /// Removes all intervals shorter than min_width.
    ///
    /// This is the pessimistic pulse filtering of Sec. II-A: an interval
    /// below the glitch threshold is assumed to be filtered by the CMOS
    /// stage and is *dropped*; the surviving neighbours deliberately stay
    /// disjoint (gaps are never bridged).
    void filter_glitches(Time min_width);

    [[nodiscard]] bool empty() const { return ivals_.empty(); }
    [[nodiscard]] std::size_t size() const { return ivals_.size(); }
    [[nodiscard]] const Interval& operator[](std::size_t i) const { return ivals_[i]; }
    [[nodiscard]] std::span<const Interval> intervals() const { return ivals_; }

    /// Total measure (sum of interval lengths).
    [[nodiscard]] Time measure() const;

    /// True iff t lies inside some interval.
    [[nodiscard]] bool contains(Time t) const;

    /// True iff the sets share at least one point.
    [[nodiscard]] bool intersects(const IntervalSet& other) const;

    /// Earliest / latest covered time.  Precondition: !empty().
    [[nodiscard]] Time min() const { return ivals_.front().lo; }
    [[nodiscard]] Time max() const { return ivals_.back().hi; }

    void clear() { ivals_.clear(); }

    friend bool operator==(const IntervalSet& a, const IntervalSet& b) = default;

    /// Set union as a value.
    [[nodiscard]] static IntervalSet united(const IntervalSet& a, const IntervalSet& b);

    /// Set intersection as a value.
    [[nodiscard]] static IntervalSet intersected(const IntervalSet& a, const IntervalSet& b);

private:
    std::vector<Interval> ivals_;
};

std::ostream& operator<<(std::ostream& os, const IntervalSet& s);

}  // namespace fastmon
