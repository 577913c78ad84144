#include "util/interval.hpp"

#include <algorithm>
#include <cassert>
#include <ostream>

namespace fastmon {

std::ostream& operator<<(std::ostream& os, const Interval& iv) {
    return os << '[' << iv.lo << ", " << iv.hi << ')';
}

void IntervalSet::add(Interval iv) {
    if (iv.empty()) return;
    // Locate the first stored interval whose end reaches iv.lo (candidates
    // for merging), then absorb every overlapping/touching interval.
    auto first = std::lower_bound(
        ivals_.begin(), ivals_.end(), iv.lo,
        [](const Interval& a, Time lo) { return a.hi < lo - kTimeEps; });
    auto last = first;
    while (last != ivals_.end() && last->lo <= iv.hi + kTimeEps) {
        iv.lo = std::min(iv.lo, last->lo);
        iv.hi = std::max(iv.hi, last->hi);
        ++last;
    }
    if (first == last) {
        ivals_.insert(first, iv);
    } else {
        *first = iv;
        ivals_.erase(first + 1, last);
    }
}

void unite_intervals(std::span<const Interval> a, std::span<const Interval> b,
                     std::vector<Interval>& out) {
    // Linear merge of two sorted disjoint lists.
    out.clear();
    std::size_t i = 0;
    std::size_t j = 0;
    auto push = [&out](Interval iv) {
        if (!out.empty() && out.back().hi >= iv.lo - kTimeEps) {
            out.back().hi = std::max(out.back().hi, iv.hi);
        } else {
            out.push_back(iv);
        }
    };
    while (i < a.size() || j < b.size()) {
        if (j == b.size() || (i < a.size() && a[i].lo <= b[j].lo)) {
            push(a[i++]);
        } else {
            push(b[j++]);
        }
    }
}

void IntervalSet::unite(std::span<const Interval> other) {
    if (other.empty()) return;
    if (ivals_.empty()) {
        ivals_.assign(other.begin(), other.end());
        return;
    }
    std::vector<Interval> merged;
    merged.reserve(ivals_.size() + other.size());
    unite_intervals(ivals_, other, merged);
    ivals_ = std::move(merged);
}

void IntervalSet::clip(Time lo, Time hi) {
    std::vector<Interval> clipped;
    clipped.reserve(ivals_.size());
    for (Interval iv : ivals_) {
        iv.lo = std::max(iv.lo, lo);
        iv.hi = std::min(iv.hi, hi);
        if (!iv.empty()) clipped.push_back(iv);
    }
    ivals_ = std::move(clipped);
}

void IntervalSet::shift(Time d) {
    for (Interval& iv : ivals_) {
        iv.lo += d;
        iv.hi += d;
    }
}

void drop_short_intervals(std::vector<Interval>& ivals, Time min_width) {
    std::erase_if(ivals, [min_width](const Interval& iv) {
        return iv.length() < min_width - kTimeEps;
    });
}

void IntervalSet::filter_glitches(Time min_width) {
    drop_short_intervals(ivals_, min_width);
}

Time IntervalSet::measure() const {
    Time total = 0.0;
    for (const Interval& iv : ivals_) total += iv.length();
    return total;
}

bool intervals_contain(std::span<const Interval> ivals, Time t) {
    auto it = std::lower_bound(
        ivals.begin(), ivals.end(), t,
        [](const Interval& a, Time v) { return a.hi <= v; });
    return it != ivals.end() && it->contains(t);
}

bool IntervalSet::contains(Time t) const {
    return intervals_contain(ivals_, t);
}

bool IntervalSet::intersects(const IntervalSet& other) const {
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < ivals_.size() && j < other.ivals_.size()) {
        const Interval& a = ivals_[i];
        const Interval& b = other.ivals_[j];
        const Time lo = std::max(a.lo, b.lo);
        const Time hi = std::min(a.hi, b.hi);
        if (hi - lo > kTimeEps) return true;
        if (a.hi < b.hi) {
            ++i;
        } else {
            ++j;
        }
    }
    return false;
}

IntervalSet IntervalSet::united(const IntervalSet& a, const IntervalSet& b) {
    IntervalSet r = a;
    r.unite(b);
    return r;
}

IntervalSet IntervalSet::intersected(const IntervalSet& a, const IntervalSet& b) {
    IntervalSet r;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() && j < b.size()) {
        const Interval& x = a[i];
        const Interval& y = b[j];
        const Time lo = std::max(x.lo, y.lo);
        const Time hi = std::min(x.hi, y.hi);
        if (hi - lo > kTimeEps) r.add(lo, hi);
        if (x.hi < y.hi) {
            ++i;
        } else {
            ++j;
        }
    }
    return r;
}

std::ostream& operator<<(std::ostream& os, const IntervalSet& s) {
    os << '{';
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (i > 0) os << ", ";
        os << s[i];
    }
    return os << '}';
}

}  // namespace fastmon
