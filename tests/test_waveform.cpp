#include "sim/waveform.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "util/prng.hpp"

namespace fastmon {
namespace {

TEST(Waveform, ConstantAndStep) {
    const Waveform c1 = Waveform::constant(true);
    EXPECT_TRUE(c1.initial());
    EXPECT_TRUE(c1.final());
    EXPECT_TRUE(c1.is_constant());
    EXPECT_TRUE(c1.value_at(0.0));
    EXPECT_TRUE(c1.value_at(1e9));

    const Waveform s = Waveform::step(false, 10.0);
    EXPECT_FALSE(s.initial());
    EXPECT_TRUE(s.final());
    EXPECT_FALSE(s.value_at(9.99));
    EXPECT_TRUE(s.value_at(10.0));  // transition at t visible at t
    EXPECT_TRUE(s.value_at(11.0));
    EXPECT_DOUBLE_EQ(s.settle_time(), 10.0);
}

TEST(Waveform, FromEventsDropsNonToggles) {
    const std::vector<std::pair<Time, bool>> events{
        {1.0, true}, {2.0, true}, {3.0, false}, {4.0, false}, {5.0, true}};
    const Waveform w = Waveform::from_events(false, events);
    EXPECT_EQ(w.num_transitions(), 3u);
    EXPECT_FALSE(w.value_at(0.5));
    EXPECT_TRUE(w.value_at(1.5));
    EXPECT_FALSE(w.value_at(3.5));
    EXPECT_TRUE(w.value_at(5.5));
}

TEST(Waveform, FromEventsCancelsSimultaneousToggles) {
    const std::vector<std::pair<Time, bool>> events{{5.0, true}, {5.0, false}};
    const Waveform w = Waveform::from_events(false, events);
    EXPECT_TRUE(w.is_constant());
}

TEST(Waveform, FilterPulsesRemovesNarrow) {
    std::vector<std::pair<Time, bool>> events{
        {10.0, true}, {10.5, false},  // narrow pulse
        {20.0, true}, {30.0, false},  // wide pulse
    };
    Waveform w = Waveform::from_events(false, events);
    w.filter_pulses(2.0);
    EXPECT_EQ(w.num_transitions(), 2u);
    EXPECT_FALSE(w.value_at(10.2));
    EXPECT_TRUE(w.value_at(25.0));
}

TEST(Waveform, SlowedRisingEdgeShifts) {
    // 0 -> 1 at 10, 1 -> 0 at 30.
    const std::vector<std::pair<Time, bool>> events{{10.0, true},
                                                    {30.0, false}};
    const Waveform w = Waveform::from_events(false, events);
    const Waveform str = w.with_slowed_edges(true, 5.0);
    EXPECT_FALSE(str.value_at(12.0));
    EXPECT_TRUE(str.value_at(15.0));
    EXPECT_FALSE(str.value_at(31.0));  // falling edge unmoved
    const Waveform stf = w.with_slowed_edges(false, 5.0);
    EXPECT_TRUE(stf.value_at(10.5));
    EXPECT_TRUE(stf.value_at(34.0));
    EXPECT_FALSE(stf.value_at(35.5));
}

TEST(Waveform, SlowedEdgeSwallowsPulse) {
    // Pulse 10..12; delaying the rise by 5 pushes it past the fall.
    const std::vector<std::pair<Time, bool>> events{{10.0, true},
                                                    {12.0, false}};
    const Waveform w = Waveform::from_events(false, events);
    const Waveform slow = w.with_slowed_edges(true, 5.0);
    EXPECT_TRUE(slow.is_constant());
    EXPECT_FALSE(slow.initial());
}

TEST(Waveform, XorBasic) {
    const Waveform a = Waveform::step(false, 10.0);
    const Waveform b = Waveform::step(false, 15.0);
    const Waveform x = Waveform::xor_of(a, b);
    EXPECT_FALSE(x.initial());
    EXPECT_FALSE(x.value_at(5.0));
    EXPECT_TRUE(x.value_at(12.0));
    EXPECT_FALSE(x.value_at(20.0));
}

TEST(Waveform, XorOfIdenticalIsZero) {
    const std::vector<std::pair<Time, bool>> events{
        {1.0, true}, {4.0, false}, {9.0, true}};
    const Waveform w = Waveform::from_events(false, events);
    const Waveform x = Waveform::xor_of(w, w);
    EXPECT_TRUE(x.is_constant());
    EXPECT_FALSE(x.initial());
}

TEST(Waveform, OnesClipsAtHorizon) {
    const std::vector<std::pair<Time, bool>> events{{5.0, true},
                                                    {8.0, false},
                                                    {20.0, true}};
    const Waveform w = Waveform::from_events(false, events);
    const IntervalSet s = w.ones(25.0);
    ASSERT_EQ(s.size(), 2u);
    EXPECT_DOUBLE_EQ(s[0].lo, 5.0);
    EXPECT_DOUBLE_EQ(s[0].hi, 8.0);
    EXPECT_DOUBLE_EQ(s[1].lo, 20.0);
    EXPECT_DOUBLE_EQ(s[1].hi, 25.0);
}

TEST(Waveform, OnesOfConstantOne) {
    const IntervalSet s = Waveform::constant(true).ones(100.0);
    ASSERT_EQ(s.size(), 1u);
    EXPECT_DOUBLE_EQ(s[0].lo, 0.0);
    EXPECT_DOUBLE_EQ(s[0].hi, 100.0);
    EXPECT_TRUE(Waveform::constant(false).ones(100.0).empty());
}

TEST(Waveform, OnesIgnoresActivityPastHorizon) {
    const std::vector<std::pair<Time, bool>> events{{50.0, true},
                                                    {60.0, false}};
    const Waveform w = Waveform::from_events(false, events);
    EXPECT_TRUE(w.ones(40.0).empty());
}

// Property: value_at agrees with ones() membership for random waveforms.
class WaveformProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WaveformProperty, OnesMatchesValueAt) {
    Prng rng(GetParam() * 131);
    std::vector<std::pair<Time, bool>> events;
    bool v = rng.chance(0.5);
    const bool initial = v;
    Time t = 0.0;
    for (int i = 0; i < 30; ++i) {
        t += rng.uniform(0.2, 5.0);
        v = !v;
        events.emplace_back(t, v);
    }
    const Waveform w = Waveform::from_events(initial, events);
    const Time horizon = 80.0;
    const IntervalSet ones = w.ones(horizon);
    for (int k = 0; k < 300; ++k) {
        const Time q = rng.uniform(0.0, horizon - 1e-6);
        EXPECT_EQ(ones.contains(q), w.value_at(q)) << "t=" << q;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WaveformProperty,
                         ::testing::Range<std::uint64_t>(1, 17));

// Property: XOR is measure-consistent: ones(xor) == symmetric difference.
class XorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XorProperty, XorMatchesPointwise) {
    Prng rng(GetParam() * 733);
    auto random_wave = [&rng]() {
        std::vector<std::pair<Time, bool>> events;
        bool v = rng.chance(0.5);
        const bool initial = v;
        Time t = 0.0;
        for (int i = 0; i < 20; ++i) {
            t += rng.uniform(0.3, 4.0);
            v = !v;
            events.emplace_back(t, v);
        }
        return Waveform::from_events(initial, events);
    };
    const Waveform a = random_wave();
    const Waveform b = random_wave();
    const Waveform x = Waveform::xor_of(a, b);
    for (int k = 0; k < 300; ++k) {
        const Time q = rng.uniform(0.0, 90.0);
        EXPECT_EQ(x.value_at(q), a.value_at(q) != b.value_at(q)) << q;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XorProperty,
                         ::testing::Range<std::uint64_t>(1, 17));

// Property: slowing edges by 0 is the identity; slowing preserves the
// final value; a slowed waveform never has more transitions.
class SlowEdgeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SlowEdgeProperty, SlowedEdgeInvariants) {
    Prng rng(GetParam() * 877);
    std::vector<std::pair<Time, bool>> events;
    bool v = rng.chance(0.5);
    const bool initial = v;
    Time t = 0.0;
    for (int i = 0; i < 16; ++i) {
        t += rng.uniform(0.2, 6.0);
        v = !v;
        events.emplace_back(t, v);
    }
    const Waveform w = Waveform::from_events(initial, events);
    for (bool rising : {true, false}) {
        EXPECT_EQ(w.with_slowed_edges(rising, 0.0), w);
        const Time delta = rng.uniform(0.1, 10.0);
        const Waveform slow = w.with_slowed_edges(rising, delta);
        EXPECT_EQ(slow.initial(), w.initial());
        EXPECT_EQ(slow.final(), w.final());
        EXPECT_LE(slow.num_transitions(), w.num_transitions());
        // Delay only retards: the slowed waveform's settle time does not
        // precede the original's by more than epsilon... it can shrink
        // when pulses vanish, but never extends past settle + delta.
        EXPECT_LE(slow.settle_time(), w.settle_time() + delta + 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlowEdgeProperty,
                         ::testing::Range<std::uint64_t>(1, 17));

// The copying pulse filter the in-place one replaced (reference).
std::vector<Time> filtered_copy(const Waveform& w, Time min_width) {
    std::vector<Time> kept(w.transitions().begin(), w.transitions().end());
    if (min_width <= 0.0 || kept.size() < 2) return kept;
    kept.clear();
    for (Time t : w.transitions()) {
        if (!kept.empty() && t - kept.back() < min_width - kTimeEps) {
            kept.pop_back();
        } else {
            kept.push_back(t);
        }
    }
    return kept;
}

// The edge-cancellation stack of slow_edges over a fresh vector
// (reference).
std::vector<Time> slowed_copy(const Waveform& w, bool rising, Time delta) {
    std::vector<Time> out;
    bool value = w.initial();
    for (Time t : w.transitions()) {
        value = !value;
        const Time shifted = value == rising ? t + delta : t;
        if (!out.empty() && shifted <= out.back() + kTimeEps) {
            out.pop_back();
        } else {
            out.push_back(shifted);
        }
    }
    return out;
}

// Property: the raw-buffer kernels the simulators run on reused
// buffers give exactly what the allocating references give, whatever
// the buffer held before.
TEST(Waveform, BufferReuseMatchesAllocatingBuilders) {
    Prng rng(20261017);
    for (int trial = 0; trial < 400; ++trial) {
        // Sorted events with ties, non-toggles and near-coincident
        // toggles, so every cancellation branch is taken.
        std::vector<std::pair<Time, bool>> events;
        Time t = 0.0;
        const auto n = static_cast<int>(rng.next_below(24));
        for (int i = 0; i < n; ++i) {
            if (!rng.chance(0.2)) t += rng.uniform(0.0, 3.0);
            events.emplace_back(t, rng.chance(0.5));
        }
        const bool initial = rng.chance(0.5);
        const Waveform want = Waveform::from_events(initial, events);
        const std::span<const Time> toggles = want.transitions();

        // A buffer holding a longer, unrelated toggle list.
        std::vector<Time> stale(toggles.size() + 8);
        for (std::size_t i = 0; i < stale.size(); ++i) {
            stale[i] = 100.0 + static_cast<Time>(i);
        }

        for (const bool rising : {true, false}) {
            const Time delta = rng.uniform(0.0, 4.0);
            std::vector<Time> buf = stale;
            const std::size_t kept =
                slow_edges(want.view(), rising, delta, buf.data());
            const std::vector<Time> got(buf.begin(), buf.begin() + kept);
            EXPECT_EQ(got, slowed_copy(want, rising, delta));
            const Waveform slowed = want.with_slowed_edges(rising, delta);
            EXPECT_EQ(slowed.initial(), initial);
            EXPECT_EQ(std::vector<Time>(slowed.transitions().begin(),
                                        slowed.transitions().end()),
                      got);
        }

        const Time width = rng.uniform(0.0, 3.0);
        std::vector<Time> buf = stale;
        std::copy(toggles.begin(), toggles.end(), buf.begin());
        const std::size_t kept =
            filter_pulses(buf.data(), toggles.size(), width);
        const std::vector<Time> got(buf.begin(), buf.begin() + kept);
        EXPECT_EQ(got, filtered_copy(want, width)) << "width " << width;
        Waveform filtered = want;
        filtered.filter_pulses(width);
        EXPECT_EQ(filtered.initial(), initial);
        EXPECT_EQ(std::vector<Time>(filtered.transitions().begin(),
                                    filtered.transitions().end()),
                  got);
    }
}

}  // namespace
}  // namespace fastmon
