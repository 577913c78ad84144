// Differential tests for StaEngine: every update(delta) must be
// bit-for-bit identical (EXPECT_EQ on doubles, no tolerance) to
// transforming the base annotation and running analyze() on a fresh
// engine, across defect extras, dense aging scales, delta reverts,
// rebases and a seeded property sweep over generated circuits.  The
// LifetimeSimulator section checks the monitor-augmented outputs:
// evaluate() equals the guard-band check on a from-scratch pass over
// degraded(years).
#include "timing/sta_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "monitor/aging.hpp"
#include "monitor/placement.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas_data.hpp"
#include "property_circuits.hpp"
#include "util/prng.hpp"
#include "wearout/wearout.hpp"

namespace fastmon {
namespace {

// Bitwise equality between a live engine result and the from-scratch
// reference; any tolerance here would hide an order-of-operations bug.
void expect_bitwise_equal(const StaResult& got, const StaResult& want) {
    ASSERT_EQ(got.max_arrival.size(), want.max_arrival.size());
    for (std::size_t i = 0; i < want.max_arrival.size(); ++i) {
        EXPECT_EQ(got.max_arrival[i], want.max_arrival[i]) << "gate " << i;
        EXPECT_EQ(got.min_arrival[i], want.min_arrival[i]) << "gate " << i;
        EXPECT_EQ(got.downstream[i], want.downstream[i]) << "gate " << i;
        EXPECT_EQ(got.path_through[i], want.path_through[i]) << "gate " << i;
    }
    EXPECT_EQ(got.critical_path_length, want.critical_path_length);
    EXPECT_EQ(got.clock_period, want.clock_period);
}

StaResult reference_sta(const Netlist& nl, const DelayAnnotation& base,
                        const DelayDelta& delta, double margin = 1.05,
                        StaEngine::Scope scope = StaEngine::Scope::Full) {
    const DelayAnnotation degraded = base.transformed(delta);
    StaEngine fresh(nl, degraded, margin, scope);
    fresh.analyze();
    return fresh.take_result();
}

std::vector<GateId> combinational_gates(const Netlist& nl) {
    std::vector<GateId> ids;
    for (GateId id = 0; id < nl.size(); ++id) {
        if (is_combinational(nl.gate(id).type)) ids.push_back(id);
    }
    return ids;
}

struct EngineFixture : ::testing::Test {
    Netlist nl = generate_circuit(
        GeneratorConfig{"engine_diff", 300, 24, 8, 8, 10, 0.55, 77});
    DelayAnnotation base = DelayAnnotation::with_variation(nl, 0.08, 5);
    std::vector<GateId> comb = combinational_gates(nl);
};

TEST_F(EngineFixture, AnalyzeMatchesFullScopeFromScratch) {
    StaEngine engine(nl, base);
    const StaResult& got = engine.analyze();
    // A full-scope single-pass engine is the reference the removed
    // run_sta() shim used to wrap; analyze() must match it bitwise.
    StaEngine full(nl, base, 1.05, StaEngine::Scope::Full);
    full.analyze();
    const StaResult reference = full.take_result();
    expect_bitwise_equal(got, reference);
    EXPECT_EQ(engine.stats().full_passes, 1u);
}

TEST_F(EngineFixture, SparseDefectExtrasMatchFromScratch) {
    StaEngine engine(nl, base);
    engine.analyze();
    Prng rng = Prng::stream(11, 0xD1FFULL);
    for (int round = 0; round < 12; ++round) {
        DelayDelta delta;
        const int touches = 1 + round % 3;
        for (int k = 0; k < touches; ++k) {
            const GateId g =
                comb[static_cast<std::size_t>(rng.next_below(comb.size()))];
            const std::uint32_t fanin =
                static_cast<std::uint32_t>(nl.gate(g).fanin.size());
            const std::uint32_t pin =
                rng.next_below(2) == 0
                    ? DelayDelta::kAllPins
                    : static_cast<std::uint32_t>(rng.next_below(fanin));
            delta.add(g, pin, rng.uniform(0.5, 25.0));
        }
        expect_bitwise_equal(engine.update(delta),
                             reference_sta(nl, base, delta));
    }
}

TEST_F(EngineFixture, DenseAgingScalesMatchFromScratch) {
    StaEngine engine(nl, base);
    Prng rng = Prng::stream(12, 0xA6E5ULL);
    for (int round = 0; round < 6; ++round) {
        DelayDelta delta;
        for (const GateId g : comb) {
            delta.scale(g, 1.0 + rng.uniform(0.0, 0.3));
        }
        expect_bitwise_equal(engine.update(delta),
                             reference_sta(nl, base, delta));
    }
}

TEST_F(EngineFixture, MixedScaleAndExtraOrderIsPreserved) {
    // A scale and an extra on the SAME gate: the contract applies scales
    // before extras, i.e. extra is not multiplied.
    StaEngine engine(nl, base);
    const GateId g = comb[comb.size() / 2];
    DelayDelta delta;
    delta.scale(g, 1.4);
    delta.add(g, DelayDelta::kAllPins, 7.25);
    delta.scale(comb.front(), 2.0);
    expect_bitwise_equal(engine.update(delta), reference_sta(nl, base, delta));
}

TEST_F(EngineFixture, UniformScaleComposesWithPerGateEntries) {
    // A uniform factor is one scale entry per combinational gate; a
    // second entry on the same gate multiplies on top of it.
    StaEngine engine(nl, base);
    DelayDelta delta;
    for (const GateId g : comb) delta.scale(g, 1.07);
    delta.scale(comb.front(), 1.5);
    delta.add(comb.back(), DelayDelta::kAllPins, 3.0);
    expect_bitwise_equal(engine.update(delta), reference_sta(nl, base, delta));
}

TEST_F(EngineFixture, DeltasAreAbsoluteNotCumulative) {
    // Gate dirty in update k but absent from update k+1 reverts to base.
    StaEngine engine(nl, base);
    const GateId a = comb[1];
    const GateId b = comb[comb.size() - 2];
    DelayDelta first;
    first.add(a, DelayDelta::kAllPins, 40.0);
    first.scale(b, 3.0);
    engine.update(first);

    DelayDelta second;
    second.scale(b, 1.2);  // `a` is gone: must revert
    expect_bitwise_equal(engine.update(second),
                         reference_sta(nl, base, second));

    DelayDelta empty;  // everything reverts to the plain base
    expect_bitwise_equal(engine.update(empty), reference_sta(nl, base, empty));
}

TEST_F(EngineFixture, EmptyDeltaOnValidEngineIsCached) {
    StaEngine engine(nl, base);
    engine.analyze();
    DelayDelta empty;
    expect_bitwise_equal(engine.update(empty),
                         reference_sta(nl, base, empty));
}

TEST_F(EngineFixture, RebaseRetargetsWithoutReallocation) {
    const DelayAnnotation other = DelayAnnotation::with_variation(nl, 0.12, 99);
    StaEngine engine(nl, base);
    engine.analyze();
    engine.rebase(other);
    DelayDelta delta;
    delta.add(comb[3], DelayDelta::kAllPins, 9.0);
    expect_bitwise_equal(engine.update(delta), reference_sta(nl, other, delta));
    EXPECT_EQ(engine.stats().rebases, 1u);

    // And back again: results follow the new base exactly.
    engine.rebase(base);
    expect_bitwise_equal(engine.analyze(),
                         reference_sta(nl, base, DelayDelta{}));
}

TEST_F(EngineFixture, ArrivalsScopeMatchesArrivalFields) {
    StaEngine full(nl, base, 1.05, StaEngine::Scope::Full);
    StaEngine arrivals(nl, base, 1.05, StaEngine::Scope::Arrivals);
    DelayDelta delta;
    delta.scale(comb[0], 1.8);
    delta.add(comb[2], DelayDelta::kAllPins, 5.0);
    const StaResult& f = full.update(delta);
    const StaResult& a = arrivals.update(delta);
    for (GateId id = 0; id < nl.size(); ++id) {
        EXPECT_EQ(a.max_arrival[id], f.max_arrival[id]);
        EXPECT_EQ(a.min_arrival[id], f.min_arrival[id]);
        EXPECT_EQ(a.downstream[id], 0.0);
        EXPECT_EQ(a.path_through[id], 0.0);
    }
    EXPECT_EQ(a.critical_path_length, f.critical_path_length);
    EXPECT_EQ(a.clock_period, f.clock_period);
}

TEST_F(EngineFixture, TakeResultInvalidatesThenRecovers) {
    StaEngine engine(nl, base);
    engine.analyze();
    const StaResult owned = engine.take_result();
    EXPECT_EQ(owned.max_arrival.size(), nl.size());
    // The engine recovers via a fresh full pass on the next update.
    DelayDelta delta;
    delta.add(comb[0], DelayDelta::kAllPins, 2.0);
    expect_bitwise_equal(engine.update(delta), reference_sta(nl, base, delta));
}

TEST_F(EngineFixture, MovedFromEngineIsInvalidAndTargetStaysLive) {
    StaEngine source(nl, base);
    const StaResult before = [&] {
        source.analyze();
        StaResult copy = source.result();
        return copy;
    }();

    // Move construction: the target owns the arenas and the cached
    // result; the source is left invalid (destroy/assign-only).
    StaEngine target(std::move(source));
    EXPECT_FALSE(source.valid());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(target.valid());
    expect_bitwise_equal(target.result(), before);

    // The target is fully functional: updates match from-scratch.
    DelayDelta delta;
    delta.add(comb[1], DelayDelta::kAllPins, 3.5);
    expect_bitwise_equal(target.update(delta), reference_sta(nl, base, delta));

    // Move assignment nulls the new source the same way, and a
    // moved-from engine can be assigned a live one again.
    StaEngine replacement(nl, base);
    replacement.analyze();
    source = std::move(replacement);
    EXPECT_FALSE(replacement.valid());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(source.valid());
    expect_bitwise_equal(source.result(), before);
    expect_bitwise_equal(source.update(delta), reference_sta(nl, base, delta));
}

TEST(StaEngineS27, ClockMarginFlowsThroughUpdates) {
    const Netlist nl = make_s27();
    const DelayAnnotation base = DelayAnnotation::nominal(nl);
    StaEngine engine(nl, base, 1.6);
    DelayDelta delta;
    for (const GateId g : combinational_gates(nl)) delta.scale(g, 1.25);
    const StaResult& got = engine.update(delta);
    expect_bitwise_equal(got, reference_sta(nl, base, delta, 1.6));
    EXPECT_EQ(got.clock_period, 1.6 * got.critical_path_length);
}

// --- Seeded property sweep over generated circuits ------------------

/// Random delta over `comb`: a random gate subset in shuffled order
/// (entries need not be ascending), repeated entries on one gate, and
/// per-pin plus all-pins extras.
DelayDelta random_delta(const Netlist& nl, const std::vector<GateId>& comb,
                        Prng& rng) {
    DelayDelta delta;
    const std::size_t num_scales = rng.next_below(comb.size() + 1);
    for (std::size_t k = 0; k < num_scales; ++k) {
        const GateId g = comb[rng.next_below(comb.size())];
        delta.scale(g, rng.uniform(0.7, 1.6));
        if (rng.next_below(8) == 0) delta.scale(g, rng.uniform(0.9, 1.2));
    }
    const std::size_t num_extras = rng.next_below(6);
    for (std::size_t k = 0; k < num_extras; ++k) {
        const GateId g = comb[rng.next_below(comb.size())];
        const auto fanin = static_cast<std::uint32_t>(nl.gate(g).fanin.size());
        const std::uint32_t pin =
            fanin == 0 || rng.next_below(2) == 0
                ? DelayDelta::kAllPins
                : static_cast<std::uint32_t>(rng.next_below(fanin));
        delta.add(g, pin, rng.uniform(0.1, 30.0));
        if (rng.next_below(4) == 0) delta.add(g, pin, rng.uniform(0.1, 5.0));
    }
    return delta;
}

TEST(StaEngineProperty, UpdateEqualsAnalyzeOnTransformedBase) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Prng rng = Prng::stream(seed, 0x57A9ULL);
        const Netlist nl = property_circuit("sta_prop", seed, rng);
        const DelayAnnotation base =
            DelayAnnotation::with_variation(nl, 0.1, seed);
        const std::vector<GateId> comb = combinational_gates(nl);
        ASSERT_FALSE(comb.empty());
        const double margin = rng.uniform(1.0, 1.3);
        for (const StaEngine::Scope scope :
             {StaEngine::Scope::Full, StaEngine::Scope::Arrivals}) {
            StaEngine engine(nl, base, margin, scope);
            // Each delta is absolute: later deltas drop gates earlier
            // ones touched, which must revert to base.
            for (int step = 0; step < 6; ++step) {
                SCOPED_TRACE(::testing::Message()
                             << "seed " << seed << " step " << step
                             << (scope == StaEngine::Scope::Full
                                     ? " full"
                                     : " arrivals"));
                const DelayDelta delta = random_delta(nl, comb, rng);
                expect_bitwise_equal(
                    engine.update(delta),
                    reference_sta(nl, base, delta, margin, scope));
            }
        }
    }
}

// --- Monitor-augmented differential: LifetimeSimulator ---------------

struct LifetimeDiffFixture : ::testing::Test {
    Netlist nl = make_mini_alu();
    DelayAnnotation base = DelayAnnotation::with_variation(nl, 0.05, 21);
    StaResult sta = StaEngine(nl, base, 1.6).analyze();
    MonitorPlacement placement = place_paper_monitors(nl, sta);
    AgingModel aging{0.4, 0.8, 10.0};

    MarginalDefect make_defect() const {
        // Put the defect on the critical-path gate so it is monitored.
        GateId worst = 0;
        for (GateId id = 0; id < nl.size(); ++id) {
            if (!is_combinational(nl.gate(id).type)) continue;
            if (sta.path_through[id] > sta.path_through[worst]) worst = id;
        }
        MarginalDefect d;
        d.site.gate = worst;
        d.site.pin = FaultSite::kOutputPin;
        d.delta0 = 1.5;
        d.growth_per_year = 0.9;
        d.delta_max = 60.0;
        return d;
    }
};

/// LifetimeSimulator::evaluate's guard-band check, recomputed from a
/// from-scratch pass over the degraded annotation.
LifetimePoint reference_point(const Netlist& nl,
                              const DelayAnnotation& degraded, double years,
                              Time clock_period,
                              const MonitorPlacement& placement) {
    StaEngine fresh(nl, degraded, 1.0, StaEngine::Scope::Full);
    const StaResult& sta = fresh.analyze();
    LifetimePoint p;
    p.years = years;
    const auto ops = nl.observe_points();
    for (std::uint32_t oi = 0; oi < ops.size(); ++oi) {
        const Time arrival = sta.max_arrival[ops[oi].signal];
        p.worst_arrival = std::max(p.worst_arrival, arrival);
        if (oi < placement.monitored.size() && placement.monitored[oi]) {
            p.worst_monitored_arrival =
                std::max(p.worst_monitored_arrival, arrival);
        }
    }
    p.alerts.assign(placement.config_delays.size(), false);
    for (std::size_t c = 1; c < placement.config_delays.size(); ++c) {
        p.alerts[c] = p.worst_monitored_arrival >
                      clock_period - placement.config_delays[c];
    }
    p.timing_failure = p.worst_arrival > clock_period;
    return p;
}

TEST_F(LifetimeDiffFixture, EvaluateEqualsAnalyzeOnDegradedAnnotation) {
    std::vector<double> grid;
    for (double y = 0.0; y <= 12.0; y += 0.75) grid.push_back(y);

    WearoutConfig cfg;
    cfg.enabled = true;
    cfg.mission = *find_mission_profile("server_247");
    const WearoutModel wearout(nl, DelayAnnotation::nominal(nl), cfg);
    for (const WearoutModel* model : {static_cast<const WearoutModel*>(nullptr),
                                      &wearout}) {
        LifetimeSimulator sim(nl, base, sta.clock_period, aging, 3, nullptr,
                              model);
        sim.add_defect(make_defect());
        bool any_alert = false;
        for (const double y : grid) {
            const LifetimePoint got = sim.evaluate(y, placement);
            EXPECT_EQ(got, reference_point(nl, sim.degraded(y), y,
                                           sta.clock_period, placement))
                << "year " << y << (model ? " wearout" : " legacy");
            for (const bool alert : got.alerts) any_alert = any_alert || alert;
        }
        // The sweep reaches the guard bands, so the alert logic is
        // exercised, not only the arrivals.
        EXPECT_TRUE(any_alert) << (model ? "wearout" : "legacy");
    }
}

TEST_F(LifetimeDiffFixture, SharedEngineIsRebasedPerDevice) {
    // One engine handed to two simulators with different bases, as the
    // campaign worker does across its device shard.
    const DelayAnnotation other = DelayAnnotation::with_variation(nl, 0.05, 22);
    StaEngine engine(nl, base, 1.0, StaEngine::Scope::Arrivals);
    std::vector<double> grid{0.0, 2.0, 6.0, 10.0};

    LifetimeSimulator first(nl, base, sta.clock_period, aging, 3, &engine);
    const auto pts_first = first.sweep(grid, placement);

    LifetimeSimulator second(nl, other, sta.clock_period, aging, 3, &engine);
    const auto pts_second = second.sweep(grid, placement);

    LifetimeSimulator lone(nl, other, sta.clock_period, aging, 3);
    EXPECT_EQ(pts_second, lone.sweep(grid, placement));
    // Re-run the first device on the shared engine: rebase restores it.
    LifetimeSimulator again(nl, base, sta.clock_period, aging, 3, &engine);
    EXPECT_EQ(pts_first, again.sweep(grid, placement));
}

TEST_F(LifetimeDiffFixture, DegradationDeltaMatchesDegradedAnnotation) {
    LifetimeSimulator sim(nl, base, sta.clock_period, aging, 3);
    sim.add_defect(make_defect());
    const DelayDelta delta = sim.degradation_delta(5.0);
    const DelayAnnotation via_delta = base.transformed(delta);
    const DelayAnnotation via_sim = sim.degraded(5.0);
    for (GateId id = 0; id < nl.size(); ++id) {
        const auto fanin = nl.gate(id).fanin.size();
        for (std::uint32_t p = 0; p < fanin; ++p) {
            EXPECT_EQ(via_delta.arc(id, p).rise, via_sim.arc(id, p).rise);
            EXPECT_EQ(via_delta.arc(id, p).fall, via_sim.arc(id, p).fall);
        }
    }
}

}  // namespace
}  // namespace fastmon
