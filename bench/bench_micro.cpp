// Google-benchmark micro suite: throughput of the library's kernels
// (not a paper table; used to track performance regressions) plus the
// two ablations called out in DESIGN.md: pulse-filter threshold and
// discretization candidate policy.
//
// After the google-benchmark run, main() measures the full detection
// engine (serial vs pooled) and writes BENCH_detection.json.
#include <benchmark/benchmark.h>

#include "atpg/tdf_atpg.hpp"
#include "bench_common.hpp"
#include "fault/detection_range.hpp"
#include "monitor/placement.hpp"
#include "netlist/generator.hpp"
#include "opt/set_cover.hpp"
#include "schedule/discretize.hpp"
#include "sim/wave_sim.hpp"
#include "timing/sta_engine.hpp"
#include "util/prng.hpp"

namespace {

using namespace fastmon;

const Netlist& test_circuit() {
    static const Netlist netlist = [] {
        GeneratorConfig config;
        config.name = "micro";
        config.n_gates = 1200;
        config.n_ffs = 120;
        config.n_inputs = 24;
        config.n_outputs = 24;
        config.depth = 18;
        config.spread = 0.6;
        config.seed = 7;
        return generate_circuit(config);
    }();
    return netlist;
}

const DelayAnnotation& test_delays() {
    static const DelayAnnotation d = DelayAnnotation::nominal(test_circuit());
    return d;
}

void BM_IntervalSetUnion(benchmark::State& state) {
    Prng rng(42);
    IntervalSet a;
    IntervalSet b;
    for (int i = 0; i < 64; ++i) {
        const Time lo = rng.uniform(0.0, 1000.0);
        a.add(lo, lo + rng.uniform(0.5, 20.0));
        const Time lo2 = rng.uniform(0.0, 1000.0);
        b.add(lo2, lo2 + rng.uniform(0.5, 20.0));
    }
    for (auto _ : state) {
        IntervalSet u = IntervalSet::united(a, b);
        benchmark::DoNotOptimize(u);
    }
}
BENCHMARK(BM_IntervalSetUnion);

void BM_Sta(benchmark::State& state) {
    for (auto _ : state) {
        StaResult r = StaEngine(test_circuit(), test_delays()).analyze();
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_Sta);

// The campaign hot path: one persistent engine, every iteration applies
// a dense aging-style delta (every combinational gate rescaled) and
// runs a full forward pass.
void BM_StaEngineUpdateDense(benchmark::State& state) {
    const Netlist& nl = test_circuit();
    StaEngine engine(nl, test_delays(), 1.05, StaEngine::Scope::Arrivals);
    engine.analyze();
    DelayDelta delta;
    double level = 0.0;
    for (auto _ : state) {
        level = level < 0.2 ? level + 0.001 : 0.0;
        delta.clear();
        for (GateId id = 0; id < nl.size(); ++id) {
            if (!is_combinational(nl.gate(id).type)) continue;
            delta.scale(id, 1.0 + level);
        }
        benchmark::DoNotOptimize(engine.update(delta));
    }
}
BENCHMARK(BM_StaEngineUpdateDense);

void BM_WaveSimPattern(benchmark::State& state) {
    const Netlist& nl = test_circuit();
    const WaveSim sim(nl, test_delays());
    Prng rng(11);
    const std::size_t n = nl.comb_sources().size();
    std::vector<Bit> v1(n);
    std::vector<Bit> v2(n);
    for (std::size_t i = 0; i < n; ++i) {
        v1[i] = rng.chance(0.5) ? 1 : 0;
        v2[i] = rng.chance(0.5) ? 1 : 0;
    }
    for (auto _ : state) {
        auto waves = sim.simulate(v1, v2);
        benchmark::DoNotOptimize(waves);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(nl.size()));
}
BENCHMARK(BM_WaveSimPattern);

void BM_FaultConeSim(benchmark::State& state) {
    const Netlist& nl = test_circuit();
    const WaveSim sim(nl, test_delays());
    const FaultSim fsim(sim);
    Prng rng(12);
    const std::size_t n = nl.comb_sources().size();
    std::vector<Bit> v1(n);
    std::vector<Bit> v2(n);
    for (std::size_t i = 0; i < n; ++i) {
        v1[i] = rng.chance(0.5) ? 1 : 0;
        v2[i] = rng.chance(0.5) ? 1 : 0;
    }
    const auto good = sim.simulate(v1, v2);
    const FaultUniverse universe =
        FaultUniverse::generate(nl, test_delays());
    std::size_t fi = 0;
    for (auto _ : state) {
        const DelayFault& f = universe.fault(fi % universe.size());
        fi += 37;
        auto diffs = fsim.simulate(f, good);
        benchmark::DoNotOptimize(diffs);
    }
}
BENCHMARK(BM_FaultConeSim);

void BM_Tdf64Batch(benchmark::State& state) {
    const Netlist& nl = test_circuit();
    TransitionFaultSim sim(nl);
    Prng rng(13);
    const std::size_t n = nl.comb_sources().size();
    std::vector<PatternPair> pats(64);
    for (auto& p : pats) {
        p.v1.resize(n);
        p.v2.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            p.v1[i] = rng.chance(0.5) ? 1 : 0;
            p.v2[i] = rng.chance(0.5) ? 1 : 0;
        }
    }
    const auto batch = sim.pack(pats, 0);
    const auto values = sim.evaluate(batch);
    const auto faults = enumerate_tdf_faults(nl);
    std::size_t fi = 0;
    for (auto _ : state) {
        const std::uint64_t m =
            sim.detect_mask(faults[fi % faults.size()], values);
        fi += 13;
        benchmark::DoNotOptimize(m);
    }
}
BENCHMARK(BM_Tdf64Batch);

void BM_SetCoverGreedy(benchmark::State& state) {
    Prng rng(21);
    SetCoverInstance inst;
    inst.num_elements = 400;
    inst.sets.resize(80);
    for (auto& s : inst.sets) {
        for (int k = 0; k < 40; ++k) {
            s.push_back(static_cast<std::uint32_t>(rng.next_below(400)));
        }
        std::sort(s.begin(), s.end());
        s.erase(std::unique(s.begin(), s.end()), s.end());
    }
    for (auto _ : state) {
        auto r = greedy_set_cover(inst);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_SetCoverGreedy);

void BM_SetCoverExact(benchmark::State& state) {
    Prng rng(22);
    SetCoverInstance inst;
    inst.num_elements = 120;
    inst.sets.resize(40);
    for (auto& s : inst.sets) {
        for (int k = 0; k < 18; ++k) {
            s.push_back(static_cast<std::uint32_t>(rng.next_below(120)));
        }
        std::sort(s.begin(), s.end());
        s.erase(std::unique(s.begin(), s.end()), s.end());
    }
    for (auto _ : state) {
        auto r = solve_set_cover(inst);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_SetCoverExact);

// Ablation: pulse-filter threshold 0 vs default (DESIGN.md).  Measures
// both runtime and the detection-interval count difference.
void BM_AblationPulseFilter(benchmark::State& state) {
    const bool filtered = state.range(0) != 0;
    const Netlist& nl = test_circuit();
    DelayAnnotation delays = test_delays();
    const StaResult sta = StaEngine(nl, delays).analyze();
    const WaveSim sim(nl, delays);
    const FaultSim fsim(sim);
    Prng rng(31);
    const std::size_t n = nl.comb_sources().size();
    std::vector<Bit> v1(n);
    std::vector<Bit> v2(n);
    for (std::size_t i = 0; i < n; ++i) {
        v1[i] = rng.chance(0.5) ? 1 : 0;
        v2[i] = rng.chance(0.5) ? 1 : 0;
    }
    const auto good = sim.simulate(v1, v2);
    const FaultUniverse universe = FaultUniverse::generate(nl, delays);
    const Time threshold = filtered ? delays.glitch_threshold() : 0.0;
    std::size_t intervals = 0;
    std::size_t fi = 0;
    for (auto _ : state) {
        const DelayFault& f = universe.fault(fi % universe.size());
        fi += 41;
        for (const ObserveDiff& od : fsim.simulate(f, good)) {
            IntervalSet iv = od.diff.ones(sta.clock_period);
            iv.filter_glitches(threshold);
            intervals += iv.size();
        }
    }
    state.counters["intervals"] = static_cast<double>(intervals);
}
BENCHMARK(BM_AblationPulseFilter)->Arg(0)->Arg(1);

// Ablation: discretization with unlimited vs capped candidates.
void BM_AblationDiscretize(benchmark::State& state) {
    Prng rng(33);
    std::vector<IntervalSet> ranges(600);
    for (auto& r : ranges) {
        const int k = 1 + static_cast<int>(rng.next_below(3));
        for (int i = 0; i < k; ++i) {
            const Time lo = rng.uniform(100.0, 900.0);
            r.add(lo, lo + rng.uniform(5.0, 120.0));
        }
    }
    DiscretizeOptions opts;
    opts.max_candidates = static_cast<std::size_t>(state.range(0));
    std::size_t candidates = 0;
    for (auto _ : state) {
        auto d = discretize_observation_times(ranges, opts);
        candidates = d.candidates.size();
        benchmark::DoNotOptimize(d);
    }
    state.counters["candidates"] = static_cast<double>(candidates);
}
BENCHMARK(BM_AblationDiscretize)->Arg(0)->Arg(64)->Arg(384);

// End-to-end detection-engine measurement: DetectionAnalyzer::analyze
// over random patterns and a sampled fault universe, once serial
// (num_threads = 1) and once on the shared pool (num_threads = 0).
// The engine counters of both runs go into BENCH_detection.json.
void write_detection_artifact() {
    using fastmon::bench::DetectionBenchEntry;
    const Netlist& nl = test_circuit();
    const DelayAnnotation& delays = test_delays();
    const StaResult sta = StaEngine(nl, delays).analyze();
    const WaveSim sim(nl, delays);

    Prng rng(99);
    const std::size_t n = nl.comb_sources().size();
    std::vector<PatternPair> patterns(64);
    for (auto& p : patterns) {
        p.v1.resize(n);
        p.v2.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            p.v1[i] = rng.chance(0.5) ? 1 : 0;
            p.v2[i] = rng.chance(0.5) ? 1 : 0;
        }
    }

    const FaultUniverse universe = FaultUniverse::generate(nl, delays);
    std::vector<DelayFault> faults;
    for (std::size_t i = 0; i < universe.size(); i += 2) {
        faults.push_back(universe.fault(i));
    }

    std::vector<DetectionBenchEntry> entries;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
        DetectionAnalysisConfig dac;
        dac.glitch_threshold = delays.glitch_threshold();
        dac.horizon = sta.clock_period * 1.02;
        dac.num_threads = threads;
        const DetectionAnalyzer analyzer(sim, patterns, {}, dac);
        const auto ranges = analyzer.analyze(faults);
        benchmark::DoNotOptimize(ranges);
        DetectionBenchEntry e;
        e.name = threads == 1 ? "micro_serial" : "micro_pooled";
        e.counters = analyzer.counters();
        e.num_faults = faults.size();
        e.num_patterns = patterns.size();
        entries.push_back(std::move(e));
    }
    fastmon::bench::write_detection_json("BENCH_detection.json",
                                         "bench_micro", entries);
}

}  // namespace

int main(int argc, char** argv) {
    const fastmon::PhaseStopwatch total_watch;
    std::vector<fastmon::PhaseTime> phases;
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    {
        const fastmon::PhaseStopwatch watch;
        benchmark::RunSpecifiedBenchmarks();
        benchmark::Shutdown();
        phases.push_back(watch.elapsed("google_benchmark"));
    }
    {
        const fastmon::PhaseStopwatch watch;
        write_detection_artifact();
        phases.push_back(watch.elapsed("detection_artifact"));
    }
    fastmon::bench::write_bench_manifest(
        "BENCH_manifest.json", "bench_micro",
        fastmon::bench::BenchSettings::from_env(), phases,
        total_watch.elapsed("total").wall_seconds);
    return 0;
}
