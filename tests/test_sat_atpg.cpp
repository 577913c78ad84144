// SAT-based transition-fault ATPG (atpg/sat_atpg.hpp, atpg/engine.hpp).
//
// The load-bearing checks:
//   * differential: PODEM (with an effectively unlimited backtrack
//     budget) and the SAT engine agree on testable/untestable for every
//     fault of the embedded ISCAS-style suite and a generated paper
//     profile — and every SAT witness is validated by the reference
//     transition-fault simulator, so the CNF encoding is checked
//     against an independent semantics, not against itself;
//   * completeness where PODEM gives up: on a generated s9234 profile
//     with a tiny backtrack limit PODEM aborts on hundreds of faults;
//     the SAT engine must resolve every one of them;
//   * the AtpgEngine seam: the factory returns the right engine,
//     auto mode falls back PODEM -> SAT, and the injected
//     solver.sat_budget fault surfaces as an Aborted verdict rather
//     than a wrong answer.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "atpg/engine.hpp"
#include "atpg/sat_atpg.hpp"
#include "atpg/tdf_atpg.hpp"
#include "atpg/tfault_sim.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas_data.hpp"
#include "netlist/structures.hpp"
#include "util/fault_inject.hpp"
#include "util/prng.hpp"

namespace fastmon {
namespace {

Netlist generated_s9234() {
    GeneratorConfig cfg = profile_config(find_profile("s9234"), 0.05);
    cfg.seed = 11;
    return generate_circuit(cfg);
}

struct DifferentialCounts {
    int testable = 0;
    int untestable = 0;
    int mismatches = 0;
    int aborts = 0;
    int bad_witnesses = 0;
    std::size_t unconfirmed = 0;  ///< over both engines' generate_tdf_tests
};

/// Runs every fault of `nl` through PODEM (large backtrack budget) and
/// the SAT engine (unlimited conflicts) and cross-checks the verdicts;
/// testable SAT faults additionally get their witness validated with
/// TransitionFaultSim::detect_mask.
DifferentialCounts run_differential(const Netlist& nl) {
    AtpgConfig podem_cfg;
    podem_cfg.engine = AtpgEngineKind::Podem;
    podem_cfg.podem_backtrack_limit = 100000;
    AtpgConfig sat_cfg;
    sat_cfg.engine = AtpgEngineKind::Sat;
    sat_cfg.sat_conflict_budget = 0;  // unlimited

    const auto podem = make_atpg_engine(nl, podem_cfg);
    const auto sat = make_atpg_engine(nl, sat_cfg);
    Prng rng(7);
    TransitionFaultSim sim(nl);

    DifferentialCounts counts;
    for (const TdfFault& fault : enumerate_tdf_faults(nl)) {
        const AtpgFaultResult rp = podem->generate(fault, rng);
        const AtpgFaultResult rs = sat->generate(fault, rng);
        if (rp.verdict == AtpgVerdict::Aborted ||
            rs.verdict == AtpgVerdict::Aborted) {
            ++counts.aborts;
            continue;
        }
        if (rp.verdict != rs.verdict) {
            ++counts.mismatches;
            ADD_FAILURE() << nl.name() << " gate " << fault.site.gate
                          << " pin " << static_cast<int>(fault.site.pin)
                          << " slow_rising " << fault.slow_rising
                          << ": podem=" << static_cast<int>(rp.verdict)
                          << " sat=" << static_cast<int>(rs.verdict);
            continue;
        }
        if (rs.verdict == AtpgVerdict::Testable) {
            ++counts.testable;
            std::vector<PatternPair> one{rs.pattern};
            const auto values = sim.evaluate(sim.pack(one, 0));
            if ((sim.detect_mask(fault, values) & 1ULL) == 0) {
                ++counts.bad_witnesses;
                ADD_FAILURE() << nl.name() << " gate " << fault.site.gate
                              << ": SAT witness does not detect the fault";
            }
        } else {
            ++counts.untestable;
        }
    }
    // The full ATPG flow with every fault targeted (no random phase):
    // each engine's Testable witness must detect its own target.
    for (AtpgConfig cfg : {podem_cfg, sat_cfg}) {
        cfg.max_random_batches = 0;
        counts.unconfirmed += generate_tdf_tests(nl, cfg).num_unconfirmed;
    }
    return counts;
}

TEST(SatAtpg, DifferentialAgreesOnEmbeddedCircuits) {
    for (const char* name : {"s27", "mini_adder", "mini_alu"}) {
        const DifferentialCounts c = run_differential(make_embedded_circuit(name));
        EXPECT_EQ(c.mismatches, 0) << name;
        EXPECT_EQ(c.bad_witnesses, 0) << name;
        EXPECT_EQ(c.unconfirmed, 0u) << name;
        EXPECT_EQ(c.aborts, 0) << name;
        EXPECT_GT(c.testable, 0) << name;
    }
}

TEST(SatAtpg, DifferentialAgreesOnParityTree) {
    const DifferentialCounts c = run_differential(make_parity_tree(4));
    EXPECT_EQ(c.mismatches, 0);
    EXPECT_EQ(c.bad_witnesses, 0);
    EXPECT_EQ(c.unconfirmed, 0u);
    EXPECT_EQ(c.aborts, 0);
    EXPECT_GT(c.testable, 0);
}

TEST(SatAtpg, DifferentialAgreesOnGeneratedProfile) {
    // A generated paper profile with redundancy: both engines must
    // agree on a substantial untestable population, not just the easy
    // testable faults.
    const DifferentialCounts c = run_differential(generated_s9234());
    EXPECT_EQ(c.mismatches, 0);
    EXPECT_EQ(c.bad_witnesses, 0);
    EXPECT_EQ(c.unconfirmed, 0u);
    EXPECT_EQ(c.aborts, 0);
    EXPECT_GT(c.testable, 0);
    EXPECT_GT(c.untestable, 0);
}

TEST(SatAtpg, ResolvesEveryPodemAbort) {
    // With a 5-backtrack limit PODEM gives up on hundreds of faults of
    // the generated s9234 profile.  The SAT engine (complete, unlimited
    // conflicts) must turn every abort into a definite verdict — the
    // headline property of the redesign.
    const Netlist nl = generated_s9234();
    AtpgConfig podem_cfg;
    podem_cfg.engine = AtpgEngineKind::Podem;
    podem_cfg.podem_backtrack_limit = 5;
    AtpgConfig sat_cfg;
    sat_cfg.engine = AtpgEngineKind::Sat;
    sat_cfg.sat_conflict_budget = 0;

    const auto podem = make_atpg_engine(nl, podem_cfg);
    const auto sat = make_atpg_engine(nl, sat_cfg);
    Prng rng(7);

    int podem_aborts = 0;
    int sat_resolved = 0;
    for (const TdfFault& fault : enumerate_tdf_faults(nl)) {
        if (podem->generate(fault, rng).verdict != AtpgVerdict::Aborted) continue;
        ++podem_aborts;
        const AtpgFaultResult rs = sat->generate(fault, rng);
        if (rs.verdict != AtpgVerdict::Aborted) ++sat_resolved;
    }
    EXPECT_GT(podem_aborts, 100);  // the limit actually bites
    EXPECT_EQ(sat_resolved, podem_aborts);
}

TEST(SatAtpg, AutoModeFallsBackToSat) {
    // Same setup as above through the Auto engine: no fault may end
    // Aborted, because SAT picks up everything PODEM drops.
    const Netlist nl = generated_s9234();
    AtpgConfig cfg;
    cfg.engine = AtpgEngineKind::Auto;
    cfg.podem_backtrack_limit = 5;
    cfg.sat_conflict_budget = 0;
    const auto engine = make_atpg_engine(nl, cfg);
    Prng rng(7);
    for (const TdfFault& fault : enumerate_tdf_faults(nl)) {
        EXPECT_NE(engine->generate(fault, rng).verdict, AtpgVerdict::Aborted);
    }
}

TEST(SatAtpg, EngineFactoryAndNames) {
    const Netlist nl = make_s27();
    for (const auto kind :
         {AtpgEngineKind::Podem, AtpgEngineKind::Sat, AtpgEngineKind::Auto}) {
        AtpgConfig cfg;
        cfg.engine = kind;
        const auto engine = make_atpg_engine(nl, cfg);
        ASSERT_NE(engine, nullptr);
        EXPECT_EQ(engine->name(), atpg_engine_kind_name(kind));
    }
    EXPECT_EQ(atpg_engine_kind_from_name("sat"), AtpgEngineKind::Sat);
    EXPECT_EQ(atpg_engine_kind_from_name("podem"), AtpgEngineKind::Podem);
    EXPECT_EQ(atpg_engine_kind_from_name("auto"), AtpgEngineKind::Auto);
    EXPECT_FALSE(atpg_engine_kind_from_name("dpll").has_value());
}

TEST(SatAtpg, ConflictBudgetAborts) {
    // A 1-conflict budget on a hard fault population must surface as
    // Aborted verdicts (never silently wrong answers); unlimited budget
    // resolves the same faults.
    const Netlist nl = generated_s9234();
    AtpgConfig tiny;
    tiny.engine = AtpgEngineKind::Sat;
    tiny.sat_conflict_budget = 1;
    AtpgConfig full;
    full.engine = AtpgEngineKind::Sat;
    full.sat_conflict_budget = 0;
    const auto engine_tiny = make_atpg_engine(nl, tiny);
    const auto engine_full = make_atpg_engine(nl, full);
    Prng rng(7);
    int aborted = 0;
    int checked = 0;
    for (const TdfFault& fault : enumerate_tdf_faults(nl)) {
        const AtpgFaultResult rt = engine_tiny->generate(fault, rng);
        if (rt.verdict != AtpgVerdict::Aborted) continue;
        ++aborted;
        if (checked < 16) {  // spot-check: full budget resolves them
            ++checked;
            EXPECT_NE(engine_full->generate(fault, rng).verdict,
                      AtpgVerdict::Aborted);
        }
    }
    EXPECT_GT(aborted, 0);
}

TEST(SatAtpg, InjectedBudgetFaultSurfacesAsAbort) {
    // FASTMON_FAULT_INJECT=solver.sat_budget forces the solver's
    // Unknown path; the engine must report Aborted for that fault and
    // keep answering correctly afterwards.
    const Netlist nl = make_s27();
    AtpgConfig cfg;
    cfg.engine = AtpgEngineKind::Sat;
    const auto engine = make_atpg_engine(nl, cfg);
    Prng rng(7);
    const auto faults = enumerate_tdf_faults(nl);
    ASSERT_FALSE(faults.empty());

    FaultInjector::global().reset();
    FaultInjector::global().arm("solver.sat_budget");
    const AtpgFaultResult tripped = engine->generate(faults[0], rng);
    FaultInjector::global().reset();
    EXPECT_EQ(tripped.verdict, AtpgVerdict::Aborted);

    const AtpgFaultResult clean = engine->generate(faults[0], rng);
    EXPECT_NE(clean.verdict, AtpgVerdict::Aborted);
}

TEST(SatAtpg, SolverReuseMatchesFreshSolvers) {
    // sat_restart_period=1 rebuilds the solver for every fault site;
    // the default keeps one incremental solver.  Verdicts must be
    // identical — learned clauses may only prune search, never change
    // answers.
    const Netlist nl = make_mini_alu();
    AtpgConfig keep;
    keep.engine = AtpgEngineKind::Sat;
    keep.sat_restart_period = 0;  // never rebuild
    AtpgConfig fresh;
    fresh.engine = AtpgEngineKind::Sat;
    fresh.sat_restart_period = 1;  // rebuild per site
    const auto engine_keep = make_atpg_engine(nl, keep);
    const auto engine_fresh = make_atpg_engine(nl, fresh);
    Prng rng(7);
    for (const TdfFault& fault : enumerate_tdf_faults(nl)) {
        EXPECT_EQ(engine_keep->generate(fault, rng).verdict,
                  engine_fresh->generate(fault, rng).verdict);
    }
}

}  // namespace
}  // namespace fastmon
