// SAT-based transition-fault test generation.
//
// The whole netlist is Tseitin-encoded ONCE into a two-frame CNF over
// the combinational core: frame 1 (the v1 initialization vector) and
// frame 2 (the v2 launch vector) are independent variable sets, which
// is exactly the enhanced-scan substitution the pattern model uses
// (sim/pattern.hpp) — the frames are not connected through the
// flip-flops.
//
// Per fault *site* a faulty copy of the site's combinational fanout
// cone is encoded lazily and kept: the copy reads the stale frame-1
// value at the site and frame-2 values everywhere else, a RankWorklist
// walk creates its gates in topological-rank order, XOR "difference"
// variables are placed at the observe points the cone reaches (in
// observe-index order), and a single selector-guarded clause
// (~sel | d1 | ... | dk) demands propagation.
// All cone clauses are pure definitions of fresh variables, so they
// never constrain other queries; only the selector literal activates a
// cone.  One cone serves both fault directions.
//
// Each fault then solves under four assumptions — the selector, the
// launch transition at the site (g1 = initial, g2 = !initial) — so the
// solver instance, including every learned clause, is reused across
// the entire fault list.  A periodic rebuild (AtpgConfig::
// sat_restart_period) bounds clause-database growth.
//
// SAT  -> Testable (witness extracted from the model),
// UNSAT -> Untestable (proof under assumptions),
// budget exhausted -> Aborted, mirroring PODEM's backtrack limit.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "atpg/engine.hpp"
#include "netlist/rank_worklist.hpp"
#include "sat/solver.hpp"

namespace fastmon {

struct SatAtpgStats {
    std::uint64_t targets = 0;
    std::uint64_t testable = 0;
    std::uint64_t untestable = 0;
    std::uint64_t aborted = 0;
    std::uint64_t encoded_sites = 0;
    std::uint64_t rebuilds = 0;
    std::uint64_t conflicts = 0;  ///< accumulated across rebuilds
};

class SatAtpg final : public AtpgEngine {
public:
    SatAtpg(const Netlist& netlist, const AtpgConfig& config);
    ~SatAtpg() override;

    [[nodiscard]] std::string_view name() const override { return "sat"; }
    [[nodiscard]] AtpgFaultResult generate(const TdfFault& fault,
                                           Prng& rng) override;

    [[nodiscard]] const SatAtpgStats& stats() const { return stats_; }

private:
    struct SiteCone {
        sat::Lit sel;  ///< assuming this literal activates the cone
        bool feasible = true;  ///< false when the cone reaches no observe point
    };

    void rebuild();
    void encode_frames();
    void encode_gate(const Gate& gate, const std::vector<sat::Var>& frame,
                     sat::Var out);
    SiteCone& site_cone(const FaultSite& site);

    const Netlist* netlist_;
    AtpgConfig config_;
    std::unique_ptr<sat::Solver> solver_;
    std::vector<sat::Var> g1_;  ///< frame-1 variable per netlist node
    std::vector<sat::Var> g2_;  ///< frame-2 variable per netlist node
    /// Encoded fault cones, keyed by (site gate << 32) | pin.
    std::unordered_map<std::uint64_t, SiteCone> cones_;
    /// site_cone() scratch: the frontier walk and the faulty-copy
    /// literal of each gate it encoded.
    RankWorklist work_;
    std::vector<sat::Lit> fval_;
    std::size_t sites_since_rebuild_ = 0;
    SatAtpgStats stats_;
};

}  // namespace fastmon
