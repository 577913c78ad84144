#include "atpg/sat_atpg.hpp"

#include <algorithm>
#include <cassert>

#include "util/metrics.hpp"

namespace fastmon {

namespace {

using sat::Lit;
using sat::Solver;
using sat::Var;

/// Literal asserting "variable == value".
Lit lit_is(Var v, bool value) { return Lit(v, !value); }

/// out <-> AND(in...)
void enc_and(Solver& s, Lit out, std::span<const Lit> in) {
    std::vector<Lit> big;
    big.reserve(in.size() + 1);
    for (Lit l : in) {
        s.add_clause({~out, l});
        big.push_back(~l);
    }
    big.push_back(out);
    s.add_clause(std::span<const Lit>(big.data(), big.size()));
}

/// out <-> OR(in...)
void enc_or(Solver& s, Lit out, std::span<const Lit> in) {
    std::vector<Lit> big;
    big.reserve(in.size() + 1);
    for (Lit l : in) {
        s.add_clause({out, ~l});
        big.push_back(l);
    }
    big.push_back(~out);
    s.add_clause(std::span<const Lit>(big.data(), big.size()));
}

/// out <-> a XOR b
void enc_xor2(Solver& s, Lit out, Lit a, Lit b) {
    s.add_clause({~out, a, b});
    s.add_clause({~out, ~a, ~b});
    s.add_clause({out, ~a, b});
    s.add_clause({out, a, ~b});
}

/// out <-> in
void enc_eq(Solver& s, Lit out, Lit in) {
    s.add_clause({~out, in});
    s.add_clause({out, ~in});
}

/// Tseitin encoding of one library cell: out <-> f(in...).  Matches
/// eval_cell() bit for bit (n-ary XOR/XNOR are parity chains).
void encode_cell(Solver& s, CellType type, Lit out, std::span<const Lit> in) {
    switch (type) {
        case CellType::Buf:
            enc_eq(s, out, in[0]);
            return;
        case CellType::Inv:
            enc_eq(s, out, ~in[0]);
            return;
        case CellType::And:
            enc_and(s, out, in);
            return;
        case CellType::Nand:
            enc_and(s, ~out, in);
            return;
        case CellType::Or:
            enc_or(s, out, in);
            return;
        case CellType::Nor:
            enc_or(s, ~out, in);
            return;
        case CellType::Xor:
        case CellType::Xnor: {
            const Lit target = type == CellType::Xor ? out : ~out;
            if (in.size() == 1) {
                enc_eq(s, target, in[0]);
                return;
            }
            Lit acc = in[0];
            for (std::size_t i = 1; i + 1 < in.size(); ++i) {
                const Lit t = sat::mk_lit(s.new_var());
                enc_xor2(s, t, acc, in[i]);
                acc = t;
            }
            enc_xor2(s, target, acc, in.back());
            return;
        }
        case CellType::Mux2:
            // in[0] ? in[2] : in[1]
            s.add_clause({in[0], ~in[1], out});
            s.add_clause({in[0], in[1], ~out});
            s.add_clause({~in[0], ~in[2], out});
            s.add_clause({~in[0], in[2], ~out});
            return;
        case CellType::Aoi21: {
            // !((a & b) | c)
            const Lit t = sat::mk_lit(s.new_var());
            const Lit ab[] = {in[0], in[1]};
            enc_and(s, t, ab);
            const Lit tc[] = {t, in[2]};
            enc_or(s, ~out, tc);
            return;
        }
        case CellType::Oai21: {
            // !((a | b) & c)
            const Lit t = sat::mk_lit(s.new_var());
            const Lit ab[] = {in[0], in[1]};
            enc_or(s, t, ab);
            const Lit tc[] = {t, in[2]};
            enc_and(s, ~out, tc);
            return;
        }
        default:
            assert(false && "encode_cell: not a combinational cell");
    }
}

}  // namespace

SatAtpg::SatAtpg(const Netlist& netlist, const AtpgConfig& config)
    : netlist_(&netlist), config_(config) {
    solver_ = std::make_unique<Solver>();
    encode_frames();
}

SatAtpg::~SatAtpg() = default;

void SatAtpg::encode_frames() {
    const Netlist& nl = *netlist_;
    g1_.resize(nl.size());
    g2_.resize(nl.size());
    for (GateId id = 0; id < nl.size(); ++id) {
        g1_[id] = solver_->new_var();
        g2_[id] = solver_->new_var();
    }
    // Sources (Input, Dff-as-Q) stay free variables; Output pads carry
    // no logic and their variables are never referenced.
    for (GateId id : nl.topo_order()) {
        const Gate& g = nl.gate(id);
        if (!is_combinational(g.type)) continue;
        encode_gate(g, g1_, g1_[id]);
        encode_gate(g, g2_, g2_[id]);
    }
}

void SatAtpg::encode_gate(const Gate& gate, const std::vector<Var>& frame,
                          Var out) {
    std::vector<Lit> in;
    in.reserve(gate.fanin.size());
    for (GateId f : gate.fanin) in.push_back(sat::mk_lit(frame[f]));
    encode_cell(*solver_, gate.type, sat::mk_lit(out),
                std::span<const Lit>(in.data(), in.size()));
}

void SatAtpg::rebuild() {
    solver_ = std::make_unique<Solver>();
    cones_.clear();
    encode_frames();
    sites_since_rebuild_ = 0;
    ++stats_.rebuilds;
}

SatAtpg::SiteCone& SatAtpg::site_cone(const FaultSite& site) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(site.gate) << 32) | site.pin;
    if (auto it = cones_.find(key); it != cones_.end()) return it->second;

    if (config_.sat_restart_period != 0 &&
        sites_since_rebuild_ >= config_.sat_restart_period) {
        rebuild();
    }

    const Netlist& nl = *netlist_;
    Solver& s = *solver_;

    // Faulty copy of the site's combinational fanout cone in rank order;
    // fval_[g] is valid where the walk marked g changed.  The stale value
    // is the frame-1 value of the site *signal*, so one cone serves both
    // fault directions.  All clauses define fresh variables — no
    // selector guard needed; they cannot constrain other queries.
    work_.begin(nl);
    fval_.resize(nl.size());
    std::vector<std::uint32_t> observed;  // observe indices reached
    auto settle = [&](GateId id) {
        work_.mark_changed(id);
        const auto obs = nl.observe_indices(id);
        observed.insert(observed.end(), obs.begin(), obs.end());
        work_.push_fanouts(id, is_combinational);
    };
    std::vector<Lit> in;
    auto encode_faulty = [&](GateId id) {
        const Gate& g = nl.gate(id);
        in.clear();
        for (std::uint32_t p = 0; p < g.fanin.size(); ++p) {
            const GateId f = g.fanin[p];
            const bool stale = id == site.gate && p == site.pin;
            in.push_back(stale              ? sat::mk_lit(g1_[f])
                         : work_.changed(f) ? fval_[f]
                                            : sat::mk_lit(g2_[f]));
        }
        fval_[id] = sat::mk_lit(s.new_var());
        encode_cell(s, g.type, fval_[id],
                    std::span<const Lit>(in.data(), in.size()));
        settle(id);
    };
    if (site.pin == FaultSite::kOutputPin) {
        fval_[site.gate] = sat::mk_lit(g1_[site.gate]);
        settle(site.gate);
    } else {
        encode_faulty(site.gate);
    }
    while (!work_.empty()) encode_faulty(work_.pop());

    // Difference indicators at every observe point the cone reaches, in
    // observe-index order, plus the selector-guarded propagation demand.
    std::sort(observed.begin(), observed.end());
    SiteCone cone;
    cone.sel = sat::mk_lit(s.new_var());
    std::vector<Lit> prop{~cone.sel};
    const auto ops = nl.observe_points();
    for (std::uint32_t oi : observed) {
        const GateId sig = ops[oi].signal;
        const Lit d = sat::mk_lit(s.new_var());
        enc_xor2(s, d, fval_[sig], sat::mk_lit(g2_[sig]));
        prop.push_back(d);
    }
    cone.feasible = prop.size() > 1;
    s.add_clause(std::span<const Lit>(prop.data(), prop.size()));

    ++sites_since_rebuild_;
    ++stats_.encoded_sites;
    return cones_.emplace(key, cone).first->second;
}

AtpgFaultResult SatAtpg::generate(const TdfFault& fault, Prng& rng) {
    (void)rng;  // SAT models are total: nothing left to fill
    AtpgFaultResult result;
    ++stats_.targets;

    const SiteCone cone = site_cone(fault.site);  // may rebuild the solver
    const GateId sig = fault_site_signal(*netlist_, fault.site);
    if (!cone.feasible) {
        // The site reaches no observe point: structurally redundant.
        result.verdict = AtpgVerdict::Untestable;
        ++stats_.untestable;
        return result;
    }

    // Launch-on-capture activation: v1 parks the site at the initial
    // value, v2 launches the transition (STR: 0 -> 1).
    const bool initial = !fault.slow_rising;
    const Lit assumptions[] = {
        cone.sel,
        lit_is(g1_[sig], initial),
        lit_is(g2_[sig], !initial),
    };

    solver_->set_conflict_budget(config_.sat_conflict_budget);
    const std::uint64_t before = solver_->stats().conflicts;
    const sat::SolveStatus status = solver_->solve(assumptions);
    const std::uint64_t spent = solver_->stats().conflicts - before;
    stats_.conflicts += spent;
    result.effort = spent;

    switch (status) {
        case sat::SolveStatus::Sat: {
            result.verdict = AtpgVerdict::Testable;
            ++stats_.testable;
            const auto sources = netlist_->comb_sources();
            result.pattern.v1.resize(sources.size());
            result.pattern.v2.resize(sources.size());
            for (std::size_t i = 0; i < sources.size(); ++i) {
                result.pattern.v1[i] =
                    solver_->model_value(g1_[sources[i]]) ? 1 : 0;
                result.pattern.v2[i] =
                    solver_->model_value(g2_[sources[i]]) ? 1 : 0;
            }
            break;
        }
        case sat::SolveStatus::Unsat:
            result.verdict = AtpgVerdict::Untestable;
            ++stats_.untestable;
            break;
        case sat::SolveStatus::Unknown:
            result.verdict = AtpgVerdict::Aborted;
            ++stats_.aborted;
            break;
    }

    MetricsRegistry::global().counter("atpg.sat.solves").add(1);
    return result;
}

}  // namespace fastmon
