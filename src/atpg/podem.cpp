#include "atpg/podem.hpp"

#include <algorithm>
#include <cassert>
#include <optional>

namespace fastmon {

namespace {

// Ternary logic values.
constexpr std::uint8_t T0 = 0;
constexpr std::uint8_t T1 = 1;
constexpr std::uint8_t TX = 2;

/// Five-valued signal as a (good, faulty) ternary pair:
/// D = (1,0), D-bar = (0,1), X = (X,X).
struct V5 {
    std::uint8_t good = TX;
    std::uint8_t faulty = TX;

    [[nodiscard]] bool is_d() const {
        return good != TX && faulty != TX && good != faulty;
    }
    friend bool operator==(const V5&, const V5&) = default;
};

std::uint8_t t_not(std::uint8_t v) {
    return v == TX ? TX : (v == T1 ? T0 : T1);
}

std::uint8_t t_and(std::uint8_t a, std::uint8_t b) {
    if (a == T0 || b == T0) return T0;
    if (a == T1 && b == T1) return T1;
    return TX;
}

std::uint8_t t_or(std::uint8_t a, std::uint8_t b) {
    if (a == T1 || b == T1) return T1;
    if (a == T0 && b == T0) return T0;
    return TX;
}

std::uint8_t t_xor(std::uint8_t a, std::uint8_t b) {
    if (a == TX || b == TX) return TX;
    return a == b ? T0 : T1;
}

/// Ternary (three-valued) gate evaluation with controlling values.
std::uint8_t ternary_eval(CellType type, std::span<const std::uint8_t> ins) {
    switch (type) {
        case CellType::Buf:
        case CellType::Output:
            return ins[0];
        case CellType::Inv:
            return t_not(ins[0]);
        case CellType::And:
        case CellType::Nand: {
            std::uint8_t acc = T1;
            for (std::uint8_t v : ins) acc = t_and(acc, v);
            return type == CellType::And ? acc : t_not(acc);
        }
        case CellType::Or:
        case CellType::Nor: {
            std::uint8_t acc = T0;
            for (std::uint8_t v : ins) acc = t_or(acc, v);
            return type == CellType::Or ? acc : t_not(acc);
        }
        case CellType::Xor:
        case CellType::Xnor: {
            std::uint8_t acc = T0;
            for (std::uint8_t v : ins) acc = t_xor(acc, v);
            return type == CellType::Xor ? acc : t_not(acc);
        }
        case CellType::Mux2: {
            if (ins[0] == T0) return ins[1];
            if (ins[0] == T1) return ins[2];
            // Select unknown: defined only if both data inputs agree.
            return (ins[1] == ins[2] && ins[1] != TX) ? ins[1] : TX;
        }
        case CellType::Aoi21:
            return t_not(t_or(t_and(ins[0], ins[1]), ins[2]));
        case CellType::Oai21:
            return t_not(t_and(t_or(ins[0], ins[1]), ins[2]));
        default:
            return TX;
    }
}

/// Does this cell type invert the chosen input on a sensitized path?
/// (Heuristic for backtrace; correctness is preserved by backtracking.)
bool inverting(CellType type) {
    switch (type) {
        case CellType::Inv:
        case CellType::Nand:
        case CellType::Nor:
        case CellType::Xnor:
        case CellType::Aoi21:
        case CellType::Oai21:
            return true;
        default:
            return false;
    }
}

bool not_dff(CellType type) { return type != CellType::Dff; }

/// Non-controlling input value used to sensitize a gate (heuristic).
bool noncontrolling(CellType type) {
    switch (type) {
        case CellType::And:
        case CellType::Nand:
            return true;
        case CellType::Or:
        case CellType::Nor:
            return false;
        default:
            return false;
    }
}

struct Objective {
    GateId signal = kNoGate;
    bool value = false;
};

}  // namespace

struct PodemEngine {
    const Netlist& nl;
    const FaultSite site;
    const bool stuck_value;
    const bool propagate;  ///< false for pure justification
    const std::size_t backtrack_limit;
    RankWorklist& work;

    std::vector<V5> values;
    std::vector<Bit> source_vals;      // only meaningful where source_set
    std::vector<bool> source_set;
    /// Combinational fanout cone of the site gate (itself included), in
    /// topological-rank order; built only when propagating.
    std::vector<GateId> site_cone;
    /// x_path_map() result, valid over site_cone.
    std::vector<std::int8_t> x_path;
    std::size_t backtracks = 0;

    PodemEngine(const Netlist& netlist, const FaultSite& s, bool sv,
                bool prop, std::size_t limit, RankWorklist& worklist)
        : nl(netlist),
          site(s),
          stuck_value(sv),
          propagate(prop),
          backtrack_limit(limit),
          work(worklist),
          values(netlist.size()),
          source_vals(netlist.comb_sources().size(), 0),
          source_set(netlist.comb_sources().size(), false) {
        if (!propagate) return;
        work.begin(nl);
        work.push(site.gate);
        while (!work.empty()) {
            const GateId id = work.pop();
            if (is_combinational(nl.gate(id).type)) site_cone.push_back(id);
            work.push_fanouts(id, is_combinational);
        }
        x_path.resize(nl.size());
    }

    /// Recomputes the value of one non-source node from its fanins,
    /// applying the fault injection at the site.
    void eval_node(GateId id) {
        const Gate& g = nl.gate(id);
        const auto arity = static_cast<std::uint32_t>(g.fanin.size());
        std::uint8_t gin[8];
        std::uint8_t fin[8];
        for (std::uint32_t p = 0; p < arity; ++p) {
            gin[p] = values[g.fanin[p]].good;
            fin[p] = values[g.fanin[p]].faulty;
        }
        // Branch fault injection: the faulty circuit sees the stuck
        // value on this one pin.
        if (propagate && id == site.gate &&
            site.pin != FaultSite::kOutputPin) {
            fin[site.pin] = stuck_value ? T1 : T0;
        }
        V5 v;
        if (g.type == CellType::Output) {
            v = V5{gin[0], fin[0]};
        } else {
            v.good = ternary_eval(g.type,
                                  std::span<const std::uint8_t>(gin, arity));
            v.faulty = ternary_eval(g.type,
                                    std::span<const std::uint8_t>(fin, arity));
        }
        // Stem fault injection at the gate output.
        if (propagate && id == site.gate &&
            site.pin == FaultSite::kOutputPin) {
            v.faulty = stuck_value ? T1 : T0;
        }
        values[id] = v;
    }

    [[nodiscard]] V5 source_value(std::uint32_t src) const {
        const std::uint8_t v =
            source_set[src] ? (source_vals[src] != 0 ? T1 : T0) : TX;
        return V5{v, v};
    }

    /// Event-driven implication: re-evaluates queued gates in rank
    /// order, queuing the non-Dff fanouts of each one that changed.
    void imply_queued() {
        while (!work.empty()) {
            const GateId id = work.pop();
            const V5 before = values[id];
            eval_node(id);
            if (values[id] != before) work.push_fanouts(id, not_dff);
        }
    }

    /// Initial implication: with every source X, only the fault
    /// injected at a non-source site gate can move a value off X.
    void imply() {
        work.begin(nl);
        if (propagate && nl.source_index(site.gate) ==
                             std::numeric_limits<std::uint32_t>::max()) {
            work.push(site.gate);
        }
        imply_queued();
    }

    /// Implication after (un)assigning one source.
    void imply_from(std::uint32_t src) {
        const GateId source = nl.comb_sources()[src];
        values[source] = source_value(src);
        work.begin(nl);
        work.push_fanouts(source, not_dff);
        imply_queued();
    }

    [[nodiscard]] bool effect_at_output() const {
        for (const ObservePoint& op : nl.observe_points()) {
            if (values[op.signal].is_d()) return true;
        }
        return false;
    }

    /// True once the fault is activated (good side of the faulted line
    /// at the non-stuck value).
    [[nodiscard]] std::uint8_t line_good_value() const {
        return values[fault_site_signal(nl, site)].good;
    }

    /// X-path check into x_path: for every gate in the site cone, can a
    /// change still reach an observation point through X-valued (or
    /// D-carrying) signals?  One reverse sweep rewrites the cone.
    void x_path_map() {
        for (auto it = site_cone.rbegin(); it != site_cone.rend(); ++it) {
            const GateId id = *it;
            std::int8_t reach = 0;
            for (GateId out : nl.gate(id).fanout) {
                const Gate& og = nl.gate(out);
                if (og.type == CellType::Output || og.type == CellType::Dff) {
                    reach = 1;  // observation point (D pin / pad)
                    break;
                }
                const V5& ov = values[out];
                const bool open = ov.good == TX || ov.faulty == TX;
                if (open && x_path[out] != 0) {
                    reach = 1;
                    break;
                }
            }
            x_path[id] = reach;
        }
    }

    [[nodiscard]] std::optional<Objective> next_objective() {
        const std::uint8_t lv = line_good_value();
        const std::uint8_t want = stuck_value ? T0 : T1;
        if (lv == TX) {
            return Objective{fault_site_signal(nl, site), want == T1};
        }
        if (lv != want) return std::nullopt;  // activation conflict
        if (!propagate) return std::nullopt;  // justification done/failed
        // D-frontier: X-output gates with a D on some input; pick the
        // shallowest one that still has an X-path to an observation
        // point.  The frontier can only live in the fanout cone of the
        // fault site.
        x_path_map();
        GateId best = kNoGate;
        for (GateId id : site_cone) {
            const Gate& g = nl.gate(id);
            const V5& out = values[id];
            if (out.good != TX && out.faulty != TX) continue;
            bool has_d = false;
            for (GateId f : g.fanin) {
                if (values[f].is_d()) {
                    has_d = true;
                    break;
                }
            }
            // The faulted gate's injected branch D is not visible in
            // values[]; treat it as a frontier member when activated.
            if (id == site.gate && site.pin != FaultSite::kOutputPin) {
                has_d = true;
            }
            if (!has_d) continue;
            if (x_path[id] == 0) continue;  // effect can no longer reach
            if (best == kNoGate || nl.level(id) < nl.level(best)) best = id;
        }
        if (best == kNoGate) return std::nullopt;
        const Gate& g = nl.gate(best);
        for (GateId f : g.fanin) {
            if (values[f].good == TX) {
                return Objective{f, noncontrolling(g.type)};
            }
        }
        return std::nullopt;
    }

    /// X-valued fanin with extreme logic level: `hardest` selects the
    /// deepest (to satisfy all-inputs objectives early), otherwise the
    /// shallowest (easiest single-input objective).
    [[nodiscard]] GateId pick_x_fanin(const Gate& g, bool hardest) const {
        GateId pick = kNoGate;
        for (GateId f : g.fanin) {
            if (values[f].good != TX) continue;
            if (pick == kNoGate ||
                (hardest ? nl.level(f) > nl.level(pick)
                         : nl.level(f) < nl.level(pick))) {
                pick = f;
            }
        }
        return pick;
    }

    /// Maps an objective to a source assignment through X-valued lines
    /// using the classic goal-directed heuristic: descend into the
    /// easiest input when any controlling value suffices, the hardest
    /// when all inputs must be non-controlling.
    [[nodiscard]] std::optional<std::pair<std::uint32_t, bool>> backtrace(
        Objective obj) const {
        GateId s = obj.signal;
        bool v = obj.value;
        for (std::size_t guard = 0; guard < nl.size() + 1; ++guard) {
            const std::uint32_t src = nl.source_index(s);
            if (src != std::numeric_limits<std::uint32_t>::max()) {
                if (source_set[src]) return std::nullopt;
                return std::make_pair(src, v);
            }
            const Gate& g = nl.gate(s);
            GateId next = kNoGate;
            bool next_v = v;
            switch (g.type) {
                case CellType::And:
                case CellType::Nand: {
                    const bool out_and = g.type == CellType::And ? v : !v;
                    // 1: all inputs 1 (hardest first); 0: any input 0.
                    next = pick_x_fanin(g, out_and);
                    next_v = out_and;
                    break;
                }
                case CellType::Or:
                case CellType::Nor: {
                    const bool out_or = g.type == CellType::Or ? v : !v;
                    // 1: any input 1 (easiest); 0: all inputs 0.
                    next = pick_x_fanin(g, !out_or);
                    next_v = out_or;
                    break;
                }
                case CellType::Inv:
                    next = values[g.fanin[0]].good == TX ? g.fanin[0] : kNoGate;
                    next_v = !v;
                    break;
                case CellType::Buf:
                case CellType::Output:
                    next = values[g.fanin[0]].good == TX ? g.fanin[0] : kNoGate;
                    break;
                case CellType::Xor:
                case CellType::Xnor: {
                    // Choose an X input; if it is the only X, its value
                    // is determined by the parity of the known inputs.
                    next = pick_x_fanin(g, false);
                    if (next == kNoGate) break;
                    bool parity = g.type == CellType::Xnor ? !v : v;
                    std::size_t n_x = 0;
                    for (GateId f : g.fanin) {
                        if (values[f].good == TX) {
                            ++n_x;
                        } else if (values[f].good == T1) {
                            parity = !parity;
                        }
                    }
                    next_v = n_x == 1 ? parity : v;
                    break;
                }
                case CellType::Mux2: {
                    // Select known: descend the selected data input.
                    if (values[g.fanin[0]].good == T0 &&
                        values[g.fanin[1]].good == TX) {
                        next = g.fanin[1];
                    } else if (values[g.fanin[0]].good == T1 &&
                               values[g.fanin[2]].good == TX) {
                        next = g.fanin[2];
                    } else {
                        next = pick_x_fanin(g, false);
                    }
                    break;
                }
                default:
                    // AOI/OAI: heuristic descent with inversion.
                    next = pick_x_fanin(g, false);
                    next_v = inverting(g.type) ? !v : v;
                    break;
            }
            if (next == kNoGate) return std::nullopt;
            v = next_v;
            s = next;
        }
        return std::nullopt;
    }

    [[nodiscard]] PodemStatus run() {
        struct Decision {
            std::uint32_t src;
            bool tried_both;
        };
        std::vector<Decision> stack;
        imply();

        for (;;) {
            // Success?
            if (propagate) {
                if (effect_at_output()) return PodemStatus::Success;
            } else {
                const std::uint8_t lv = line_good_value();
                const std::uint8_t want = stuck_value ? T0 : T1;
                if (lv == want) return PodemStatus::Success;
            }

            const auto obj = next_objective();
            std::optional<std::pair<std::uint32_t, bool>> assign;
            if (obj) assign = backtrace(*obj);

            if (assign) {
                source_set[assign->first] = true;
                source_vals[assign->first] = assign->second ? 1 : 0;
                stack.push_back(Decision{assign->first, false});
                imply_from(assign->first);
                continue;
            }

            // Dead end: backtrack.
            for (;;) {
                if (stack.empty()) return PodemStatus::Untestable;
                if (++backtracks > backtrack_limit) {
                    return PodemStatus::Aborted;
                }
                Decision& d = stack.back();
                if (!d.tried_both) {
                    d.tried_both = true;
                    source_vals[d.src] ^= 1;
                    imply_from(d.src);
                    break;
                }
                source_set[d.src] = false;
                imply_from(d.src);
                stack.pop_back();
            }
        }
    }
};

Podem::Podem(const Netlist& netlist, std::size_t backtrack_limit)
    : netlist_(&netlist), backtrack_limit_(backtrack_limit) {}

namespace {

PodemResult finish(const PodemEngine& engine, PodemStatus status) {
    PodemResult r;
    r.status = status;
    r.backtracks = engine.backtracks;
    r.vector = engine.source_vals;
    r.assigned = engine.source_set;
    return r;
}

}  // namespace

PodemResult Podem::generate_test(const FaultSite& site,
                                 bool stuck_value) const {
    PodemEngine engine(*netlist_, site, stuck_value, true, backtrack_limit_,
                       worklist_);
    const PodemStatus status = engine.run();
    return finish(engine, status);
}

PodemResult Podem::justify(const FaultSite& site, bool value) const {
    // Justification of "line = value" is PODEM for stuck-at !value with
    // the propagation requirement dropped.
    PodemEngine engine(*netlist_, site, !value, false, backtrack_limit_,
                       worklist_);
    const PodemStatus status = engine.run();
    return finish(engine, status);
}

}  // namespace fastmon
