#include "netlist/netlist.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

namespace fastmon {

GateId Netlist::add_gate(CellType type, std::string name,
                         std::vector<GateId> fanin) {
    if (finalized_) {
        throw std::logic_error("Netlist::add_gate after finalize()");
    }
    if (by_name_.contains(name)) {
        throw std::runtime_error("duplicate gate name: " + name);
    }
    for (GateId f : fanin) {
        if (f >= gates_.size()) {
            throw std::runtime_error("fanin id out of range for gate " + name);
        }
    }
    const auto id = static_cast<GateId>(gates_.size());
    by_name_.emplace(name, id);
    gates_.push_back(Gate{std::move(name), type, std::move(fanin), {}});
    switch (type) {
        case CellType::Input: inputs_.push_back(id); break;
        case CellType::Output: outputs_.push_back(id); break;
        case CellType::Dff: dffs_.push_back(id); break;
        default: ++num_comb_; break;
    }
    return id;
}

void Netlist::append_fanin(GateId gate, GateId driver) {
    if (finalized_) {
        throw std::logic_error("Netlist::append_fanin after finalize()");
    }
    Gate& g = gates_.at(gate);
    if (g.fanin.size() + 1 > max_arity(g.type)) {
        throw std::runtime_error("append_fanin: arity limit on " + g.name);
    }
    g.fanin.push_back(driver);
}

GateId Netlist::find(std::string_view name) const {
    auto it = by_name_.find(std::string(name));
    return it == by_name_.end() ? kNoGate : it->second;
}

void Netlist::finalize() {
    if (finalized_) return;
    const auto n = static_cast<GateId>(gates_.size());

    for (GateId id = 0; id < n; ++id) {
        const Gate& g = gates_[id];
        const auto arity = static_cast<std::uint32_t>(g.fanin.size());
        if (arity < min_arity(g.type) || arity > max_arity(g.type)) {
            throw std::runtime_error("invalid arity " + std::to_string(arity) +
                                     " for " + std::string(cell_type_name(g.type)) +
                                     " gate " + g.name);
        }
    }

    // Fanout lists.
    for (GateId id = 0; id < n; ++id) {
        for (GateId f : gates_[id].fanin) {
            gates_[f].fanout.push_back(id);
        }
    }

    // Kahn's algorithm on the combinational core.  Input and Dff nodes
    // are sources (a Dff consumes its D fanin but its Q output does not
    // depend on it within one clock cycle).
    std::vector<std::uint32_t> pending(n, 0);
    std::deque<GateId> ready;
    for (GateId id = 0; id < n; ++id) {
        const Gate& g = gates_[id];
        if (g.type == CellType::Input || g.type == CellType::Dff) {
            pending[id] = 0;
            ready.push_back(id);
        } else {
            pending[id] = static_cast<std::uint32_t>(g.fanin.size());
            if (pending[id] == 0) {
                throw std::runtime_error("combinational gate without fanin: " +
                                         g.name);
            }
        }
    }

    topo_.clear();
    topo_.reserve(n);
    level_.assign(n, 0);
    while (!ready.empty()) {
        const GateId id = ready.front();
        ready.pop_front();
        topo_.push_back(id);
        const Gate& g = gates_[id];
        for (GateId out : g.fanout) {
            const Gate& og = gates_[out];
            if (og.type == CellType::Input || og.type == CellType::Dff) {
                continue;  // sink side of a register: no intra-cycle dependency
            }
            level_[out] = std::max(level_[out], level_[id] + 1);
            if (--pending[out] == 0) ready.push_back(out);
        }
    }
    // Dff/Input sinks never entered `pending`; every other node must be
    // placed, else there is a combinational cycle.
    if (topo_.size() != n) {
        throw std::runtime_error("combinational cycle detected in " + name_);
    }
    depth_ = 0;
    for (std::uint32_t l : level_) depth_ = std::max(depth_, l);

    rank_.assign(n, 0);
    for (std::uint32_t i = 0; i < topo_.size(); ++i) rank_[topo_[i]] = i;

    // Core sources: PIs then DFF Qs.
    sources_.clear();
    sources_.insert(sources_.end(), inputs_.begin(), inputs_.end());
    sources_.insert(sources_.end(), dffs_.begin(), dffs_.end());
    source_index_.assign(n, std::numeric_limits<std::uint32_t>::max());
    for (std::uint32_t i = 0; i < sources_.size(); ++i) {
        source_index_[sources_[i]] = i;
    }

    // Observation points: POs then DFF D inputs.
    observes_.clear();
    for (GateId id : outputs_) {
        observes_.push_back(ObservePoint{id, gates_[id].fanin[0], false});
    }
    for (GateId id : dffs_) {
        observes_.push_back(ObservePoint{id, gates_[id].fanin[0], true});
    }
    // Signal -> observe indices (CSR); filling in ascending index order
    // keeps every row ascending.
    observe_offset_.assign(n + 1, 0);
    for (const ObservePoint& op : observes_) ++observe_offset_[op.signal + 1];
    for (GateId id = 0; id < n; ++id) {
        observe_offset_[id + 1] += observe_offset_[id];
    }
    observe_by_signal_.assign(observes_.size(), 0);
    std::vector<std::uint32_t> fill(observe_offset_.begin(),
                                    observe_offset_.end() - 1);
    for (std::uint32_t oi = 0; oi < observes_.size(); ++oi) {
        observe_by_signal_[fill[observes_[oi].signal]++] = oi;
    }

    finalized_ = true;
}

}  // namespace fastmon
