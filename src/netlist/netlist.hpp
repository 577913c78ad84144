// Gate-level netlist.
//
// A Netlist is a DAG of single-output nodes.  Sequential elements (DFF)
// cut the graph into a combinational core: a DFF's Q output acts as a
// pseudo primary input (PPI) and its D fanin as a pseudo primary output
// (PPO).  All analyses in this library (STA, waveform simulation, fault
// simulation, ATPG) operate on the combinational core between
// {PI, PPI} sources and {PO, PPO} sinks — the standard scan-test view.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "netlist/cell_library.hpp"

namespace fastmon {

using GateId = std::uint32_t;
inline constexpr GateId kNoGate = std::numeric_limits<GateId>::max();

struct Gate {
    std::string name;
    CellType type = CellType::Buf;
    std::vector<GateId> fanin;   ///< driver of each input pin, in pin order
    std::vector<GateId> fanout;  ///< consumers (filled by finalize())
};

/// An observation point of the combinational core: a primary output pad
/// or the D input of a flip-flop (pseudo primary output).
struct ObservePoint {
    GateId node = kNoGate;  ///< the Output or Dff node
    GateId signal = kNoGate;  ///< the driving gate (node's fanin[0])
    bool is_pseudo = false;   ///< true for DFF D inputs (monitor-eligible)
};

class Netlist {
public:
    explicit Netlist(std::string name) : name_(std::move(name)) {}

    /// Adds a node.  Fanin ids must already exist.  Names must be unique.
    GateId add_gate(CellType type, std::string name, std::vector<GateId> fanin);

    /// Appends one more fanin pin to an existing gate (used by the
    /// generator when sinking dangling nets).  Only valid before
    /// finalize() and only if the arity stays within the cell limits.
    void append_fanin(GateId gate, GateId driver);

    /// Builds fanout lists, the topological order of the combinational
    /// core and validates arities.  Throws std::runtime_error on
    /// combinational cycles or arity violations.
    void finalize();

    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] std::size_t size() const { return gates_.size(); }
    [[nodiscard]] const Gate& gate(GateId id) const { return gates_[id]; }
    [[nodiscard]] std::span<const Gate> gates() const { return gates_; }

    /// Node lookup by name; returns kNoGate if absent.
    [[nodiscard]] GateId find(std::string_view name) const;

    [[nodiscard]] std::span<const GateId> primary_inputs() const { return inputs_; }
    [[nodiscard]] std::span<const GateId> primary_outputs() const { return outputs_; }
    [[nodiscard]] std::span<const GateId> flip_flops() const { return dffs_; }

    /// Number of combinational gates (excludes Input/Output/Dff nodes).
    [[nodiscard]] std::size_t num_comb_gates() const { return num_comb_; }

    /// Sources of the combinational core: PIs then DFF Q outputs, in a
    /// stable order.  Their count is the width of a test vector.
    [[nodiscard]] std::span<const GateId> comb_sources() const { return sources_; }

    /// Sinks of the combinational core: POs then DFF D inputs.
    [[nodiscard]] std::span<const ObservePoint> observe_points() const { return observes_; }

    /// Indices into observe_points() whose signal is `id`, ascending
    /// (empty for a gate that drives no observation point).
    [[nodiscard]] std::span<const std::uint32_t> observe_indices(
        GateId id) const {
        const std::uint32_t lo = observe_offset_[id];
        return {observe_by_signal_.data() + lo, observe_offset_[id + 1] - lo};
    }

    /// Topological order over all nodes: sources first, Output/Dff sink
    /// nodes last; every gate appears after all its fanins (except the
    /// Dff nodes, whose Q-as-source role is represented by the Dff node
    /// itself appearing in comb_sources()).
    [[nodiscard]] std::span<const GateId> topo_order() const { return topo_; }

    /// Position of a node in topo_order().
    [[nodiscard]] std::uint32_t topo_rank(GateId id) const { return rank_[id]; }

    /// Logic level: 0 for sources, 1 + max(fanin level) otherwise.
    [[nodiscard]] std::uint32_t level(GateId id) const { return level_[id]; }
    [[nodiscard]] std::uint32_t depth() const { return depth_; }

    /// Index of `id` in comb_sources(), or UINT32_MAX if not a source.
    [[nodiscard]] std::uint32_t source_index(GateId id) const { return source_index_[id]; }

    [[nodiscard]] bool finalized() const { return finalized_; }

private:
    std::string name_;
    std::vector<Gate> gates_;
    std::vector<GateId> inputs_;
    std::vector<GateId> outputs_;
    std::vector<GateId> dffs_;
    std::vector<GateId> sources_;
    std::vector<ObservePoint> observes_;
    // observe_indices() rows (CSR): gate g owns observe_by_signal_
    // [observe_offset_[g], observe_offset_[g + 1]).
    std::vector<std::uint32_t> observe_offset_;
    std::vector<std::uint32_t> observe_by_signal_;
    std::vector<GateId> topo_;
    std::vector<std::uint32_t> rank_;
    std::vector<std::uint32_t> level_;
    std::vector<std::uint32_t> source_index_;
    std::unordered_map<std::string, GateId> by_name_;
    std::size_t num_comb_ = 0;
    std::uint32_t depth_ = 0;
    bool finalized_ = false;
};

}  // namespace fastmon
