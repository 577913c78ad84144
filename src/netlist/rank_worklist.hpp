// Rank-ordered event frontier: the one worklist behind every forward
// walk from a fault site.  A min-heap of topological ranks pops a gate
// after every lower-rank gate pushed; per walk, a "queued" stamp lets a
// gate in once and a "changed" stamp is the caller's mark (e.g. "this
// overlay slot is valid").  begin() clears both by bumping an epoch.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "netlist/netlist.hpp"

namespace fastmon {

class RankWorklist {
public:
    /// Starts a new walk over `netlist`: empties the heap and clears
    /// both stamps of every gate.
    void begin(const Netlist& netlist) {
        netlist_ = &netlist;
        const std::size_t n = netlist.size();
        if (queued_.size() != n || ++epoch_ == 0) {
            // First walk, another netlist size, or the epoch wrapped:
            // old stamps could alias the new epoch.
            queued_.assign(n, 0);
            changed_.assign(n, 0);
            heap_.reserve(n);
            epoch_ = 1;
        }
        heap_.clear();
    }

    /// Queues `id` unless it was queued before in this walk.
    void push(GateId id) {
        if (queued_[id] == epoch_) return;
        queued_[id] = epoch_;
        heap_.push_back(netlist_->topo_rank(id));
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }

    /// Queues each fanout of `id` whose cell type passes `keep` (the
    /// caller's sink rule).
    template <typename Keep>
    void push_fanouts(GateId id, Keep keep) {
        for (GateId out : netlist_->gate(id).fanout) {
            if (keep(netlist_->gate(out).type)) push(out);
        }
    }

    [[nodiscard]] bool empty() const { return heap_.empty(); }

    /// Removes and returns the queued gate of lowest topological rank.
    GateId pop() {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
        const std::uint32_t rank = heap_.back();
        heap_.pop_back();
        return netlist_->topo_order()[rank];
    }

    void mark_changed(GateId id) { changed_[id] = epoch_; }
    [[nodiscard]] bool changed(GateId id) const {
        return changed_[id] == epoch_;
    }

private:
    friend struct RankWorklistTestPeer;

    const Netlist* netlist_ = nullptr;
    std::vector<std::uint32_t> queued_;
    std::vector<std::uint32_t> changed_;
    std::vector<std::uint32_t> heap_;  ///< min-heap of topo ranks
    std::uint32_t epoch_ = 0;
};

}  // namespace fastmon
