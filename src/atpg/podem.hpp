// PODEM — path-oriented decision making test generation.
//
// Classic PODEM over the combinational core with five-valued logic
// (0, 1, X, D, D-bar), used by the transition-fault ATPG:
//  * generate_test: finds source values propagating the fault effect of
//    a stuck line to an observation point (the v2 vector of a TDF pair);
//  * justify: finds source values forcing a single line to a value (the
//    v1 vector, which only needs to initialize the fault site).
// Both are bounded by a backtrack limit and report Untestable vs.
// Aborted separately so the ATPG can distinguish redundancy from
// effort exhaustion.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "netlist/rank_worklist.hpp"
#include "sim/fault_sim.hpp"
#include "sim/logic_sim.hpp"

namespace fastmon {

enum class PodemStatus : std::uint8_t { Success, Untestable, Aborted };

struct PodemResult {
    PodemStatus status = PodemStatus::Untestable;
    /// Source assignment (indexed like comb_sources); unassigned
    /// sources are filled with `fill` bits by the caller's choice in
    /// Podem::run (X positions are reported in `assigned`).
    std::vector<Bit> vector;
    std::vector<bool> assigned;  ///< which sources PODEM actually set
    std::size_t backtracks = 0;
};

/// Not thread-safe: a Podem instance reuses one event worklist across
/// calls (use one instance per thread).
class Podem {
public:
    explicit Podem(const Netlist& netlist, std::size_t backtrack_limit = 250);

    /// Generates a vector detecting "site stuck at `stuck_value`"
    /// (fault effect must reach an observation point).  For input-pin
    /// sites the fault is on the branch into that pin only.
    [[nodiscard]] PodemResult generate_test(const FaultSite& site,
                                            bool stuck_value) const;

    /// Generates a vector that sets the signal at `site` (the driving
    /// line) to `value`, with no propagation requirement.
    [[nodiscard]] PodemResult justify(const FaultSite& site, bool value) const;

private:
    const Netlist* netlist_;
    std::size_t backtrack_limit_;
    mutable RankWorklist worklist_;
};

}  // namespace fastmon
