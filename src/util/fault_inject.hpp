// Fault-injection harness for resilience testing.
//
// Named injection points are compiled into the pipeline permanently
// (they cost one relaxed load when the injector is idle, the same
// pattern as trace spans).  Tests and CI arm them either through
// FASTMON_FAULT_INJECT or programmatically:
//
//   FASTMON_FAULT_INJECT=parser.bench            fail on 1st hit
//   FASTMON_FAULT_INJECT=solver.budget@3         fail on 3rd hit
//   FASTMON_FAULT_INJECT=parser.sdf,pool.task@2  comma-separated specs
//
// Known points (grep for fault_injection_point to enumerate):
//   parser.bench / parser.verilog / parser.sdf / parser.pattern /
//   parser.json                  -> forced Diagnostic from the parser
//   solver.budget                -> zero set-cover search budget (the
//                                   root bound can still prove a solve)
//   pool.task                    -> exception from inside a pool task
//   cancel.<phase>               -> cancellation request at phase entry
//   cancel.fault_sim_mid         -> cancellation mid fault-simulation
//   shard.crash                  -> hard process exit (code 70) at a
//                                   campaign device boundary
//   shard.hang                   -> infinite stall at a device boundary
//                                   (the supervisor must detect + kill)
//   shard.corrupt_artifact       -> one flipped digit in the shard
//                                   artifact (checksum must catch it)
//
// `fire()` throws InjectedFault at the armed hit; `trip()` reports the
// hit without throwing, for points that model state (e.g. budget
// exhaustion or a cancellation request) rather than an error path.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace fastmon {

/// Thrown by an armed injection point.  Derives from std::runtime_error
/// so it flows through the same recovery paths as organic failures.
class InjectedFault : public std::runtime_error {
public:
    explicit InjectedFault(std::string_view point);
    [[nodiscard]] const std::string& point() const { return point_; }

private:
    std::string point_;
};

class FaultInjector {
public:
    /// Process-wide injector; parses $FASTMON_FAULT_INJECT on first use.
    static FaultInjector& global();

    /// Arms `point` to trip on its `hit`-th visit (1-based).
    void arm(std::string_view point, std::uint64_t hit = 1);

    /// Parses a FASTMON_FAULT_INJECT-style spec ("a,b@3").  Returns
    /// false (and arms nothing from the bad element) on a malformed
    /// element; well-formed elements before it are still armed.
    bool arm_spec(std::string_view spec);

    /// Disarms everything and resets hit counters.  Tests only.
    void reset();

    /// Visit `point`; throws InjectedFault when it trips.
    void fire(std::string_view point) {
        if (!enabled_.load(std::memory_order_relaxed)) return;
        fire_slow(point);
    }

    /// Visit `point`; returns true (once) when it trips, for callers
    /// that degrade state instead of throwing.
    [[nodiscard]] bool trip(std::string_view point) {
        if (!enabled_.load(std::memory_order_relaxed)) return false;
        return trip_slow(point);
    }

    /// True if `point` is armed (does not count as a visit).
    [[nodiscard]] bool armed(std::string_view point) const;

private:
    FaultInjector() = default;

    struct Point {
        std::string name;
        std::uint64_t trip_at = 1;  ///< 1-based hit index that trips
        std::uint64_t hits = 0;
        bool tripped = false;
    };

    void fire_slow(std::string_view point);
    bool trip_slow(std::string_view point);
    Point* find_locked(std::string_view point);

    mutable std::mutex mutex_;
    std::vector<Point> points_;
    std::atomic<bool> enabled_{false};
};

}  // namespace fastmon
