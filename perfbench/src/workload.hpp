// One benchmark workload: an idempotent set-up, a timed call into the
// library's one-call entry point, output checks, and a traced run that
// composes the same result from the layers' public calls.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common.hpp"
#include "spans.hpp"

namespace perfbench {

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Explicit worker count handed to the library (never 0, which
    /// would mean "all hardware threads").
    std::size_t threads = 1;
};

class Workload {
public:
    virtual ~Workload() = default;

    /// Loads the inputs and builds and warms the engines.  Idempotent:
    /// the driver calls it several times and reports the median.
    virtual void setup() = 0;

    /// Runs the timed call once and checks its outputs into `checks`
    /// (inside an operation the caller opened).  Returns the wall
    /// seconds of the call alone.
    virtual double timed_call(Checks& checks) = 0;

    /// Checks that need more than one call's outputs (run once, after
    /// the timed calls).
    virtual void final_checks(Checks& checks) = 0;

    /// The workload's quality and throughput figures from the last
    /// timed call (printed in the human-readable table).
    virtual void report(Metrics& out) const = 0;

    /// The traced run: one untraced reference call, the same result
    /// composed from public calls under spans (checked bit for bit
    /// against the reference), and the one-thread cross-check.  Fills
    /// the per-layer metrics that apply to this workload.
    virtual void traced(Checks& checks, SpanRecorder& spans,
                        Metrics& out) = 0;
};

std::unique_ptr<Workload> make_flow_workload(const RunOptions& options);
std::unique_ptr<Workload> make_campaign_workload(const RunOptions& options);

}  // namespace perfbench
