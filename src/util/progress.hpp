// Live progress telemetry for long-running campaigns.
//
// A multi-minute fleet campaign used to be a black box until exit.
// ProgressReporter makes it observable without touching the hot loops:
// workers publish monotone counters into padded per-worker slots
// (relaxed atomics, written only at batch boundaries so the SoA lane
// loops stay vectorized), and a sampler thread snapshots the slots
// every `interval_seconds` into an atomically-rewritten heartbeat JSON
// sidecar — readers (fastmon_status, CI assertions) either see the
// previous complete snapshot or the new one, never a torn file.  An
// optional throttled stderr line mirrors the same snapshot for humans.
//
// The final snapshot (written by stop()) carries the honest terminal
// state — "finished", "cancelled", or "degraded" — and totals that
// match the exported campaign report.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/json.hpp"

namespace fastmon {

struct ProgressConfig {
    /// Heartbeat sidecar path; empty = no file (stderr line only).
    std::string path;
    /// Sampler period in seconds (clamped to >= 1 ms).
    double interval_seconds = 1.0;
    /// Emit a throttled one-line progress report to stderr per sample.
    bool stderr_line = false;
    /// Campaign label (circuit name) echoed into every snapshot.
    std::string label;
    std::uint64_t devices_total = 0;
    /// Year-grid points per device; lane-year progress is reported
    /// against devices_total * grid_points (an upper bound — lanes
    /// settling early finish sooner).
    std::uint64_t grid_points = 0;
};

class ProgressReporter {
public:
    /// One cache line per worker so concurrent publishers never share.
    /// All counters are monotone; the sampler reads them relaxed.
    struct alignas(64) WorkerSlot {
        std::atomic<std::uint64_t> devices{0};
        std::atomic<std::uint64_t> lane_years{0};
        std::atomic<std::uint64_t> settled_early{0};
        /// STA passes (published as "batches"); lane_years / batches
        /// is the mean number of live lanes per pass.
        std::atomic<std::uint64_t> batches{0};
        std::atomic<std::uint64_t> busy_ns{0};
    };

    explicit ProgressReporter(ProgressConfig config);
    /// Joins the sampler; writes the "finished" snapshot if the owner
    /// never called stop() (so the sidecar always ends honest).
    ~ProgressReporter();

    ProgressReporter(const ProgressReporter&) = delete;
    ProgressReporter& operator=(const ProgressReporter&) = delete;

    /// Devices trusted from a resume checkpoint: counted into
    /// devices_done so the final snapshot matches the report's
    /// devices_completed.
    void add_resumed(std::uint64_t n) {
        resumed_.fetch_add(n, std::memory_order_relaxed);
    }

    /// Stable per-thread slot (assigned on first call; reused across
    /// checkpoint blocks).  Cheap, but call once per shard, not per
    /// batch.
    WorkerSlot& slot_for_this_thread();

    /// Starts the sampler thread (no-op when already running).
    void start();

    /// Writes the final snapshot with `final_state` ("finished",
    /// "cancelled", "degraded") and joins the sampler.  Idempotent —
    /// the first stop wins.
    void stop(const std::string& final_state);

    /// One snapshot document (exposed for tests and the final write).
    [[nodiscard]] Json snapshot(const std::string& state);

    /// Forces one sidecar write outside the sampler cadence (tests).
    bool write_snapshot(const std::string& state);

    [[nodiscard]] const ProgressConfig& config() const { return config_; }
    [[nodiscard]] std::uint64_t devices_done() const;

private:
    void sampler_loop();

    ProgressConfig config_;
    std::uint64_t epoch_ns_ = 0;

    /// Slot storage never reallocates (deque-of-values semantics via
    /// unique_ptr), so WorkerSlot references stay valid for the
    /// reporter's lifetime.
    mutable std::mutex slots_mutex_;
    std::vector<std::unique_ptr<WorkerSlot>> slots_;
    std::map<std::thread::id, std::size_t> slot_of_thread_;

    std::atomic<std::uint64_t> resumed_{0};
    std::atomic<std::uint64_t> sequence_{0};

    std::mutex sampler_mutex_;
    std::condition_variable sampler_cv_;
    bool stop_requested_ = false;
    bool stopped_ = false;
    std::thread sampler_;

    /// Throughput window: progress at the previous snapshot.
    std::uint64_t last_done_ = 0;
    std::uint64_t last_ns_ = 0;
};

}  // namespace fastmon
