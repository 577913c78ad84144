// Fault-tolerant fleet campaign supervisor.
//
// Splits one campaign into N shard jobs, runs each `fastmon_campaign
// --shard i/N` as a real subprocess, and survives everything a fleet
// can throw at it: a crashed shard is retried with bounded exponential
// backoff (resuming from its own incomplete artifact), a hung shard is
// detected through its heartbeat sidecar (devices_done frozen past the
// stall timeout), SIGKILLed, and retried, a shard that exits 0 but
// leaves a corrupt or incomplete artifact counts as a failed attempt,
// and a job that keeps failing is quarantined after max_attempts with
// an honest record instead of wedging the fleet forever.
//
// Jobs live in a directory queue under the fleet root:
//
//   <root>/queue/<id>.json                  eligible jobs
//   <root>/running/<id>.json                claimed jobs (atomic rename)
//   <root>/done/<id>.json                   completed jobs
//   <root>/quarantine/<id>.json             poison jobs + failure record
//   <root>/shards/shard-<i>.json            shard artifact = checkpoint
//   <root>/shards/shard-<i>.heartbeat.json  live heartbeat sidecar
//   <root>/logs/                            per-attempt worker output
//
// Claiming is rename(queue/x, running/x): atomic on POSIX, so several
// supervisors can share one queue without double-claiming.  Delivery is
// at-least-once — a supervisor that dies mid-job leaves the file in
// running/, and the next `--recover` pass requeues it; the shard's
// artifact doubles as its checkpoint, so the redundant re-run is cheap
// and the merged result is bit-identical either way.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "flow/flow_status.hpp"
#include "util/json.hpp"

namespace fastmon {

/// One shard job, as serialized into the queue directory.
struct FleetJob {
    std::string id;                 ///< queue file stem, e.g. "shard-2"
    std::uint32_t shard_index = 0;
    std::uint32_t shard_count = 1;
    std::uint32_t attempts = 0;     ///< launches so far (completed or not)
    std::string last_error;         ///< most recent failure detail
    /// Test/CI hook: FASTMON_FAULT_INJECT spec exported into this
    /// shard's worker environment (empty = none).
    std::string fault_inject;
    /// When true (default), the injection spec is only exported on the
    /// first attempt — the retry runs clean, modelling a transient
    /// fault.  False makes the fault persistent (a poison job).
    bool fault_first_attempt_only = true;

    [[nodiscard]] Json to_json() const;
    static std::optional<FleetJob> from_json(const Json& j);
};

/// Directory-backed job queue; every transition is an atomic write or
/// rename, so a crash between any two steps loses no job.
class FleetQueue {
public:
    explicit FleetQueue(std::string root);

    /// Creates the queue/running/done/quarantine/shards/logs layout.
    bool init(std::string* error = nullptr);

    [[nodiscard]] const std::string& root() const { return root_; }
    [[nodiscard]] std::string queue_dir() const;
    [[nodiscard]] std::string running_dir() const;
    [[nodiscard]] std::string done_dir() const;
    [[nodiscard]] std::string quarantine_dir() const;
    [[nodiscard]] std::string shards_dir() const;
    [[nodiscard]] std::string logs_dir() const;

    /// Atomically writes the job into queue/ (no-op overwrite-safe).
    bool enqueue(const FleetJob& job);
    /// Claims `id`: rename queue/<id>.json -> running/<id>.json, then
    /// parse.  std::nullopt when the file vanished (claimed elsewhere)
    /// or does not parse (the damaged claim is left in running/ for a
    /// human; it is never silently retried).
    std::optional<FleetJob> claim(const std::string& id);
    /// Failed attempt: atomically rewrites the updated job into queue/
    /// and releases the claim.
    bool requeue(const FleetJob& job);
    /// Success: records the job in done/ and releases the claim.
    bool complete(const FleetJob& job);
    /// Poison: records the job + reason in quarantine/ and releases
    /// the claim.
    bool quarantine(const FleetJob& job, const std::string& reason);
    /// Requeues every stale claim left in running/ by a dead
    /// supervisor; returns how many were recovered.
    std::size_t recover_stale();

    /// Job ids currently eligible in queue/ (sorted).
    [[nodiscard]] std::vector<std::string> pending() const;
    /// Job ids recorded in done/ (sorted).
    [[nodiscard]] std::vector<std::string> done() const;
    /// Job ids recorded in quarantine/ (sorted).
    [[nodiscard]] std::vector<std::string> quarantined() const;

private:
    std::string root_;
};

/// Canonical per-shard file locations under the fleet root.
[[nodiscard]] std::string shard_artifact_path(const std::string& root,
                                              std::uint32_t shard_index);
[[nodiscard]] std::string shard_heartbeat_path(const std::string& root,
                                               std::uint32_t shard_index);
[[nodiscard]] std::string shard_log_path(const std::string& root,
                                         std::uint32_t shard_index,
                                         std::uint32_t attempt);

/// Everything one shard attempt needs to run.
struct ShardLaunch {
    std::uint32_t shard_index = 0;
    std::uint32_t shard_count = 1;
    std::uint32_t attempt = 1;  ///< 1-based
    /// The shard's artifact, also its resume checkpoint.
    std::string artifact_path;
    std::string heartbeat_path;
    std::string log_path;
    std::string fault_inject;  ///< FASTMON_FAULT_INJECT override; "" = none
};

/// A running shard attempt, as the supervisor sees it.
class ShardHandle {
public:
    virtual ~ShardHandle() = default;
    /// Non-blocking: std::nullopt while running, shell-style status
    /// (exit code, or 128 + signal) once finished.
    virtual std::optional<int> poll() = 0;
    /// Hard-kills a hung attempt; poll() then reports the death.
    virtual void kill() = 0;
};

/// Launches shard attempts.  The production implementation spawns
/// fastmon_campaign subprocesses; tests substitute an in-process fake
/// to script crash/hang/corrupt sequences deterministically.
class ShardLauncher {
public:
    virtual ~ShardLauncher() = default;
    virtual std::unique_ptr<ShardHandle> launch(const ShardLaunch& spec,
                                                std::string* error) = 0;
};

/// Spawns `campaign_bin` with the campaign CLI arguments plus the
/// shard, checkpoint (= artifact), resume and heartbeat flags from the
/// ShardLaunch.
class SubprocessShardLauncher : public ShardLauncher {
public:
    SubprocessShardLauncher(std::string campaign_bin,
                            std::vector<std::string> campaign_args);
    std::unique_ptr<ShardHandle> launch(const ShardLaunch& spec,
                                        std::string* error) override;

private:
    std::string campaign_bin_;
    std::vector<std::string> campaign_args_;
};

struct FleetConfig {
    std::string root;
    std::uint32_t shard_count = 1;
    /// Launches per job before it is quarantined as poison.
    std::uint32_t max_attempts = 3;
    /// Shard subprocesses running concurrently.
    std::size_t max_parallel = 2;
    /// Supervisor poll cadence.
    double poll_seconds = 0.05;
    /// A live worker whose heartbeat devices_done has not advanced for
    /// this long is declared hung and SIGKILLed.  Must comfortably
    /// exceed the worst per-device roll latency.
    double stall_timeout_seconds = 30.0;
    /// Failed attempts back off  initial * 2^(attempt-1)  seconds,
    /// capped at backoff_max_seconds.
    double backoff_initial_seconds = 0.5;
    double backoff_max_seconds = 8.0;
    /// When non-empty (16 hex digits), a shard artifact whose campaign
    /// fingerprint differs counts as a failed attempt.
    std::string expected_fingerprint;
};

/// Final record of one job this supervision pass handled.
struct FleetJobRecord {
    std::string id;
    std::uint32_t shard_index = 0;
    std::uint32_t attempts = 0;
    /// "done" or "quarantined".
    std::string state;
    std::string detail;  ///< last failure detail ("" for clean first runs)
};

struct FleetReport {
    std::vector<FleetJobRecord> jobs;
    std::size_t jobs_done = 0;
    std::size_t jobs_quarantined = 0;
    std::size_t retries = 0;       ///< failed attempts that were retried
    std::size_t stalls_killed = 0; ///< hung workers SIGKILLed
    FlowStatus status;

    /// "fleet" report block: {shard_count, jobs, retries, ...}.
    [[nodiscard]] Json to_json() const;
};

/// Drains the queue: claims eligible jobs, launches up to max_parallel
/// shard attempts through `launcher`, watches exits and heartbeats,
/// retries failures with backoff, and quarantines poison jobs.
/// Returns when the queue is empty and every claim is resolved; never
/// throws on worker failure — the report says what happened.
FleetReport run_fleet(const FleetConfig& config, FleetQueue& queue,
                      ShardLauncher& launcher);

}  // namespace fastmon
