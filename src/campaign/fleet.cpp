#include "campaign/fleet.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "campaign/shard.hpp"
#include "util/atomic_file.hpp"
#include "util/log.hpp"
#include "util/subprocess.hpp"

namespace fastmon {

namespace {

bool make_dir(const std::string& path) {
    return ::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST;
}

/// Stems of the "<id>.json" entries in `dir`, sorted.
std::vector<std::string> list_job_ids(const std::string& dir) {
    std::vector<std::string> ids;
    DIR* d = ::opendir(dir.c_str());
    if (!d) return ids;
    while (const dirent* entry = ::readdir(d)) {
        const std::string name = entry->d_name;
        constexpr std::string_view kSuffix = ".json";
        if (name.size() <= kSuffix.size() ||
            name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                         kSuffix) != 0) {
            continue;
        }
        // Skip in-flight temp files from atomic writes.
        if (name.find(".partial") != std::string::npos) continue;
        ids.push_back(name.substr(0, name.size() - kSuffix.size()));
    }
    ::closedir(d);
    std::sort(ids.begin(), ids.end());
    return ids;
}

std::optional<Json> read_json_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    if (!is) return std::nullopt;
    std::ostringstream buffer;
    buffer << is.rdbuf();
    return Json::parse(buffer.str());
}

double steady_seconds() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// FleetJob

Json FleetJob::to_json() const {
    Json j = Json::object();
    j.set("schema", "fastmon-fleet-job-v1");
    j.set("id", id);
    j.set("shard_index", shard_index);
    j.set("shard_count", shard_count);
    j.set("attempts", attempts);
    if (!last_error.empty()) j.set("last_error", last_error);
    if (!fault_inject.empty()) {
        j.set("fault_inject", fault_inject);
        j.set("fault_first_attempt_only", fault_first_attempt_only);
    }
    return j;
}

std::optional<FleetJob> FleetJob::from_json(const Json& j) {
    if (!j.is_object()) return std::nullopt;
    const Json* id = j.find("id");
    const Json* shard_index = j.find("shard_index");
    const Json* shard_count = j.find("shard_count");
    if (!id || !id->is_string() || !shard_index ||
        !shard_index->is_number() || !shard_count ||
        !shard_count->is_number()) {
        return std::nullopt;
    }
    const auto index_value = json_uint<std::uint32_t>(*shard_index);
    const auto count_value = json_uint<std::uint32_t>(*shard_count);
    if (!index_value || !count_value) return std::nullopt;
    FleetJob job;
    job.id = id->as_string();
    job.shard_index = *index_value;
    job.shard_count = *count_value;
    if (job.shard_count == 0 || job.shard_index >= job.shard_count) {
        return std::nullopt;
    }
    if (const Json* attempts = j.find("attempts");
        attempts && attempts->is_number()) {
        const auto attempts_value = json_uint<std::uint32_t>(*attempts);
        if (!attempts_value) return std::nullopt;
        job.attempts = *attempts_value;
    }
    if (const Json* err = j.find("last_error"); err && err->is_string()) {
        job.last_error = err->as_string();
    }
    if (const Json* spec = j.find("fault_inject");
        spec && spec->is_string()) {
        job.fault_inject = spec->as_string();
    }
    if (const Json* once = j.find("fault_first_attempt_only");
        once && once->is_bool()) {
        job.fault_first_attempt_only = once->as_bool();
    }
    return job;
}

// ---------------------------------------------------------------------------
// FleetQueue

FleetQueue::FleetQueue(std::string root) : root_(std::move(root)) {}

std::string FleetQueue::queue_dir() const { return root_ + "/queue"; }
std::string FleetQueue::running_dir() const { return root_ + "/running"; }
std::string FleetQueue::done_dir() const { return root_ + "/done"; }
std::string FleetQueue::quarantine_dir() const {
    return root_ + "/quarantine";
}
std::string FleetQueue::shards_dir() const { return root_ + "/shards"; }
std::string FleetQueue::logs_dir() const { return root_ + "/logs"; }

bool FleetQueue::init(std::string* error) {
    for (const std::string& dir :
         {root_, queue_dir(), running_dir(), done_dir(), quarantine_dir(),
          shards_dir(), logs_dir()}) {
        if (!make_dir(dir)) {
            if (error) *error = "cannot create " + dir;
            return false;
        }
    }
    return true;
}

bool FleetQueue::enqueue(const FleetJob& job) {
    return atomic_write_file(queue_dir() + "/" + job.id + ".json",
                             job.to_json().dump(2));
}

std::optional<FleetJob> FleetQueue::claim(const std::string& id) {
    const std::string from = queue_dir() + "/" + id + ".json";
    const std::string to = running_dir() + "/" + id + ".json";
    // The atomic claim: exactly one renamer wins; the losers see ENOENT.
    if (::rename(from.c_str(), to.c_str()) != 0) return std::nullopt;
    const auto j = read_json_file(to);
    auto job = j ? FleetJob::from_json(*j) : std::nullopt;
    if (!job) {
        log_warn() << "fleet: claimed job " << id
                   << " is unreadable; leaving it in running/ for "
                      "inspection";
        return std::nullopt;
    }
    return job;
}

bool FleetQueue::requeue(const FleetJob& job) {
    if (!atomic_write_file(queue_dir() + "/" + job.id + ".json",
                           job.to_json().dump(2))) {
        return false;
    }
    ::unlink((running_dir() + "/" + job.id + ".json").c_str());
    return true;
}

bool FleetQueue::complete(const FleetJob& job) {
    if (!atomic_write_file(done_dir() + "/" + job.id + ".json",
                           job.to_json().dump(2))) {
        return false;
    }
    ::unlink((running_dir() + "/" + job.id + ".json").c_str());
    return true;
}

bool FleetQueue::quarantine(const FleetJob& job, const std::string& reason) {
    Json j = job.to_json();
    j.set("quarantined", true);
    j.set("reason", reason);
    if (!atomic_write_file(quarantine_dir() + "/" + job.id + ".json",
                           j.dump(2))) {
        return false;
    }
    ::unlink((running_dir() + "/" + job.id + ".json").c_str());
    return true;
}

std::size_t FleetQueue::recover_stale() {
    std::size_t recovered = 0;
    for (const std::string& id : list_job_ids(running_dir())) {
        const std::string from = running_dir() + "/" + id + ".json";
        const std::string to = queue_dir() + "/" + id + ".json";
        if (::rename(from.c_str(), to.c_str()) == 0) ++recovered;
    }
    return recovered;
}

std::vector<std::string> FleetQueue::pending() const {
    return list_job_ids(queue_dir());
}
std::vector<std::string> FleetQueue::done() const {
    return list_job_ids(done_dir());
}
std::vector<std::string> FleetQueue::quarantined() const {
    return list_job_ids(quarantine_dir());
}

// ---------------------------------------------------------------------------
// Shard file layout

std::string shard_artifact_path(const std::string& root,
                                std::uint32_t shard_index) {
    return root + "/shards/shard-" + std::to_string(shard_index) + ".json";
}
std::string shard_heartbeat_path(const std::string& root,
                                 std::uint32_t shard_index) {
    return root + "/shards/shard-" + std::to_string(shard_index) +
           ".heartbeat.json";
}
std::string shard_log_path(const std::string& root,
                           std::uint32_t shard_index,
                           std::uint32_t attempt) {
    return root + "/logs/shard-" + std::to_string(shard_index) +
           ".attempt-" + std::to_string(attempt) + ".log";
}

// ---------------------------------------------------------------------------
// SubprocessShardLauncher

namespace {

class SubprocessShardHandle : public ShardHandle {
public:
    explicit SubprocessShardHandle(Subprocess child)
        : child_(std::move(child)) {}
    std::optional<int> poll() override { return child_.poll(); }
    void kill() override { child_.kill(); }

private:
    Subprocess child_;
};

}  // namespace

SubprocessShardLauncher::SubprocessShardLauncher(
    std::string campaign_bin, std::vector<std::string> campaign_args)
    : campaign_bin_(std::move(campaign_bin)),
      campaign_args_(std::move(campaign_args)) {}

std::unique_ptr<ShardHandle> SubprocessShardLauncher::launch(
    const ShardLaunch& spec, std::string* error) {
    std::vector<std::string> argv;
    argv.push_back(campaign_bin_);
    argv.insert(argv.end(), campaign_args_.begin(), campaign_args_.end());
    argv.push_back("--shard");
    argv.push_back(std::to_string(spec.shard_index) + "/" +
                   std::to_string(spec.shard_count));
    // One file per shard: the worker's checkpoint is its artifact.
    argv.push_back("--checkpoint");
    argv.push_back(spec.artifact_path);
    // Always --resume: on the first attempt there is no artifact and
    // the run starts fresh; on a retry the crashed attempt's incomplete
    // artifact turns the redo into an incremental completion.
    argv.push_back("--resume");
    argv.push_back("--heartbeat");
    argv.push_back(spec.heartbeat_path);

    SpawnOptions options;
    options.output_path = spec.log_path;
    // Exported even when empty so a supervisor running under an armed
    // FASTMON_FAULT_INJECT never leaks its own spec into clean workers.
    options.env.emplace_back("FASTMON_FAULT_INJECT", spec.fault_inject);
    auto child = Subprocess::spawn(argv, options, error);
    if (!child) return nullptr;
    return std::make_unique<SubprocessShardHandle>(std::move(*child));
}

// ---------------------------------------------------------------------------
// Supervisor

Json FleetReport::to_json() const {
    Json j = Json::object();
    Json rows = Json::array();
    for (const FleetJobRecord& r : jobs) {
        Json row = Json::object();
        row.set("id", r.id);
        row.set("shard_index", r.shard_index);
        row.set("attempts", r.attempts);
        row.set("state", r.state);
        if (!r.detail.empty()) row.set("detail", r.detail);
        rows.push_back(std::move(row));
    }
    j.set("jobs", std::move(rows));
    j.set("jobs_done", jobs_done);
    j.set("jobs_quarantined", jobs_quarantined);
    j.set("retries", retries);
    j.set("stalls_killed", stalls_killed);
    j.set("status", status.to_json());
    return j;
}

namespace {

/// One in-flight shard attempt.
struct ActiveAttempt {
    FleetJob job;
    std::unique_ptr<ShardHandle> handle;
    std::string artifact_path;
    std::string heartbeat_path;
    double launched_at = 0.0;
    double last_progress_at = 0.0;
    double last_devices_done = -1.0;
    bool killed_for_stall = false;
};

/// Heartbeat progress signal: devices_done when readable, plus any
/// terminal state counts as progress (the worker is wrapping up, not
/// hung).
std::optional<double> heartbeat_progress(const std::string& path) {
    const auto j = read_json_file(path);
    if (!j) return std::nullopt;
    const Json* devices = j->find("devices_done");
    const Json* state = j->find("state");
    if (!devices || !devices->is_number()) return std::nullopt;
    double signal = devices->as_number();
    if (state && state->is_string() && state->as_string() != "running") {
        signal += 0.5;  // distinct from any integer devices_done
    }
    return signal;
}

std::string exit_detail(int code) {
    if (code > 128) {
        return "killed by signal " + std::to_string(code - 128);
    }
    return "exit code " + std::to_string(code);
}

/// Validates the artifact a 0-exit worker left behind.  Returns the
/// failure reason, or "" when the artifact is trustworthy.
std::string validate_artifact(const FleetConfig& config,
                              const ActiveAttempt& active) {
    std::string why;
    const auto shard = load_shard_result(active.artifact_path, &why);
    if (!shard) {
        if (why.empty()) return "artifact missing after exit 0";
        return "artifact invalid: " + why;
    }
    if (shard->shard_index != active.job.shard_index ||
        shard->shard_count != active.job.shard_count) {
        return "artifact has the wrong shard coordinates";
    }
    if (!shard->complete()) {
        return "artifact covers " + std::to_string(shard->outcomes.size()) +
               " of " +
               std::to_string(shard->range_end - shard->range_begin) +
               " devices";
    }
    if (!config.expected_fingerprint.empty()) {
        const auto expected =
            parse_fingerprint_hex(config.expected_fingerprint);
        if (!expected || *expected != shard->fingerprint) {
            return "artifact campaign fingerprint mismatch";
        }
    }
    return "";
}

}  // namespace

FleetReport run_fleet(const FleetConfig& config, FleetQueue& queue,
                      ShardLauncher& launcher) {
    FleetReport report;
    std::vector<ActiveAttempt> active;
    /// Job id -> steady time before which it must not be re-claimed.
    std::map<std::string, double> backoff_until;

    const auto record_failure = [&](FleetJob job, const std::string& why) {
        job.last_error = why;
        log_warn() << "fleet: shard " << job.shard_index << " attempt "
                   << job.attempts << " failed: " << why;
        if (job.attempts >= config.max_attempts) {
            queue.quarantine(job, why);
            FleetJobRecord rec;
            rec.id = job.id;
            rec.shard_index = job.shard_index;
            rec.attempts = job.attempts;
            rec.state = "quarantined";
            rec.detail = why;
            report.jobs.push_back(std::move(rec));
            ++report.jobs_quarantined;
            return;
        }
        const double factor = static_cast<double>(1ULL << std::min<
                                  std::uint32_t>(job.attempts - 1, 20));
        backoff_until[job.id] =
            steady_seconds() +
            std::min(config.backoff_initial_seconds * factor,
                     config.backoff_max_seconds);
        queue.requeue(job);
        ++report.retries;
    };

    for (;;) {
        // Launch phase: claim eligible jobs into free slots.
        if (active.size() < config.max_parallel) {
            const double now = steady_seconds();
            for (const std::string& id : queue.pending()) {
                if (active.size() >= config.max_parallel) break;
                if (const auto it = backoff_until.find(id);
                    it != backoff_until.end() && it->second > now) {
                    continue;
                }
                auto job = queue.claim(id);
                if (!job) continue;  // raced away or unreadable
                job->attempts += 1;

                ShardLaunch spec;
                spec.shard_index = job->shard_index;
                spec.shard_count = job->shard_count;
                spec.attempt = job->attempts;
                spec.artifact_path =
                    shard_artifact_path(queue.root(), job->shard_index);
                spec.heartbeat_path =
                    shard_heartbeat_path(queue.root(), job->shard_index);
                spec.log_path = shard_log_path(
                    queue.root(), job->shard_index, job->attempts);
                if (!job->fault_inject.empty() &&
                    (!job->fault_first_attempt_only ||
                     job->attempts == 1)) {
                    spec.fault_inject = job->fault_inject;
                }

                std::string error;
                auto handle = launcher.launch(spec, &error);
                if (!handle) {
                    record_failure(*job, "launch failed: " + error);
                    continue;
                }
                ActiveAttempt attempt;
                attempt.job = std::move(*job);
                attempt.handle = std::move(handle);
                attempt.artifact_path = spec.artifact_path;
                attempt.heartbeat_path = spec.heartbeat_path;
                attempt.launched_at = steady_seconds();
                attempt.last_progress_at = attempt.launched_at;
                active.push_back(std::move(attempt));
            }
        }

        if (active.empty()) {
            // Nothing running: done, unless jobs are merely backing off.
            const auto ids = queue.pending();
            if (ids.empty()) break;
            double wake = steady_seconds() + config.poll_seconds;
            for (const std::string& id : ids) {
                if (const auto it = backoff_until.find(id);
                    it != backoff_until.end()) {
                    wake = std::min(wake, it->second);
                }
            }
            const double pause = wake - steady_seconds();
            if (pause > 0) {
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(pause));
            }
            continue;
        }

        std::this_thread::sleep_for(
            std::chrono::duration<double>(config.poll_seconds));

        // Poll phase: reap exits, detect stalls.
        for (std::size_t i = 0; i < active.size();) {
            ActiveAttempt& attempt = active[i];
            const auto exit = attempt.handle->poll();
            if (!exit) {
                // Still running: watch the heartbeat for forward
                // progress.  No heartbeat yet counts the launch time
                // as the last progress.
                const double now = steady_seconds();
                const auto progress =
                    heartbeat_progress(attempt.heartbeat_path);
                if (progress &&
                    *progress != attempt.last_devices_done) {
                    attempt.last_devices_done = *progress;
                    attempt.last_progress_at = now;
                }
                if (now - attempt.last_progress_at >
                        config.stall_timeout_seconds &&
                    !attempt.killed_for_stall) {
                    log_warn() << "fleet: shard "
                               << attempt.job.shard_index
                               << " stalled (no heartbeat progress for "
                               << config.stall_timeout_seconds
                               << " s); killing";
                    attempt.killed_for_stall = true;
                    attempt.handle->kill();
                    ++report.stalls_killed;
                }
                ++i;
                continue;
            }

            // Attempt finished; judge it.
            std::string why;
            if (attempt.killed_for_stall) {
                why = "hung (no heartbeat progress); killed";
            } else if (*exit != 0) {
                why = exit_detail(*exit);
            } else {
                why = validate_artifact(config, attempt);
            }
            FleetJob job = std::move(attempt.job);
            active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));

            if (!why.empty()) {
                record_failure(std::move(job), why);
                continue;
            }
            queue.complete(job);
            FleetJobRecord rec;
            rec.id = job.id;
            rec.shard_index = job.shard_index;
            rec.attempts = job.attempts;
            rec.state = "done";
            rec.detail = job.last_error;
            report.jobs.push_back(std::move(rec));
            ++report.jobs_done;
        }
    }

    std::sort(report.jobs.begin(), report.jobs.end(),
              [](const FleetJobRecord& a, const FleetJobRecord& b) {
                  return a.shard_index < b.shard_index;
              });

    PhaseStatus execute;
    execute.name = "fleet_execute";
    if (report.jobs_done == 0 && report.jobs_quarantined > 0) {
        execute.outcome = PhaseOutcome::Failed;
        execute.detail = "every job was quarantined";
    } else if (report.jobs_quarantined > 0) {
        execute.outcome = PhaseOutcome::Degraded;
        execute.detail = std::to_string(report.jobs_quarantined) +
                         " job(s) quarantined";
    } else if (report.retries > 0) {
        execute.outcome = PhaseOutcome::Degraded;
        execute.detail = std::to_string(report.retries) +
                         " failed attempt(s) retried";
    }
    report.status.phases.push_back(std::move(execute));
    return report;
}

}  // namespace fastmon
