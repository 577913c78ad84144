// Fleet supervision: directory-queue mechanics (atomic claims,
// requeue, quarantine, stale-claim recovery), scripted failure
// scenarios through a fake launcher (crash, hang, corrupt artifact,
// poison job), and real-subprocess end-to-end recovery: a
// crash-injected / hung shard is retried from its own incomplete
// artifact and the merged report converges bit-identically to the
// single-process run.
#include "campaign/fleet.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/shard.hpp"
#include "netlist/iscas_data.hpp"
#include "util/fault_inject.hpp"

namespace fastmon {
namespace {

class FleetTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("fastmon_fleet_" + std::to_string(::getpid()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override {
        FaultInjector::global().reset();
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }
    [[nodiscard]] std::string root() const { return dir_.string(); }

    /// Campaign every scenario here shards: small but large enough
    /// that every shard of 3 owns several devices.
    [[nodiscard]] CampaignConfig campaign_config() const {
        CampaignConfig c;
        c.population = 21;
        c.seed = 7;
        c.model.defect.incidence = 0.3;
        c.num_threads = 1;
        c.checkpoint_every = 4;
        return c;
    }

    /// Supervisor knobs tuned for test speed.
    [[nodiscard]] FleetConfig fleet_config(std::uint32_t shards) const {
        FleetConfig f;
        f.root = root();
        f.shard_count = shards;
        f.max_parallel = 2;
        f.poll_seconds = 0.005;
        f.stall_timeout_seconds = 0.25;
        f.backoff_initial_seconds = 0.01;
        f.backoff_max_seconds = 0.05;
        return f;
    }

    void enqueue_shards(FleetQueue& queue, std::uint32_t count) {
        for (std::uint32_t s = 0; s < count; ++s) {
            FleetJob job;
            job.id = "shard-" + std::to_string(s);
            job.shard_index = s;
            job.shard_count = count;
            ASSERT_TRUE(queue.enqueue(job));
        }
    }

    /// Merges the fleet's shard artifacts and asserts the campaign and
    /// aggregate blocks are bit-identical to the unsharded run.
    void expect_bit_identical_merge(std::uint32_t shards) {
        const CampaignConfig plain = campaign_config();
        const Json reference = run_campaign(nl_, plain).to_json(plain);
        std::vector<std::string> paths;
        for (std::uint32_t s = 0; s < shards; ++s) {
            paths.push_back(shard_artifact_path(root(), s));
        }
        const ShardMerge merged = merge_shard_results(paths);
        ASSERT_TRUE(merged.complete);
        EXPECT_EQ(merged.report.find("campaign")->dump(2),
                  reference.find("campaign")->dump(2));
        EXPECT_EQ(merged.report.find("aggregate")->dump(2),
                  reference.find("aggregate")->dump(2));
    }

    Netlist nl_ = make_mini_alu();
    std::filesystem::path dir_;
};

TEST_F(FleetTest, JobJsonRoundTrip) {
    FleetJob job;
    job.id = "shard-3";
    job.shard_index = 3;
    job.shard_count = 8;
    job.attempts = 2;
    job.last_error = "exit code 70";
    job.fault_inject = "shard.crash@5";
    job.fault_first_attempt_only = false;
    const auto back = FleetJob::from_json(job.to_json());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->id, job.id);
    EXPECT_EQ(back->shard_index, job.shard_index);
    EXPECT_EQ(back->shard_count, job.shard_count);
    EXPECT_EQ(back->attempts, job.attempts);
    EXPECT_EQ(back->last_error, job.last_error);
    EXPECT_EQ(back->fault_inject, job.fault_inject);
    EXPECT_EQ(back->fault_first_attempt_only, job.fault_first_attempt_only);

    EXPECT_FALSE(FleetJob::from_json(Json::object()));
}

TEST_F(FleetTest, QueueClaimIsExclusiveAndTransitionsAreDurable) {
    FleetQueue queue(root());
    ASSERT_TRUE(queue.init());
    enqueue_shards(queue, 2);
    EXPECT_EQ(queue.pending(),
              (std::vector<std::string>{"shard-0", "shard-1"}));

    // Claim moves the job out of queue/; a second claim loses the race.
    auto job = queue.claim("shard-0");
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(job->shard_index, 0u);
    EXPECT_FALSE(queue.claim("shard-0").has_value());
    EXPECT_EQ(queue.pending(), std::vector<std::string>{"shard-1"});

    // A failed attempt goes back to the queue with its bookkeeping.
    job->attempts = 1;
    job->last_error = "exit code 70";
    ASSERT_TRUE(queue.requeue(*job));
    EXPECT_EQ(queue.pending(),
              (std::vector<std::string>{"shard-0", "shard-1"}));
    job = queue.claim("shard-0");
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(job->attempts, 1u);
    EXPECT_EQ(job->last_error, "exit code 70");

    ASSERT_TRUE(queue.complete(*job));
    EXPECT_EQ(queue.done(), std::vector<std::string>{"shard-0"});

    auto poison = queue.claim("shard-1");
    ASSERT_TRUE(poison.has_value());
    ASSERT_TRUE(queue.quarantine(*poison, "kept crashing"));
    EXPECT_EQ(queue.quarantined(), std::vector<std::string>{"shard-1"});
    EXPECT_TRUE(queue.pending().empty());
}

TEST_F(FleetTest, RecoverStaleRequeuesClaimsLeftByADeadSupervisor) {
    FleetQueue queue(root());
    ASSERT_TRUE(queue.init());
    enqueue_shards(queue, 2);
    ASSERT_TRUE(queue.claim("shard-0").has_value());
    ASSERT_TRUE(queue.claim("shard-1").has_value());
    EXPECT_TRUE(queue.pending().empty());
    // The "supervisor" dies here without resolving its claims.
    EXPECT_EQ(queue.recover_stale(), 2u);
    EXPECT_EQ(queue.pending(),
              (std::vector<std::string>{"shard-0", "shard-1"}));
    EXPECT_EQ(queue.recover_stale(), 0u);
}

/// What a scripted fake worker does on one attempt.
enum class Act : std::uint8_t {
    Ok,       ///< run the shard in-process, write a valid artifact
    Crash,    ///< exit 70 immediately, no artifact
    Hang,     ///< never exit (the supervisor must stall-kill it)
    Corrupt,  ///< run the shard but flip a digit in the artifact
};

class FakeHandle : public ShardHandle {
public:
    explicit FakeHandle(std::optional<int> status) : status_(status) {}
    std::optional<int> poll() override {
        return killed_ ? std::optional<int>(137) : status_;
    }
    void kill() override { killed_ = true; }

private:
    std::optional<int> status_;
    bool killed_ = false;
};

/// Runs shard attempts in-process, following a per-shard script of
/// Acts (attempts past the end of the script run clean).
class FakeLauncher : public ShardLauncher {
public:
    FakeLauncher(const Netlist& nl, CampaignConfig base)
        : nl_(nl), base_(std::move(base)) {}

    std::map<std::uint32_t, std::vector<Act>> script;
    std::size_t launches = 0;

    std::unique_ptr<ShardHandle> launch(const ShardLaunch& spec,
                                        std::string*) override {
        ++launches;
        Act act = Act::Ok;
        if (const auto it = script.find(spec.shard_index);
            it != script.end() && spec.attempt <= it->second.size()) {
            act = it->second[spec.attempt - 1];
        }
        if (act == Act::Crash) return std::make_unique<FakeHandle>(70);
        if (act == Act::Hang) {
            return std::make_unique<FakeHandle>(std::nullopt);
        }
        CampaignConfig c = base_;
        c.shard_index = spec.shard_index;
        c.shard_count = spec.shard_count;
        c.checkpoint_path = spec.artifact_path;
        c.resume = true;
        (void)run_campaign(nl_, c);
        if (act == Act::Corrupt) {
            // Damage the final write: rewrite the finished artifact
            // through the armed injection point.
            const auto artifact = load_shard_result(spec.artifact_path);
            FaultInjector::global().arm("shard.corrupt_artifact");
            if (artifact) save_shard_result(spec.artifact_path, *artifact);
        }
        return std::make_unique<FakeHandle>(0);
    }

private:
    const Netlist& nl_;
    CampaignConfig base_;
};

TEST_F(FleetTest, CleanFleetConvergesBitIdentically) {
    FleetQueue queue(root());
    ASSERT_TRUE(queue.init());
    enqueue_shards(queue, 3);
    FakeLauncher launcher(nl_, campaign_config());
    const FleetReport report =
        run_fleet(fleet_config(3), queue, launcher);
    EXPECT_EQ(report.jobs_done, 3u);
    EXPECT_EQ(report.jobs_quarantined, 0u);
    EXPECT_EQ(report.retries, 0u);
    EXPECT_STREQ(report.status.overall(), "ok");
    EXPECT_EQ(launcher.launches, 3u);
    expect_bit_identical_merge(3);
}

TEST_F(FleetTest, CrashedShardIsRetriedAndConverges) {
    FleetQueue queue(root());
    ASSERT_TRUE(queue.init());
    enqueue_shards(queue, 3);
    FakeLauncher launcher(nl_, campaign_config());
    launcher.script[1] = {Act::Crash};
    const FleetReport report =
        run_fleet(fleet_config(3), queue, launcher);
    EXPECT_EQ(report.jobs_done, 3u);
    EXPECT_EQ(report.retries, 1u);
    EXPECT_STREQ(report.status.overall(), "degraded");
    ASSERT_EQ(report.jobs.size(), 3u);
    EXPECT_EQ(report.jobs[1].attempts, 2u);
    EXPECT_NE(report.jobs[1].detail.find("exit code 70"),
              std::string::npos);
    expect_bit_identical_merge(3);
}

TEST_F(FleetTest, HungShardIsKilledAndRetried) {
    FleetQueue queue(root());
    ASSERT_TRUE(queue.init());
    enqueue_shards(queue, 2);
    FakeLauncher launcher(nl_, campaign_config());
    launcher.script[0] = {Act::Hang};
    const FleetReport report =
        run_fleet(fleet_config(2), queue, launcher);
    EXPECT_EQ(report.jobs_done, 2u);
    EXPECT_EQ(report.stalls_killed, 1u);
    EXPECT_EQ(report.retries, 1u);
    ASSERT_EQ(report.jobs.size(), 2u);
    EXPECT_NE(report.jobs[0].detail.find("hung"), std::string::npos);
    expect_bit_identical_merge(2);
}

TEST_F(FleetTest, CorruptArtifactCountsAsAFailedAttempt) {
    FleetQueue queue(root());
    ASSERT_TRUE(queue.init());
    enqueue_shards(queue, 2);
    FakeLauncher launcher(nl_, campaign_config());
    launcher.script[1] = {Act::Corrupt};
    const FleetReport report =
        run_fleet(fleet_config(2), queue, launcher);
    EXPECT_EQ(report.jobs_done, 2u);
    EXPECT_EQ(report.retries, 1u);
    ASSERT_EQ(report.jobs.size(), 2u);
    EXPECT_NE(report.jobs[1].detail.find("checksum"), std::string::npos);
    expect_bit_identical_merge(2);
}

TEST_F(FleetTest, PoisonJobIsQuarantinedAndTheRestStillMerge) {
    FleetQueue queue(root());
    ASSERT_TRUE(queue.init());
    enqueue_shards(queue, 3);
    FakeLauncher launcher(nl_, campaign_config());
    launcher.script[1] = {Act::Crash, Act::Crash, Act::Crash};
    FleetConfig config = fleet_config(3);
    config.max_attempts = 2;
    const FleetReport report = run_fleet(config, queue, launcher);
    EXPECT_EQ(report.jobs_done, 2u);
    EXPECT_EQ(report.jobs_quarantined, 1u);
    EXPECT_STREQ(report.status.overall(), "degraded");
    ASSERT_EQ(report.jobs.size(), 3u);
    EXPECT_EQ(report.jobs[1].state, "quarantined");
    EXPECT_EQ(report.jobs[1].attempts, 2u);
    EXPECT_EQ(queue.quarantined(), std::vector<std::string>{"shard-1"});

    // The survivors still merge into an honest partial report.
    const ShardMerge merged = merge_shard_results(
        {shard_artifact_path(root(), 0), shard_artifact_path(root(), 1),
         shard_artifact_path(root(), 2)});
    EXPECT_TRUE(merged.mergeable);
    EXPECT_FALSE(merged.complete);
    EXPECT_EQ(merged.shards[1].state, ShardState::Missing);
    EXPECT_EQ(merged.devices_merged, 14u);  // 21 devices minus shard 1
    EXPECT_STREQ(merged.status.overall(), "degraded");
}

TEST_F(FleetTest, EveryJobPoisonedFailsHonestly) {
    FleetQueue queue(root());
    ASSERT_TRUE(queue.init());
    enqueue_shards(queue, 1);
    FakeLauncher launcher(nl_, campaign_config());
    launcher.script[0] = {Act::Crash, Act::Crash};
    FleetConfig config = fleet_config(1);
    config.max_attempts = 2;
    const FleetReport report = run_fleet(config, queue, launcher);
    EXPECT_EQ(report.jobs_done, 0u);
    EXPECT_EQ(report.jobs_quarantined, 1u);
    const PhaseStatus* execute = report.status.find("fleet_execute");
    ASSERT_NE(execute, nullptr);
    EXPECT_EQ(execute->outcome, PhaseOutcome::Failed);
    EXPECT_NE(execute->detail.find("every job"), std::string::npos);
}

// --- Real-subprocess end-to-end recovery -----------------------------
//
// These spawn the actual fastmon_campaign binary (path baked in by the
// build) through the production SubprocessShardLauncher, with faults
// injected via FASTMON_FAULT_INJECT in the worker environment.

class FleetSubprocessTest : public FleetTest {
protected:
    /// CLI arguments matching campaign_config() above; the launcher
    /// appends the shard / checkpoint / resume / heartbeat flags.
    [[nodiscard]] std::vector<std::string> campaign_args() const {
        return {"--population",       "21",  "--seed",
                "7",                  "--defect-rate", "0.3",
                "--threads",          "1",   "--checkpoint-every",
                "4",                  "--quiet", "--out",
                root() + "/worker_report.json"};
    }

    /// Enqueues shards with a fault spec on one of them.
    void enqueue_with_fault(FleetQueue& queue, std::uint32_t count,
                            std::uint32_t faulty,
                            const std::string& spec,
                            bool first_attempt_only = true) {
        for (std::uint32_t s = 0; s < count; ++s) {
            FleetJob job;
            job.id = "shard-" + std::to_string(s);
            job.shard_index = s;
            job.shard_count = count;
            if (s == faulty) {
                job.fault_inject = spec;
                job.fault_first_attempt_only = first_attempt_only;
            }
            ASSERT_TRUE(queue.enqueue(job));
        }
    }
};

TEST_F(FleetSubprocessTest, CrashInjectedShardResumesToBitIdenticalMerge) {
    FleetQueue queue(root());
    ASSERT_TRUE(queue.init());
    // Shard 1 of 2 owns ~10 devices; dying at its 5th device leaves an
    // incomplete artifact behind (checkpoint-every 4), so the retry
    // resumes.
    enqueue_with_fault(queue, 2, 1, "shard.crash@5");
    FleetConfig config = fleet_config(2);
    config.stall_timeout_seconds = 30.0;  // only crash recovery here
    SubprocessShardLauncher launcher(FASTMON_CAMPAIGN_BIN,
                                     campaign_args());
    const FleetReport report = run_fleet(config, queue, launcher);
    EXPECT_EQ(report.jobs_done, 2u);
    EXPECT_EQ(report.retries, 1u);
    ASSERT_EQ(report.jobs.size(), 2u);
    EXPECT_EQ(report.jobs[1].attempts, 2u);
    // shard.crash exits 70 — a SIGKILL-equivalent hard death.
    EXPECT_NE(report.jobs[1].detail.find("exit code 70"),
              std::string::npos);
    expect_bit_identical_merge(2);

    // The retried shard genuinely resumed: the artifact's latency
    // sketch counts only the devices the second attempt rolled, not
    // the 4 it trusted from the pre-crash snapshot.
    const auto artifact = load_shard_result(shard_artifact_path(root(), 1));
    ASSERT_TRUE(artifact.has_value());
    EXPECT_EQ(artifact->outcomes.size(), 11u);
    EXPECT_EQ(artifact->roll_latency_us.count(), 7u);
}

TEST_F(FleetSubprocessTest, HungShardIsStallKilledAndResumes) {
    FleetQueue queue(root());
    ASSERT_TRUE(queue.init());
    enqueue_with_fault(queue, 2, 0, "shard.hang@5");
    FleetConfig config = fleet_config(2);
    config.stall_timeout_seconds = 1.0;
    ::setenv("FASTMON_HEARTBEAT", "0.05", 1);
    SubprocessShardLauncher launcher(FASTMON_CAMPAIGN_BIN,
                                     campaign_args());
    const FleetReport report = run_fleet(config, queue, launcher);
    ::unsetenv("FASTMON_HEARTBEAT");
    EXPECT_EQ(report.jobs_done, 2u);
    EXPECT_EQ(report.stalls_killed, 1u);
    EXPECT_EQ(report.retries, 1u);
    ASSERT_EQ(report.jobs.size(), 2u);
    EXPECT_NE(report.jobs[0].detail.find("hung"), std::string::npos);
    expect_bit_identical_merge(2);
}

TEST_F(FleetSubprocessTest, PersistentCrashIsQuarantined) {
    FleetQueue queue(root());
    ASSERT_TRUE(queue.init());
    enqueue_with_fault(queue, 2, 0, "shard.crash@2",
                       /*first_attempt_only=*/false);
    FleetConfig config = fleet_config(2);
    config.max_attempts = 2;
    config.stall_timeout_seconds = 30.0;
    SubprocessShardLauncher launcher(FASTMON_CAMPAIGN_BIN,
                                     campaign_args());
    const FleetReport report = run_fleet(config, queue, launcher);
    EXPECT_EQ(report.jobs_done, 1u);
    EXPECT_EQ(report.jobs_quarantined, 1u);
    EXPECT_EQ(queue.quarantined(), std::vector<std::string>{"shard-0"});
    EXPECT_STREQ(report.status.overall(), "degraded");
}

TEST(FleetPaths, AreRootedAndDistinct) {
    EXPECT_EQ(shard_artifact_path("/r", 2), "/r/shards/shard-2.json");
    EXPECT_EQ(shard_heartbeat_path("/r", 2),
              "/r/shards/shard-2.heartbeat.json");
    EXPECT_NE(shard_log_path("/r", 2, 1), shard_log_path("/r", 2, 2));
}

}  // namespace
}  // namespace fastmon
