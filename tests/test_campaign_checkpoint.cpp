// Campaign checkpoint/resume: the checkpoint is the campaign-state
// artifact (a ShardResult).  Snapshot round trips, structural
// validation, fingerprint guarding, the resume-equivalence guarantee (a
// resumed campaign converges to the uninterrupted aggregate and
// telemetry bit-for-bit), and the CLI legs: a killed run's checkpoint
// resumes and merges as an incomplete shard.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "campaign/campaign.hpp"
#include "campaign/shard.hpp"
#include "netlist/iscas_data.hpp"
#include "util/subprocess.hpp"

namespace fastmon {
namespace {

DeviceOutcome make_outcome(std::uint32_t index) {
    DeviceOutcome out;
    out.index = index;
    out.marginal = (index % 2) == 0;
    out.num_defects = index % 3;
    out.aging_amplitude = 0.4 + 0.01 * index;
    out.first_alert_years = {-1.0, 0.5 + index, 1.5 + index};
    out.failure_years = 4.0 + index;
    out.margin_used_t0 = 0.6;
    out.screen_score = index == 0 ? 1.25 : 0.0;
    return out;
}

/// Re-derives the partial aggregate after an edit of the outcomes.
void refresh_aggregate(ShardResult& artifact) {
    artifact.aggregate =
        aggregate_outcomes(artifact.outcomes,
                           AggregateConfig{artifact.early_fail_years})
            .to_json();
}

/// Unsharded artifact over `population` devices holding `outcomes`.
ShardResult make_artifact(std::uint64_t population,
                          std::vector<DeviceOutcome> outcomes) {
    ShardResult artifact;
    artifact.fingerprint = 0x0123456789ABCDEFULL;
    artifact.population = population;
    artifact.range_end = population;
    artifact.campaign = Json::object();
    artifact.outcomes = std::move(outcomes);
    refresh_aggregate(artifact);
    return artifact;
}

std::string read_text(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

class CheckpointTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("fastmon_ckpt_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }
    [[nodiscard]] std::string path(const std::string& name) const {
        return (dir_ / name).string();
    }

    std::filesystem::path dir_;
};

TEST_F(CheckpointTest, JsonRoundTripPreservesEverything) {
    const ShardResult artifact =
        make_artifact(10, {make_outcome(0), make_outcome(3), make_outcome(7)});
    EXPECT_FALSE(artifact.complete());

    std::string error;
    const auto back = ShardResult::from_json(artifact.to_json(), &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->fingerprint, artifact.fingerprint);
    EXPECT_EQ(back->population, artifact.population);
    EXPECT_EQ(back->outcomes, artifact.outcomes);
    EXPECT_EQ(back->aggregate.dump(0), artifact.aggregate.dump(0));
}

TEST_F(CheckpointTest, FileRoundTripAndMissingFile) {
    const ShardResult artifact =
        make_artifact(4, {make_outcome(1), make_outcome(2)});
    ASSERT_TRUE(save_shard_result(path("c.json"), artifact));

    std::string error;
    const auto back = load_shard_result(path("c.json"), &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->outcomes, artifact.outcomes);

    // A missing file is a fresh campaign, not an error.
    error.clear();
    EXPECT_FALSE(load_shard_result(path("absent.json"), &error).has_value());
    EXPECT_TRUE(error.empty());
}

TEST_F(CheckpointTest, RejectsCorruptAndInvalidSnapshots) {
    {
        std::ofstream out(path("garbage.json"));
        out << "{not json";
    }
    std::string error;
    EXPECT_FALSE(load_shard_result(path("garbage.json"), &error).has_value());
    EXPECT_NE(error.find("not valid JSON"), std::string::npos);

    // Not ascending, then out of range: re-checksummed by to_json, so
    // the structural checks are what must catch them.
    std::string why;
    EXPECT_FALSE(ShardResult::from_json(
                     make_artifact(5, {make_outcome(2), make_outcome(1)})
                         .to_json(),
                     &why)
                     .has_value());
    EXPECT_NE(why.find("ascending"), std::string::npos) << why;
    EXPECT_FALSE(ShardResult::from_json(
                     make_artifact(5, {make_outcome(1), make_outcome(9)})
                         .to_json(),
                     &why)
                     .has_value());
    EXPECT_NE(why.find("range"), std::string::npos) << why;

    Json bad_format =
        make_artifact(5, {make_outcome(1), make_outcome(2)}).to_json();
    bad_format.set("format", 3);  // from the future
    EXPECT_FALSE(ShardResult::from_json(bad_format, &why).has_value());
    EXPECT_NE(why.find("format"), std::string::npos) << why;
}

TEST_F(CheckpointTest, ChecksumRejectsATamperedOutcome) {
    const ShardResult artifact =
        make_artifact(5, {make_outcome(1), make_outcome(2)});
    Json doc = artifact.to_json();
    ASSERT_TRUE(ShardResult::from_json(doc).has_value());

    // Flip one trusted value without touching the stored checksum —
    // the canonical-payload recomputation must notice.
    Json payload = *doc.find("payload");
    Json outcomes = *payload.find("outcomes");
    outcomes.as_array()[0].set("failure_years", 99.0);
    payload.set("outcomes", std::move(outcomes));
    doc.set("payload", std::move(payload));
    std::string error;
    EXPECT_FALSE(ShardResult::from_json(doc, &error).has_value());
    EXPECT_NE(error.find("checksum"), std::string::npos) << error;

    // An artifact missing its checksum entirely is also rejected.
    Json stripped = artifact.to_json();
    JsonObject& obj = stripped.as_object();
    obj.erase(std::remove_if(obj.begin(), obj.end(),
                             [](const auto& kv) {
                                 return kv.first == "checksum";
                             }),
              obj.end());
    error.clear();
    EXPECT_FALSE(ShardResult::from_json(stripped, &error).has_value());
}

TEST(CheckpointFingerprint, SensitiveToEveryConfigKnob) {
    const Netlist nl = make_mini_alu();
    CampaignConfig base;
    const std::string canonical = campaign_canonical(nl, base);
    EXPECT_NE(canonical.find("campaign-v1"), std::string::npos);

    CampaignConfig seed = base;
    seed.seed = 2;
    CampaignConfig pop = base;
    pop.population = base.population + 1;
    CampaignConfig incidence = base;
    incidence.model.defect.incidence += 0.01;
    const std::uint64_t fp = fnv1a64(canonical);
    EXPECT_NE(fp, fnv1a64(campaign_canonical(nl, seed)));
    EXPECT_NE(fp, fnv1a64(campaign_canonical(nl, pop)));
    EXPECT_NE(fp, fnv1a64(campaign_canonical(nl, incidence)));
    // Stable across calls (no hidden state in the canonical string).
    EXPECT_EQ(fp, fnv1a64(campaign_canonical(nl, base)));
}

struct ResumeFixture : CheckpointTest {
    Netlist nl = make_mini_alu();

    CampaignConfig config(const std::string& ckpt_path) const {
        CampaignConfig c;
        c.population = 20;
        c.seed = 5;
        c.model.defect.incidence = 0.3;
        c.num_threads = 1;
        c.checkpoint_path = ckpt_path;
        c.checkpoint_every = 6;
        return c;
    }

    /// Runs `c` to completion, then cuts its artifact back to the first
    /// `keep` devices.
    void write_prefix(const CampaignConfig& c, std::size_t keep) const {
        const CampaignResult full = run_campaign(nl, c);
        EXPECT_GE(full.checkpoints_written, 1u);
        std::string error;
        auto artifact = load_shard_result(c.checkpoint_path, &error);
        ASSERT_TRUE(artifact.has_value()) << error;
        ASSERT_EQ(artifact->outcomes.size(), c.population);
        EXPECT_TRUE(artifact->complete());
        artifact->outcomes.resize(keep);
        refresh_aggregate(*artifact);
        ASSERT_TRUE(save_shard_result(c.checkpoint_path, *artifact));
    }
};

TEST_F(ResumeFixture, ResumeConvergesToUninterruptedAggregate) {
    // Reference: an uninterrupted run (no checkpointing at all).
    CampaignConfig plain = config("");
    const CampaignResult reference = run_campaign(nl, plain);

    // The state a killed campaign would have left behind.
    CampaignConfig ckpt_config = config(path("resume.json"));
    write_prefix(ckpt_config, 8);

    CampaignConfig resumed_config = ckpt_config;
    resumed_config.resume = true;
    const CampaignResult resumed = run_campaign(nl, resumed_config);

    EXPECT_EQ(resumed.devices_resumed, 8u);
    EXPECT_EQ(resumed.devices_completed, ckpt_config.population);
    const PhaseStatus* resume_phase =
        resumed.status.find("campaign_resume");
    ASSERT_NE(resume_phase, nullptr);
    EXPECT_EQ(resume_phase->outcome, PhaseOutcome::Ok);

    // The contract: outcomes and the deterministic report blocks are
    // bit-identical to the uninterrupted run, and so are the outcome
    // distributions in the telemetry.
    EXPECT_EQ(resumed.outcomes, reference.outcomes);
    EXPECT_EQ(resumed.to_json(resumed_config).find("aggregate")->dump(2),
              reference.to_json(plain).find("aggregate")->dump(2));
    for (const char* key : {"first_alert_years", "failure_years"}) {
        EXPECT_EQ(resumed.telemetry.find(key)->find("summary")->dump(0),
                  reference.telemetry.find(key)->find("summary")->dump(0))
            << key;
    }
    // Latency is this process's wall clock: resumed devices are not in
    // it.
    EXPECT_EQ(resumed.telemetry.find("roll_latency_us")
                  ->find("summary")
                  ->find("count")
                  ->as_number(),
              12.0);

    // The finished artifact is complete again.
    const auto finished = load_shard_result(ckpt_config.checkpoint_path);
    ASSERT_TRUE(finished.has_value());
    EXPECT_TRUE(finished->complete());
    EXPECT_EQ(finished->outcomes, reference.outcomes);
}

TEST_F(ResumeFixture, BatchedResumeCrossesBatchBoundaryBitIdentically) {
    // Resume with a prefix that is NOT a multiple of the batch width:
    // the first batch after resume packs the ragged remainder of one
    // "old" batch together with fresh devices.  Outcomes must still be
    // bit-identical to an uninterrupted batched run AND to the scalar
    // reference (batch_width is deliberately outside the fingerprint,
    // so scalar-written checkpoints resume under the batched engine).
    CampaignConfig scalar_plain = config("");
    scalar_plain.batch_width = 1;
    const CampaignResult reference = run_campaign(nl, scalar_plain);

    CampaignConfig batched_ckpt = config(path("batch_resume.json"));
    batched_ckpt.batch_width = 0;  // compiled width
    // 5 completed devices: inside the first batch for every compiled
    // width >= 2, and not a multiple of 4 or 8.
    write_prefix(batched_ckpt, 5);

    CampaignConfig resumed_config = batched_ckpt;
    resumed_config.resume = true;
    const CampaignResult resumed = run_campaign(nl, resumed_config);
    EXPECT_EQ(resumed.devices_resumed, 5u);
    EXPECT_EQ(resumed.devices_completed, batched_ckpt.population);
    EXPECT_EQ(resumed.outcomes, reference.outcomes);
    EXPECT_EQ(resumed.to_json(resumed_config).find("aggregate")->dump(2),
              reference.to_json(scalar_plain).find("aggregate")->dump(2));
}

TEST_F(ResumeFixture, MismatchedFingerprintFallsBackToFreshStart) {
    CampaignConfig first = config(path("stale.json"));
    (void)run_campaign(nl, first);

    // Same checkpoint file, different campaign seed: the snapshot must
    // not be trusted.
    CampaignConfig other = first;
    other.seed = 99;
    other.resume = true;
    const CampaignResult result = run_campaign(nl, other);
    EXPECT_EQ(result.devices_resumed, 0u);
    EXPECT_EQ(result.devices_completed, other.population);
    const PhaseStatus* resume_phase = result.status.find("campaign_resume");
    ASSERT_NE(resume_phase, nullptr);
    EXPECT_EQ(resume_phase->outcome, PhaseOutcome::Degraded);
    EXPECT_NE(resume_phase->detail.find("fresh start"), std::string::npos);

    // The fresh run still matches a never-checkpointed run of the same
    // config.
    CampaignConfig plain = other;
    plain.checkpoint_path.clear();
    plain.resume = false;
    const CampaignResult reference = run_campaign(nl, plain);
    EXPECT_EQ(result.outcomes, reference.outcomes);
}

TEST_F(ResumeFixture, CorruptedSnapshotOnDiskFallsBackToFreshStart) {
    // A full checkpointed run, then flip one digit inside the snapshot
    // on disk — still valid JSON, so only the payload checksum can
    // catch it.
    CampaignConfig ckpt_config = config(path("bitrot.json"));
    (void)run_campaign(nl, ckpt_config);
    {
        std::string text = read_text(path("bitrot.json"));
        const std::size_t at = text.find("\"outcomes\"");
        ASSERT_NE(at, std::string::npos);
        for (std::size_t i = at; i < text.size(); ++i) {
            if (text[i] >= '1' && text[i] <= '8') {
                ++text[i];
                break;
            }
        }
        std::ofstream(path("bitrot.json"), std::ios::binary) << text;
    }

    CampaignConfig resumed_config = ckpt_config;
    resumed_config.resume = true;
    const CampaignResult result = run_campaign(nl, resumed_config);

    // Honest degradation: nothing resumed, the reason names the
    // checksum, and the fresh run converges to the reference.
    EXPECT_EQ(result.devices_resumed, 0u);
    EXPECT_EQ(result.devices_completed, resumed_config.population);
    const PhaseStatus* resume_phase = result.status.find("campaign_resume");
    ASSERT_NE(resume_phase, nullptr);
    EXPECT_EQ(resume_phase->outcome, PhaseOutcome::Degraded);
    EXPECT_NE(resume_phase->detail.find("checksum"), std::string::npos)
        << resume_phase->detail;
    EXPECT_NE(resume_phase->detail.find("fresh start"), std::string::npos);

    CampaignConfig plain = config("");
    const CampaignResult reference = run_campaign(nl, plain);
    EXPECT_EQ(result.outcomes, reference.outcomes);
    EXPECT_EQ(result.to_json(resumed_config).find("aggregate")->dump(2),
              reference.to_json(plain).find("aggregate")->dump(2));
}

TEST_F(ResumeFixture, FormatTwoCheckpointDegradesToFreshStart) {
    // The checkpoint file format that predates the shard artifact:
    // {format 2, fingerprint, population, checksum, outcomes}, with a
    // checksum that matches its outcomes.  It is refused, not misread.
    CampaignConfig c = config(path("format2.json"));
    Json outcomes = Json::array();
    for (std::uint32_t i = 0; i < 4; ++i) {
        outcomes.push_back(make_outcome(i).to_json());
    }
    Json old = Json::object();
    old.set("format", 2);
    old.set("fingerprint", fingerprint_hex(fnv1a64(campaign_canonical(nl, c))));
    old.set("population", c.population);
    old.set("checksum", fingerprint_hex(fnv1a64(outcomes.dump(0))));
    old.set("outcomes", std::move(outcomes));
    std::ofstream(c.checkpoint_path, std::ios::binary) << old.dump(2);

    c.resume = true;
    const CampaignResult result = run_campaign(nl, c);
    EXPECT_EQ(result.devices_resumed, 0u);
    EXPECT_EQ(result.devices_completed, c.population);
    const PhaseStatus* resume_phase = result.status.find("campaign_resume");
    ASSERT_NE(resume_phase, nullptr);
    EXPECT_EQ(resume_phase->outcome, PhaseOutcome::Degraded);
    EXPECT_NE(resume_phase->detail.find("fresh start"), std::string::npos)
        << resume_phase->detail;

    const CampaignResult reference = run_campaign(nl, config(""));
    EXPECT_EQ(result.outcomes, reference.outcomes);
    // The fresh run replaced the old file with a complete artifact.
    const auto artifact = load_shard_result(c.checkpoint_path);
    ASSERT_TRUE(artifact.has_value());
    EXPECT_TRUE(artifact->complete());
}

TEST_F(ResumeFixture, UnshardedArtifactSeedsOnlyTheShardsOwnDevices) {
    // An unsharded run killed after 15 of 20 devices; shard 1/2 owns
    // [10, 20) and may trust only devices 10..14 of it.
    CampaignConfig unsharded = config(path("unsharded.json"));
    write_prefix(unsharded, 15);

    CampaignConfig shard = unsharded;
    shard.shard_index = 1;
    shard.shard_count = 2;
    shard.resume = true;
    const CampaignResult result = run_campaign(nl, shard);
    EXPECT_EQ(result.devices_resumed, 5u);
    EXPECT_EQ(result.devices_completed, 10u);
    ASSERT_EQ(result.outcomes.size(), 10u);
    EXPECT_EQ(result.outcomes.front().index, 10u);

    const CampaignResult reference = run_campaign(nl, config(""));
    EXPECT_TRUE(std::equal(result.outcomes.begin(), result.outcomes.end(),
                           reference.outcomes.begin() + 10));
    // The artifact is now shard 1/2's, covering its range only.
    const auto artifact = load_shard_result(shard.checkpoint_path);
    ASSERT_TRUE(artifact.has_value());
    EXPECT_EQ(artifact->shard_index, 1u);
    EXPECT_EQ(artifact->shard_count, 2u);
    EXPECT_TRUE(artifact->complete());
    EXPECT_EQ(artifact->outcomes, result.outcomes);
}

// --- The CLI: a real process killed mid-run --------------------------

class CheckpointCli : public CheckpointTest {
protected:
    /// Runs fastmon_campaign on the built-in circuit with `extra` flags
    /// and `env`; returns the exit code.
    int campaign(const std::vector<std::string>& extra,
                 const std::vector<std::pair<std::string, std::string>>& env =
                     {}) const {
        std::vector<std::string> argv = {
            FASTMON_CAMPAIGN_BIN, "--population", "60", "--seed", "3",
            "--defect-rate", "0.3", "--threads", "1", "--checkpoint-every",
            "10", "--checkpoint", path("ckpt.json"), "--quiet"};
        argv.insert(argv.end(), extra.begin(), extra.end());
        SpawnOptions options;
        options.output_path = path("campaign.log");
        options.env = env;
        auto child = Subprocess::spawn(argv, options);
        return child ? child->exit_code() : -1;
    }

    /// A run hard-killed at its 35th device: the checkpoint holds the
    /// 30 devices of its last snapshot.
    void kill_mid_run() const {
        ASSERT_EQ(campaign({"--out", path("killed.json")},
                           {{"FASTMON_FAULT_INJECT", "shard.crash@35"}}),
                  70);
        const auto artifact = load_shard_result(path("ckpt.json"));
        ASSERT_TRUE(artifact.has_value());
        ASSERT_EQ(artifact->outcomes.size(), 30u);
    }
};

TEST_F(CheckpointCli, KilledRunResumesWithTheUninterruptedTelemetry) {
    ASSERT_EQ(campaign({"--out", path("reference.json")}), 0);
    std::filesystem::remove(path("ckpt.json"));
    kill_mid_run();
    ASSERT_EQ(campaign({"--resume", "--out", path("resumed.json")}), 0);

    const auto reference = Json::parse(read_text(path("reference.json")));
    const auto resumed = Json::parse(read_text(path("resumed.json")));
    ASSERT_TRUE(reference && resumed);
    EXPECT_EQ(resumed->find("run")->find("devices_resumed")->as_number(),
              30.0);
    for (const char* block : {"campaign", "aggregate"}) {
        EXPECT_EQ(resumed->find(block)->dump(0),
                  reference->find(block)->dump(0))
            << block;
    }
    const Json& ref_telemetry = *reference->find("run")->find("telemetry");
    const Json& res_telemetry = *resumed->find("run")->find("telemetry");
    for (const char* key : {"first_alert_years", "failure_years"}) {
        EXPECT_EQ(res_telemetry.find(key)->find("summary")->dump(0),
                  ref_telemetry.find(key)->find("summary")->dump(0))
            << key;
    }
}

TEST_F(CheckpointCli, MergeTakesAKilledRunsCheckpointAsIncomplete) {
    kill_mid_run();
    const auto merge = [&](std::vector<std::string> flags) {
        std::vector<std::string> argv = {FASTMON_MERGE_BIN, "--out",
                                         path("merged.json")};
        argv.insert(argv.end(), flags.begin(), flags.end());
        argv.push_back(path("ckpt.json"));
        SpawnOptions options;
        options.output_path = path("merge.log");
        auto child = Subprocess::spawn(argv, options);
        return child ? child->exit_code() : -1;
    };
    EXPECT_EQ(merge({}), 0);
    const auto merged = Json::parse(read_text(path("merged.json")));
    ASSERT_TRUE(merged.has_value());
    const Json& block = *merged->find("run")->find("merge");
    EXPECT_EQ(block.find("shards")->as_array()[0].find("state")->as_string(),
              "incomplete");
    EXPECT_EQ(block.find("devices_merged")->as_number(), 30.0);
    EXPECT_FALSE(block.find("complete")->as_bool());
    EXPECT_EQ(merge({"--strict"}), 1);
}

}  // namespace
}  // namespace fastmon
