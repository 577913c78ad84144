// Shard artifacts and merging: round trips, content-checksum damage
// detection, fault-injected corruption, merge bit-identity against the
// single-process run at shard counts 1/2/4, associativity of the fold,
// and honest per-shard status for missing / corrupt / foreign shards.
#include "campaign/shard.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string_view>

#include "campaign/campaign.hpp"
#include "netlist/iscas_data.hpp"
#include "util/fault_inject.hpp"

namespace fastmon {
namespace {

class ShardTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("fastmon_shard_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override {
        FaultInjector::global().reset();
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }
    [[nodiscard]] std::string path(const std::string& name) const {
        return (dir_ / name).string();
    }

    [[nodiscard]] CampaignConfig config() const {
        CampaignConfig c;
        c.population = 24;
        c.seed = 11;
        c.model.defect.incidence = 0.3;
        c.num_threads = 1;
        return c;
    }

    /// Runs shard index/count of `c` and returns the artifact it left
    /// at its checkpoint path.
    [[nodiscard]] ShardResult run_shard(std::size_t index, std::size_t count,
                                        CampaignConfig c) const {
        c.shard_index = index;
        c.shard_count = count;
        c.checkpoint_path = path("run_" + std::to_string(c.seed) + "_" +
                                 std::to_string(index) + "_of_" +
                                 std::to_string(count) + ".json");
        std::filesystem::remove(c.checkpoint_path);
        (void)run_campaign(nl_, c);
        std::string error;
        auto artifact = load_shard_result(c.checkpoint_path, &error);
        EXPECT_TRUE(artifact.has_value()) << error;
        return artifact ? std::move(*artifact) : ShardResult{};
    }
    [[nodiscard]] ShardResult run_shard(std::size_t index,
                                        std::size_t count) const {
        return run_shard(index, count, config());
    }

    /// Flips one digit of the payload half of the file at `p`.
    // Increments the leading digit of a number in the second half of
    // the file.  A trailing digit of a 17-significant-digit double may
    // parse back to the same value, which the checksum (computed over
    // the re-serialized values) rightly accepts; a leading digit always
    // changes the value.
    static void flip_digit(const std::string& p) {
        std::ifstream is(p, std::ios::binary);
        std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
        is.close();
        const std::string_view number_chars = "0123456789.+-eE";
        for (std::size_t i = text.size() / 2; i < text.size(); ++i) {
            if (text[i] >= '0' && text[i] <= '8' &&
                number_chars.find(text[i - 1]) == std::string_view::npos) {
                ++text[i];
                break;
            }
        }
        std::ofstream(p, std::ios::binary) << text;
    }

    Netlist nl_ = make_mini_alu();
    std::filesystem::path dir_;
};

TEST_F(ShardTest, ArtifactRoundTripPreservesEverything) {
    const ShardResult shard = run_shard(1, 2);
    EXPECT_TRUE(shard.complete());
    EXPECT_EQ(shard.range_begin, 12u);
    EXPECT_EQ(shard.range_end, 24u);

    std::string error;
    const auto back = ShardResult::from_json(shard.to_json(), &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->fingerprint, shard.fingerprint);
    EXPECT_EQ(back->shard_index, shard.shard_index);
    EXPECT_EQ(back->shard_count, shard.shard_count);
    EXPECT_EQ(back->population, shard.population);
    EXPECT_EQ(back->outcomes, shard.outcomes);
    EXPECT_EQ(back->aggregate.dump(0), shard.aggregate.dump(0));
    EXPECT_EQ(back->campaign.dump(0), shard.campaign.dump(0));
    EXPECT_EQ(back->roll_latency_us, shard.roll_latency_us);
}

TEST_F(ShardTest, FileRoundTripAndMissingFile) {
    const ShardResult shard = run_shard(0, 2);
    ASSERT_TRUE(save_shard_result(path("s0.json"), shard));
    std::string error;
    const auto back = load_shard_result(path("s0.json"), &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->outcomes, shard.outcomes);

    // Missing file: no artifact, no error message (caller decides).
    error.clear();
    EXPECT_FALSE(load_shard_result(path("absent.json"), &error));
    EXPECT_TRUE(error.empty());
}

TEST_F(ShardTest, ContentChecksumCatchesSingleFlippedDigit) {
    ASSERT_TRUE(save_shard_result(path("s.json"), run_shard(0, 2)));
    flip_digit(path("s.json"));
    std::string error;
    EXPECT_FALSE(load_shard_result(path("s.json"), &error));
    EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST_F(ShardTest, CorruptArtifactInjectionPointDamagesTheWrite) {
    // Armed after the run: its own checkpoint writes would trip it.
    const ShardResult shard = run_shard(0, 2);
    FaultInjector::global().arm("shard.corrupt_artifact");
    ASSERT_TRUE(save_shard_result(path("bad.json"), shard));
    std::string error;
    EXPECT_FALSE(load_shard_result(path("bad.json"), &error));
    EXPECT_NE(error.find("checksum"), std::string::npos) << error;

    // The injection trips once: the retry writes a clean artifact.
    ASSERT_TRUE(save_shard_result(path("good.json"), shard));
    EXPECT_TRUE(load_shard_result(path("good.json"), &error)) << error;
}

TEST_F(ShardTest, TamperedAggregateIsRejectedEvenWithFixedChecksum) {
    // An attacker (or a logic bug) that rewrites the aggregate AND
    // recomputes the checksum is still caught by the outcome
    // cross-check.
    Json doc = run_shard(0, 1).to_json();
    Json payload = *doc.find("payload");
    Json aggregate = *payload.find("aggregate");
    aggregate.set("failed", 9999);
    payload.set("aggregate", std::move(aggregate));
    doc.set("checksum",
            fingerprint_hex(fnv1a64(payload.dump(0))));
    doc.set("payload", std::move(payload));
    std::string error;
    EXPECT_FALSE(ShardResult::from_json(doc, &error));
    EXPECT_NE(error.find("aggregate"), std::string::npos) << error;
}

TEST_F(ShardTest, NonIntegerCoordinatesAreRejected) {
    // Re-checksummed, so the checked integer read itself must catch a
    // fraction, a negative, or a value past the 64-bit range.
    const Json doc = run_shard(0, 2).to_json();
    for (const char* key : {"shard_index", "shard_count", "population",
                            "range_begin", "range_end"}) {
        for (const double bad : {0.5, -1.0, 18446744073709551616.0}) {
            Json payload = *doc.find("payload");
            payload.set(key, bad);
            Json tampered = doc;
            tampered.set("checksum",
                         fingerprint_hex(fnv1a64(payload.dump(0))));
            tampered.set("payload", std::move(payload));
            std::string error;
            EXPECT_FALSE(ShardResult::from_json(tampered, &error))
                << key << " = " << bad;
        }
    }
}

TEST_F(ShardTest, MergedReportBitIdenticalAtShardCounts124) {
    const CampaignConfig plain = config();
    const Json reference = run_campaign(nl_, plain).to_json(plain);
    const std::string ref_campaign = reference.find("campaign")->dump(2);
    const std::string ref_aggregate = reference.find("aggregate")->dump(2);

    for (std::size_t count : {1u, 2u, 4u}) {
        std::vector<std::string> paths;
        for (std::size_t i = 0; i < count; ++i) {
            const std::string p =
                path("n" + std::to_string(count) + "_s" +
                     std::to_string(i) + ".json");
            ASSERT_TRUE(save_shard_result(p, run_shard(i, count)));
            paths.push_back(p);
        }
        const ShardMerge merged = merge_shard_results(paths);
        EXPECT_TRUE(merged.complete) << "shard count " << count;
        EXPECT_TRUE(merged.mergeable);
        EXPECT_EQ(merged.devices_merged, plain.population);
        EXPECT_STREQ(merged.status.overall(), "ok");
        EXPECT_EQ(merged.report.find("campaign")->dump(2), ref_campaign)
            << "shard count " << count;
        EXPECT_EQ(merged.report.find("aggregate")->dump(2), ref_aggregate)
            << "shard count " << count;
        // The outcome distributions are rebuilt from the merged
        // outcomes, so they match the unsharded run's exactly.
        const Json& telemetry = *merged.report.find("run")->find("telemetry");
        const Json& ref_telemetry = *reference.find("run")->find("telemetry");
        for (const char* key : {"first_alert_years", "failure_years"}) {
            EXPECT_EQ(telemetry.find(key)->find("summary")->dump(0),
                      ref_telemetry.find(key)->find("summary")->dump(0))
                << key << ", shard count " << count;
        }
    }
}

TEST_F(ShardTest, MergeIsAssociative) {
    ShardResult a = run_shard(0, 3);
    ShardResult b = run_shard(1, 3);
    ShardResult c = run_shard(2, 3);

    // ((a + b) + c)
    ShardResult left = a;
    std::string error;
    ASSERT_TRUE(left.merge(b, &error)) << error;
    ASSERT_TRUE(left.merge(c, &error)) << error;
    // (a + (b + c)) — note b+c unions non-adjacent... b and c are
    // adjacent; exercise the sparse case with (a + c) + b too.
    ShardResult right = b;
    ASSERT_TRUE(right.merge(c, &error)) << error;
    ShardResult right_total = a;
    ASSERT_TRUE(right_total.merge(right, &error)) << error;
    ShardResult sparse = a;
    ASSERT_TRUE(sparse.merge(c, &error)) << error;  // hole at b's range
    EXPECT_FALSE(sparse.complete());
    ASSERT_TRUE(sparse.merge(b, &error)) << error;

    for (const ShardResult* m : {&right_total, &sparse}) {
        EXPECT_EQ(m->outcomes, left.outcomes);
        EXPECT_EQ(m->aggregate.dump(0), left.aggregate.dump(0));
        EXPECT_TRUE(m->complete());
        // Sketch bucket counts are associative (sum is FP-order
        // sensitive, so compare counts and quantiles, not bits).
        EXPECT_EQ(m->roll_latency_us.count(), left.roll_latency_us.count());
        EXPECT_EQ(m->roll_latency_us.quantile(50.0),
                  left.roll_latency_us.quantile(50.0));
    }

    // Overlap is rejected and leaves the target unchanged.
    ShardResult overlap = left;
    EXPECT_FALSE(overlap.merge(a, &error));
    EXPECT_NE(error.find("overlap"), std::string::npos);
    EXPECT_EQ(overlap.outcomes, left.outcomes);
}

TEST_F(ShardTest, MergeReportsMissingCorruptAndForeignShards) {
    // Shards 0..3 of this campaign; shard 1 vanishes, shard 2 is
    // bit-flipped, shard 3 is replaced by a different campaign's shard.
    std::vector<std::string> paths;
    for (std::size_t i = 0; i < 4; ++i) {
        paths.push_back(path("m" + std::to_string(i) + ".json"));
        ASSERT_TRUE(save_shard_result(paths[i], run_shard(i, 4)));
    }
    std::filesystem::remove(paths[1]);
    flip_digit(paths[2]);
    {
        CampaignConfig other = config();
        other.seed = 99;  // different fingerprint
        ASSERT_TRUE(save_shard_result(paths[3], run_shard(3, 4, other)));
    }

    const ShardMerge merged = merge_shard_results(paths);
    ASSERT_EQ(merged.shards.size(), 4u);
    EXPECT_EQ(merged.shards[0].state, ShardState::Ok);
    EXPECT_EQ(merged.shards[1].state, ShardState::Missing);
    EXPECT_EQ(merged.shards[2].state, ShardState::Corrupt);
    EXPECT_EQ(merged.shards[3].state, ShardState::FingerprintMismatch);
    EXPECT_TRUE(merged.mergeable);
    EXPECT_FALSE(merged.complete);
    EXPECT_EQ(merged.devices_merged, 6u);  // shard 0 of 4 over 24
    EXPECT_STREQ(merged.status.overall(), "degraded");
    const PhaseStatus* validate = merged.status.find("merge_validate");
    ASSERT_NE(validate, nullptr);
    EXPECT_EQ(validate->outcome, PhaseOutcome::Degraded);
    EXPECT_NE(validate->detail.find("1 of 4"), std::string::npos);
    const PhaseStatus* aggregate = merged.status.find("merge_aggregate");
    ASSERT_NE(aggregate, nullptr);
    EXPECT_EQ(aggregate->outcome, PhaseOutcome::Degraded);
    // The degraded aggregate still exists and covers the survivor.
    EXPECT_NE(merged.report.find("aggregate"), nullptr);
}

TEST_F(ShardTest, DuplicateShardArtifactIsRejected) {
    ASSERT_TRUE(save_shard_result(path("d0.json"), run_shard(0, 2)));
    ASSERT_TRUE(save_shard_result(path("d1.json"), run_shard(1, 2)));
    const ShardMerge merged = merge_shard_results(
        {path("d0.json"), path("d0.json"), path("d1.json")});
    ASSERT_EQ(merged.shards.size(), 3u);
    EXPECT_EQ(merged.shards[0].state, ShardState::Ok);
    EXPECT_EQ(merged.shards[1].state, ShardState::Corrupt);
    EXPECT_NE(merged.shards[1].detail.find("duplicate"), std::string::npos);
    EXPECT_EQ(merged.shards[2].state, ShardState::Ok);
    EXPECT_EQ(merged.devices_merged, 24u);  // the dup was not double-counted
}

TEST_F(ShardTest, NoValidShardsFailsHonestly) {
    const ShardMerge merged =
        merge_shard_results({path("none0.json"), path("none1.json")});
    EXPECT_FALSE(merged.mergeable);
    EXPECT_FALSE(merged.complete);
    const PhaseStatus* validate = merged.status.find("merge_validate");
    ASSERT_NE(validate, nullptr);
    EXPECT_EQ(validate->outcome, PhaseOutcome::Failed);
    const PhaseStatus* aggregate = merged.status.find("merge_aggregate");
    ASSERT_NE(aggregate, nullptr);
    EXPECT_EQ(aggregate->outcome, PhaseOutcome::Skipped);
}

TEST(ShardDeviceRange, PartitionsThePopulationExactly) {
    for (const std::size_t population : {0u, 1u, 7u, 24u, 100u}) {
        for (const std::size_t count : {1u, 2u, 3u, 4u, 7u, 13u}) {
            std::size_t covered = 0;
            std::size_t prev_end = 0;
            for (std::size_t i = 0; i < count; ++i) {
                const auto [begin, end] =
                    shard_device_range(population, i, count);
                EXPECT_EQ(begin, prev_end);
                EXPECT_LE(end - begin,
                          population / count + 1);  // balanced
                covered += end - begin;
                prev_end = end;
            }
            EXPECT_EQ(covered, population);
            EXPECT_EQ(prev_end, population);
        }
    }
    // Degenerate coordinates are clamped to an empty range.
    const auto [b, e] = shard_device_range(10, 5, 4);
    EXPECT_EQ(b, e);
}

}  // namespace
}  // namespace fastmon
