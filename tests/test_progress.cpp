// Tests of the live-progress heartbeat layer: monotone snapshot
// counters, never-torn sidecar reads under a fast sampler, honest
// terminal states (including cancellation), and the campaign
// integration — the final sidecar must agree with the exported report
// while leaving the deterministic blocks untouched.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "netlist/iscas_data.hpp"
#include "util/cancel.hpp"
#include "util/json.hpp"
#include "util/progress.hpp"

namespace fastmon {
namespace {

std::optional<Json> read_json_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string err;
    return Json::parse(buf.str(), &err);
}

double num(const Json& j, const char* key) {
    const Json* v = j.find(key);
    return (v != nullptr && v->is_number()) ? v->as_number() : -1.0;
}

std::string str(const Json& j, const char* key) {
    const Json* v = j.find(key);
    return (v != nullptr && v->is_string()) ? v->as_string() : "";
}

struct FileGuard {
    std::string path;
    ~FileGuard() { std::remove(path.c_str()); }
};

// ------------------------------------------------------------ snapshots

TEST(ProgressReporter, SnapshotCountsAllSlotContributions) {
    ProgressConfig config;
    config.label = "unit";
    config.devices_total = 100;
    config.grid_points = 10;
    ProgressReporter reporter(config);

    auto& slot = reporter.slot_for_this_thread();
    slot.devices.fetch_add(7, std::memory_order_relaxed);
    slot.lane_years.fetch_add(70, std::memory_order_relaxed);
    slot.batches.fetch_add(1, std::memory_order_relaxed);
    reporter.add_resumed(3);

    const Json snap = reporter.snapshot("running");
    EXPECT_EQ(str(snap, "schema"), "fastmon-heartbeat-v1");
    EXPECT_EQ(str(snap, "label"), "unit");
    EXPECT_EQ(num(snap, "devices_done"), 10.0);   // 7 rolled + 3 resumed
    EXPECT_EQ(num(snap, "devices_rolled"), 7.0);
    EXPECT_EQ(num(snap, "devices_resumed"), 3.0);
    EXPECT_EQ(num(snap, "devices_total"), 100.0);
    EXPECT_EQ(num(snap, "lane_years_done"), 70.0);
    EXPECT_EQ(num(snap, "lane_years_budget"), 1000.0);
    ASSERT_NE(snap.find("workers"), nullptr);
    EXPECT_EQ(snap.find("workers")->as_array().size(), 1u);
    EXPECT_EQ(reporter.devices_done(), 10u);
}

TEST(ProgressReporter, SequencesAndCountersAreMonotone) {
    ProgressConfig config;
    config.devices_total = 1000;
    ProgressReporter reporter(config);
    auto& slot = reporter.slot_for_this_thread();

    double last_seq = -1.0;
    double last_done = -1.0;
    for (int i = 0; i < 50; ++i) {
        slot.devices.fetch_add(3, std::memory_order_relaxed);
        const Json snap = reporter.snapshot("running");
        EXPECT_GT(num(snap, "sequence"), last_seq);
        EXPECT_GE(num(snap, "devices_done"), last_done);
        last_seq = num(snap, "sequence");
        last_done = num(snap, "devices_done");
    }
    EXPECT_EQ(last_done, 150.0);
}

TEST(ProgressReporter, EachThreadGetsItsOwnSlot) {
    ProgressConfig config;
    config.devices_total = 400;
    ProgressReporter reporter(config);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&reporter] {
            auto& slot = reporter.slot_for_this_thread();
            for (int i = 0; i < 100; ++i) {
                slot.devices.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (auto& t : threads) t.join();
    const Json snap = reporter.snapshot("running");
    EXPECT_EQ(num(snap, "devices_done"), 400.0);
    EXPECT_EQ(snap.find("workers")->as_array().size(), 4u);
}

// -------------------------------------------------------- sidecar file

TEST(ProgressReporter, SidecarIsNeverTorn) {
    // A sampler on a 1 ms cadence races a hot writer loop; every read
    // of the sidecar must parse as a complete heartbeat because the
    // file is replaced by rename, never written in place.
    const FileGuard guard{"test_progress_torn.heartbeat.json"};
    ProgressConfig config;
    config.path = guard.path;
    config.interval_seconds = 0.001;
    config.devices_total = 1u << 20;
    ProgressReporter reporter(config);
    auto& slot = reporter.slot_for_this_thread();
    reporter.start();

    std::atomic<bool> done{false};
    std::thread writer([&] {
        while (!done.load(std::memory_order_relaxed)) {
            slot.devices.fetch_add(1, std::memory_order_relaxed);
            slot.lane_years.fetch_add(61, std::memory_order_relaxed);
        }
    });

    int parsed = 0;
    double last_done = -1.0;
    for (int i = 0; i < 200; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        const std::optional<Json> hb = read_json_file(guard.path);
        if (!hb) continue;  // first snapshot may not exist yet
        ASSERT_TRUE(hb->is_object()) << "torn sidecar read";
        EXPECT_EQ(str(*hb, "schema"), "fastmon-heartbeat-v1");
        // Snapshots observed in file order never go backwards.
        EXPECT_GE(num(*hb, "devices_done"), last_done);
        last_done = num(*hb, "devices_done");
        ++parsed;
    }
    done.store(true, std::memory_order_relaxed);
    writer.join();
    reporter.stop("finished");
    EXPECT_GT(parsed, 0);

    const std::optional<Json> final_hb = read_json_file(guard.path);
    ASSERT_TRUE(final_hb.has_value());
    EXPECT_EQ(str(*final_hb, "state"), "finished");
}

TEST(ProgressReporter, StopIsIdempotentAndFirstStateWins) {
    const FileGuard guard{"test_progress_stop.heartbeat.json"};
    ProgressConfig config;
    config.path = guard.path;
    ProgressReporter reporter(config);
    reporter.start();
    reporter.stop("cancelled");
    reporter.stop("finished");  // ignored: the first stop wins
    const std::optional<Json> hb = read_json_file(guard.path);
    ASSERT_TRUE(hb.has_value());
    EXPECT_EQ(str(*hb, "state"), "cancelled");
}

TEST(ProgressReporter, DestructorLeavesAnHonestFinalSnapshot) {
    const FileGuard guard{"test_progress_dtor.heartbeat.json"};
    {
        ProgressConfig config;
        config.path = guard.path;
        ProgressReporter reporter(config);
        reporter.start();
        reporter.slot_for_this_thread().devices.fetch_add(
            5, std::memory_order_relaxed);
    }
    const std::optional<Json> hb = read_json_file(guard.path);
    ASSERT_TRUE(hb.has_value());
    EXPECT_EQ(str(*hb, "state"), "finished");
    EXPECT_EQ(num(*hb, "devices_done"), 5.0);
}

// ------------------------------------------------- campaign integration

TEST(ProgressReporter, CampaignHeartbeatAgreesWithTheReport) {
    const FileGuard guard{"test_progress_campaign.heartbeat.json"};
    const Netlist netlist = make_mini_alu();

    // The scalar reference engine (width 1) and the batched engine
    // (0 = kBatchWidth) instrument different code paths; telemetry must
    // be pure observation on both.
    for (const std::size_t width : {std::size_t{1}, std::size_t{0}}) {
        SCOPED_TRACE("batch_width " + std::to_string(width));
        CampaignConfig config;
        config.population = 60;
        config.num_threads = 2;
        config.batch_width = width;

        // Baseline without telemetry, then the identical campaign with
        // the sidecar on a deliberately tiny interval.
        const CampaignResult baseline = run_campaign(netlist, config);
        config.heartbeat_path = guard.path;
        config.heartbeat_seconds = 0.001;
        const CampaignResult observed = run_campaign(netlist, config);
        EXPECT_EQ(observed.batch_width, width == 0 ? kBatchWidth : width);

        // Telemetry is pure observation: deterministic blocks identical
        // (the heartbeat knobs never enter the campaign block).
        const Json a = baseline.to_json(config);
        const Json b = observed.to_json(config);
        for (const char* block : {"campaign", "aggregate"}) {
            ASSERT_NE(a.find(block), nullptr);
            ASSERT_NE(b.find(block), nullptr);
            EXPECT_TRUE(*a.find(block) == *b.find(block)) << block;
        }

        // Final sidecar agrees with the exported report.
        const std::optional<Json> hb = read_json_file(guard.path);
        ASSERT_TRUE(hb.has_value());
        EXPECT_EQ(str(*hb, "state"), "finished");
        EXPECT_EQ(num(*hb, "devices_done"),
                  static_cast<double>(observed.devices_completed));
        EXPECT_EQ(num(*hb, "devices_total"),
                  static_cast<double>(config.population));

        // The sketch telemetry rides in the run block with count
        // coverage of the whole population.
        const Json* run = b.find("run");
        ASSERT_NE(run, nullptr);
        const Json* sketches = run->find("telemetry");
        ASSERT_NE(sketches, nullptr);
        const Json* latency = sketches->find("roll_latency_us");
        ASSERT_NE(latency, nullptr);
        const Json* lat_summary = latency->find("summary");
        ASSERT_NE(lat_summary, nullptr);
        EXPECT_EQ(lat_summary->find("count")->as_number(),
                  static_cast<double>(config.population));
    }
}

TEST(ProgressReporter, CancelledCampaignReportsAnHonestState) {
    const FileGuard guard{"test_progress_cancel.heartbeat.json"};
    const Netlist netlist = make_mini_alu();

    CampaignConfig config;
    config.population = 50;
    config.num_threads = 1;
    config.heartbeat_path = guard.path;
    config.heartbeat_seconds = 0.001;

    CancelToken::global().cancel(CancelCause::Test);
    const CampaignResult result = run_campaign(netlist, config);
    CancelToken::global().reset();

    EXPECT_TRUE(result.status.cancelled);
    const std::optional<Json> hb = read_json_file(guard.path);
    ASSERT_TRUE(hb.has_value());
    EXPECT_EQ(str(*hb, "state"), "cancelled");
    EXPECT_EQ(num(*hb, "devices_done"),
              static_cast<double>(result.devices_completed));
}

}  // namespace
}  // namespace fastmon
