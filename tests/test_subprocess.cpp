// POSIX process plumbing under the fleet supervisor: spawn,
// shell-style exit encoding (code, 128+signal, 127 exec failure),
// non-blocking polls, kill-and-reap, per-child environment and output
// redirection.
#include "util/subprocess.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <thread>

namespace fastmon {
namespace {

std::vector<std::string> sh(const std::string& script) {
    return {"/bin/sh", "-c", script};
}

class SubprocessTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("fastmon_proc_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }
    [[nodiscard]] std::string path(const std::string& name) const {
        return (dir_ / name).string();
    }
    static std::string slurp(const std::string& p) {
        std::ifstream is(p, std::ios::binary);
        return {std::istreambuf_iterator<char>(is),
                std::istreambuf_iterator<char>()};
    }

    std::filesystem::path dir_;
};

TEST_F(SubprocessTest, ExitCodeIsReported) {
    auto child = Subprocess::spawn(sh("exit 7"));
    ASSERT_TRUE(child.has_value());
    EXPECT_EQ(child->exit_code(), 7);
    // Idempotent after the child is reaped.
    EXPECT_EQ(child->poll(), std::optional<int>(7));
}

TEST_F(SubprocessTest, SignalDeathEncodesAs128PlusSignal) {
    auto child = Subprocess::spawn(sh("kill -9 $$"));
    ASSERT_TRUE(child.has_value());
    EXPECT_EQ(child->exit_code(), 128 + 9);
}

TEST_F(SubprocessTest, ExecFailureSurfacesAs127) {
    auto child = Subprocess::spawn(
        {path("no_such_binary"), "--definitely-missing"});
    ASSERT_TRUE(child.has_value());  // the fork itself succeeded
    EXPECT_EQ(child->exit_code(), 127);
}

TEST_F(SubprocessTest, PollIsNonBlockingAndKillReaps) {
    auto child = Subprocess::spawn(sh("sleep 30"));
    ASSERT_TRUE(child.has_value());
    EXPECT_FALSE(child->poll().has_value());
    EXPECT_TRUE(child->running());
    EXPECT_TRUE(child->kill());
    EXPECT_EQ(child->exit_code(), 128 + 9);
    EXPECT_FALSE(child->running());
    EXPECT_FALSE(child->kill());  // already reaped
}

TEST_F(SubprocessTest, EnvOverridesAndOutputRedirection) {
    SpawnOptions options;
    options.env = {{"FASTMON_TEST_VALUE", "forty-two"}};
    options.output_path = path("out.log");
    auto child = Subprocess::spawn(
        sh("echo value=$FASTMON_TEST_VALUE; echo oops >&2"), options);
    ASSERT_TRUE(child.has_value());
    EXPECT_EQ(child->exit_code(), 0);
    const std::string log = slurp(path("out.log"));
    // Both streams land in the same per-attempt log.
    EXPECT_NE(log.find("value=forty-two"), std::string::npos) << log;
    EXPECT_NE(log.find("oops"), std::string::npos) << log;
}

TEST_F(SubprocessTest, DestructorReapsARunningChild) {
    pid_t pid = -1;
    {
        auto child = Subprocess::spawn(sh("sleep 30"));
        ASSERT_TRUE(child.has_value());
        pid = child->pid();
        EXPECT_TRUE(child->running());
    }
    // The destructor SIGKILLed and reaped: the pid is gone (or at
    // least no longer our child).  Give the kernel a beat.
    for (int i = 0; i < 100 && ::kill(pid, 0) == 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_NE(::kill(pid, 0), 0);
}

}  // namespace
}  // namespace fastmon
