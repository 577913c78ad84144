// Shared pieces of the perfbench driver: clocks, process counters, the
// metric list printed as the run's result, and the check ledger that
// counts failed operations against attempted ones.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock since an arbitrary process epoch.
double now_seconds();

/// User + system CPU seconds of this process so far (all threads).
double cpu_seconds();

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

double median(std::vector<double> values);

/// Mixes the run seed into a base seed (splitmix64 finalizer).
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t seed);

/// One printed metric: name, value, unit.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Ordered metric list; set() overwrites an existing name.
class Metrics {
public:
    void set(const std::string& name, double value, const std::string& unit);
    [[nodiscard]] const std::vector<Metric>& items() const { return items_; }
    /// The metric called `name`, or nullptr.
    [[nodiscard]] const Metric* find(const std::string& name) const;

private:
    std::vector<Metric> items_;
};

/// Counts operations attempted and failed.  A failed check prints a
/// one-line reason to stderr; an operation fails when any of its
/// checks fails.
class Checks {
public:
    /// Starts a new operation (a timed call or a stand-alone check).
    void begin(const std::string& operation);
    /// Records one check of the current operation.
    void expect(bool ok, const std::string& what);
    /// Closes the current operation.
    void end();

    [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
    [[nodiscard]] std::uint64_t failed() const { return failed_; }

private:
    std::string operation_;
    bool open_ = false;
    bool operation_failed_ = false;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/// Shortest round-trip decimal form of `v` (JSON number syntax).
std::string json_number(double v);

/// Writes the result line: {"correct", "attempted", "failed", "metrics"}.
void print_result(std::ostream& os, const Checks& checks,
                  const Metrics& metrics);

}  // namespace perfbench
