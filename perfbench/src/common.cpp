#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <iostream>

namespace perfbench {

double now_seconds() {
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch)
        .count();
}

double cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t seed) {
    std::uint64_t z = base + 0x9E3779B97F4A7C15ULL * (seed + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
    for (Metric& m : items_) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    items_.push_back(Metric{name, value, unit});
}

const Metric* Metrics::find(const std::string& name) const {
    for (const Metric& m : items_) {
        if (m.name == name) return &m;
    }
    return nullptr;
}

void Checks::begin(const std::string& operation) {
    if (open_) end();
    operation_ = operation;
    open_ = true;
    operation_failed_ = false;
}

void Checks::expect(bool ok, const std::string& what) {
    if (ok) return;
    operation_failed_ = true;
    std::cerr << "perfbench: check failed in " << operation_ << ": " << what
              << "\n";
}

void Checks::end() {
    if (!open_) return;
    ++attempted_;
    if (operation_failed_) ++failed_;
    open_ = false;
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

void print_result(std::ostream& os, const Checks& checks,
                  const Metrics& metrics) {
    os << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
       << ", \"attempted\": " << checks.attempted()
       << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : metrics.items()) {
        os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
           << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    os << "}}" << std::endl;
}

}  // namespace perfbench
