// In-memory span recorder for the traced run.  Spans are opened and
// closed on the orchestrating thread around calls into the library's
// public functions; the library itself is not instrumented further.
// Spans are written out once, when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
public:
    struct Record {
        std::string name;
        double start = 0.0;  ///< seconds, now_seconds() clock
        double end = 0.0;
        std::int64_t parent = -1;  ///< index into records(), -1 = root
    };

    /// RAII span: opened by the constructor, closed by the destructor
    /// or an explicit end().  Children opened while it is open get it
    /// as parent.
    class Span {
    public:
        Span(SpanRecorder& recorder, std::string name);
        ~Span() { end(); }
        Span(const Span&) = delete;
        Span& operator=(const Span&) = delete;

        /// Closes the span; returns its duration in seconds.
        double end();

    private:
        SpanRecorder* recorder_;
        std::size_t index_;
        bool open_ = true;
    };

    [[nodiscard]] const std::vector<Record>& records() const {
        return records_;
    }

    /// Duration minus the time covered by direct children, summed over
    /// every span called `name`.
    [[nodiscard]] double self_seconds(const std::string& name) const;
    /// Duration summed over every span called `name`.
    [[nodiscard]] double total_seconds(const std::string& name) const;

    /// Writes {"spans": [...], "self_seconds": {...}} to `path`.
    /// Returns false when the file cannot be written.
    bool write_json(const std::string& path) const;

private:
    std::vector<Record> records_;
    std::vector<std::size_t> open_stack_;
};

}  // namespace perfbench
