#include "spans.hpp"

#include <fstream>
#include <map>

#include "common.hpp"

namespace perfbench {

SpanRecorder::Span::Span(SpanRecorder& recorder, std::string name)
    : recorder_(&recorder), index_(recorder.records_.size()) {
    Record r;
    r.name = std::move(name);
    r.parent = recorder.open_stack_.empty()
                   ? -1
                   : static_cast<std::int64_t>(recorder.open_stack_.back());
    r.start = now_seconds();
    recorder.records_.push_back(std::move(r));
    recorder.open_stack_.push_back(index_);
}

double SpanRecorder::Span::end() {
    Record& r = recorder_->records_[index_];
    if (open_) {
        r.end = now_seconds();
        open_ = false;
        // Spans close in LIFO order on the orchestrating thread.
        recorder_->open_stack_.pop_back();
    }
    return r.end - r.start;
}

double SpanRecorder::self_seconds(const std::string& name) const {
    std::vector<double> child_time(records_.size(), 0.0);
    for (const Record& r : records_) {
        if (r.parent >= 0) {
            child_time[static_cast<std::size_t>(r.parent)] += r.end - r.start;
        }
    }
    double total = 0.0;
    for (std::size_t i = 0; i < records_.size(); ++i) {
        if (records_[i].name == name) {
            total += records_[i].end - records_[i].start - child_time[i];
        }
    }
    return total;
}

double SpanRecorder::total_seconds(const std::string& name) const {
    double total = 0.0;
    for (const Record& r : records_) {
        if (r.name == name) total += r.end - r.start;
    }
    return total;
}

bool SpanRecorder::write_json(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    os << "{\"spans\": [";
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record& r = records_[i];
        os << (i == 0 ? "" : ",") << "\n  {\"name\": \"" << r.name
           << "\", \"start_s\": " << json_number(r.start)
           << ", \"end_s\": " << json_number(r.end)
           << ", \"parent\": " << r.parent << "}";
        self.emplace(r.name, 0.0);
    }
    os << "\n], \"self_seconds\": {";
    bool first = true;
    for (auto& [name, value] : self) {
        os << (first ? "" : ", ") << "\"" << name
           << "\": " << json_number(self_seconds(name));
        first = false;
    }
    os << "}}\n";
    return static_cast<bool>(os);
}

}  // namespace perfbench
