#include "campaign/shard.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>
#include <sys/stat.h>

#include "util/atomic_file.hpp"
#include "util/fault_inject.hpp"

namespace fastmon {

namespace {

Json sketch_block(const QuantileSketch& sketch) {
    Json j = Json::object();
    j.set("summary", sketch.summary());
    j.set("sketch", sketch.to_json());
    return j;
}

/// Flips one digit somewhere in the payload half of the serialized
/// artifact: the result still parses as JSON, so only the content
/// checksum can catch it — exactly the damage class the merge side
/// must detect.  (shard.corrupt_artifact fault-injection helper.)
/// Only the leading digit of a number qualifies: a trailing digit of a
/// 17-significant-digit double may parse back to the same value, which
/// would leave the artifact undamaged.
void corrupt_in_place(std::string& text) {
    const std::string_view number_chars = "0123456789.+-eE";
    const std::size_t start = std::max<std::size_t>(text.size() / 2, 1);
    for (std::size_t i = start; i < text.size(); ++i) {
        if (number_chars.find(text[i - 1]) != std::string_view::npos) {
            continue;
        }
        if (text[i] >= '0' && text[i] <= '8') {
            ++text[i];
            return;
        }
        if (text[i] == '9') {
            text[i] = '8';
            return;
        }
    }
    // No digit in the back half (cannot happen for a real artifact —
    // the outcomes array is full of numbers); truncate instead.
    if (!text.empty()) text.resize(text.size() / 2);
}

}  // namespace

std::uint64_t fnv1a64(std::string_view canonical) {
    std::uint64_t hash = 0xCBF29CE484222325ULL;
    for (const char c : canonical) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001B3ULL;
    }
    return hash;
}

std::string fingerprint_hex(std::uint64_t fp) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(fp));
    return buf;
}

std::optional<std::uint64_t> parse_fingerprint_hex(std::string_view hex) {
    if (hex.size() != 16) return std::nullopt;
    std::uint64_t value = 0;
    for (char c : hex) {
        value <<= 4;
        if (c >= '0' && c <= '9') {
            value |= static_cast<std::uint64_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
            value |= static_cast<std::uint64_t>(c - 'a' + 10);
        } else {
            return std::nullopt;
        }
    }
    return value;
}

OutcomeSketches sketch_outcomes(const std::vector<DeviceOutcome>& outcomes) {
    OutcomeSketches sketches;
    for (const DeviceOutcome& out : outcomes) {
        if (!out.first_alert_years.empty() &&
            out.first_alert_years.back() >= 0.0) {
            sketches.first_alert_years.record(out.first_alert_years.back());
        }
        if (out.failure_years >= 0.0) {
            sketches.failure_years.record(out.failure_years);
        }
    }
    return sketches;
}

Json telemetry_json(const QuantileSketch& roll_latency_us,
                    const OutcomeSketches& distributions) {
    Json telemetry = Json::object();
    telemetry.set("roll_latency_us", sketch_block(roll_latency_us));
    telemetry.set("first_alert_years",
                  sketch_block(distributions.first_alert_years));
    telemetry.set("failure_years", sketch_block(distributions.failure_years));
    return telemetry;
}

Json ShardResult::to_json() const {
    Json payload = Json::object();
    payload.set("fingerprint", fingerprint_hex(fingerprint));
    payload.set("shard_index", shard_index);
    payload.set("shard_count", shard_count);
    payload.set("population", population);
    payload.set("range_begin", range_begin);
    payload.set("range_end", range_end);
    payload.set("early_fail_years", early_fail_years);
    payload.set("campaign", campaign);
    payload.set("aggregate", aggregate);
    Json telemetry = Json::object();
    telemetry.set("roll_latency_us", sketch_block(roll_latency_us));
    payload.set("telemetry", std::move(telemetry));
    Json out = Json::array();
    for (const DeviceOutcome& o : outcomes) out.push_back(o.to_json());
    payload.set("outcomes", std::move(out));

    Json j = Json::object();
    j.set("schema", std::string(kShardSchema));
    j.set("format", 1);
    // Content checksum over the compact payload serialization.  The
    // dump is a deterministic function of the parsed values, so the
    // loader can recompute it from a re-serialization and catch any
    // corruption that survived the JSON parse.
    j.set("checksum",
          fingerprint_hex(fnv1a64(payload.dump(0))));
    j.set("payload", std::move(payload));
    return j;
}

std::optional<ShardResult> ShardResult::from_json(const Json& j,
                                                  std::string* error) {
    const auto reject = [&](std::string why) {
        if (error) *error = std::move(why);
        return std::nullopt;
    };
    if (!j.is_object()) return reject("shard artifact is not a JSON object");
    const Json* schema = j.find("schema");
    if (!schema || !schema->is_string() ||
        schema->as_string() != kShardSchema) {
        return reject("shard artifact has the wrong schema (expected " +
                      std::string(kShardSchema) + ")");
    }
    const Json* format = j.find("format");
    if (!format || !format->is_number() || format->as_number() != 1.0) {
        return reject("unsupported shard artifact format (expected 1)");
    }
    const Json* checksum = j.find("checksum");
    const Json* payload = j.find("payload");
    if (!checksum || !checksum->is_string()) {
        return reject("shard artifact has no content checksum");
    }
    if (!payload || !payload->is_object()) {
        return reject("shard artifact has no payload object");
    }
    const auto stored = parse_fingerprint_hex(checksum->as_string());
    if (!stored ||
        *stored != fnv1a64(payload->dump(0))) {
        return reject(
            "shard artifact checksum mismatch (torn or corrupt)");
    }

    const Json* fingerprint = payload->find("fingerprint");
    const Json* shard_index = payload->find("shard_index");
    const Json* shard_count = payload->find("shard_count");
    const Json* population = payload->find("population");
    const Json* range_begin = payload->find("range_begin");
    const Json* range_end = payload->find("range_end");
    const Json* early_fail = payload->find("early_fail_years");
    const Json* campaign = payload->find("campaign");
    const Json* aggregate = payload->find("aggregate");
    const Json* telemetry = payload->find("telemetry");
    const Json* outcomes = payload->find("outcomes");
    if (!fingerprint || !fingerprint->is_string() || !shard_index ||
        !shard_index->is_number() || !shard_count ||
        !shard_count->is_number() || !population ||
        !population->is_number() || !range_begin ||
        !range_begin->is_number() || !range_end ||
        !range_end->is_number() || !early_fail ||
        !early_fail->is_number() || !campaign || !campaign->is_object() ||
        !aggregate || !aggregate->is_object() || !telemetry ||
        !telemetry->is_object() || !outcomes || !outcomes->is_array()) {
        return reject("shard artifact payload has an invalid structure");
    }
    ShardResult shard;
    const auto fp = parse_fingerprint_hex(fingerprint->as_string());
    if (!fp) return reject("shard fingerprint is malformed");
    shard.fingerprint = *fp;
    const auto index_value = json_uint<std::uint32_t>(*shard_index);
    const auto count_value = json_uint<std::uint32_t>(*shard_count);
    const auto population_value = json_uint<std::uint64_t>(*population);
    const auto begin_value = json_uint<std::uint64_t>(*range_begin);
    const auto end_value = json_uint<std::uint64_t>(*range_end);
    if (!index_value || !count_value || !population_value || !begin_value ||
        !end_value) {
        return reject("shard coordinates are not non-negative integers");
    }
    shard.shard_index = *index_value;
    shard.shard_count = *count_value;
    shard.population = *population_value;
    shard.range_begin = *begin_value;
    shard.range_end = *end_value;
    shard.early_fail_years = early_fail->as_number();
    if (shard.shard_count == 0 || shard.shard_index >= shard.shard_count) {
        return reject("shard coordinates are out of range");
    }
    if (shard.range_begin > shard.range_end ||
        shard.range_end > shard.population) {
        return reject("shard device range is out of range");
    }
    const auto expected_range = shard_device_range(
        shard.population, shard.shard_index, shard.shard_count);
    if (shard.range_begin != expected_range.first ||
        shard.range_end != expected_range.second) {
        return reject("shard device range does not match its coordinates");
    }
    shard.campaign = *campaign;
    shard.aggregate = *aggregate;

    const Json* latency = telemetry->find("roll_latency_us");
    const Json* raw = latency ? latency->find("sketch") : nullptr;
    auto sketch = raw ? QuantileSketch::from_json(*raw) : std::nullopt;
    if (!sketch) return reject("shard roll-latency sketch is malformed");
    shard.roll_latency_us = std::move(*sketch);

    std::uint32_t prev_index = 0;
    for (const Json& o : outcomes->as_array()) {
        auto outcome = DeviceOutcome::from_json(o);
        if (!outcome) return reject("shard has a malformed outcome");
        if (outcome->index < shard.range_begin ||
            outcome->index >= shard.range_end) {
            return reject("shard outcome index outside its device range");
        }
        if (!shard.outcomes.empty() && outcome->index <= prev_index) {
            return reject("shard outcomes are not strictly ascending");
        }
        prev_index = outcome->index;
        shard.outcomes.push_back(std::move(*outcome));
    }

    // Cross-check: the stored partial aggregate must be exactly what
    // the outcomes re-aggregate to.  The checksum already rules out
    // on-disk damage; this rules out writer/reader logic drift.
    AggregateConfig agg_config;
    agg_config.early_fail_years = shard.early_fail_years;
    if (aggregate_outcomes(shard.outcomes, agg_config).to_json() !=
        shard.aggregate) {
        return reject("shard aggregate does not match its outcomes");
    }
    return shard;
}

bool ShardResult::merge(const ShardResult& other, std::string* error) {
    const auto fail = [&](std::string why) {
        if (error) *error = std::move(why);
        return false;
    };
    if (fingerprint != other.fingerprint) {
        return fail("campaign fingerprint mismatch");
    }
    if (population != other.population) {
        return fail("campaign population mismatch");
    }
    if (early_fail_years != other.early_fail_years) {
        return fail("early-fail cutoff mismatch");
    }
    // Union by ascending device index; both inputs are sorted, so a
    // linear merge suffices — and surfaces any overlap.
    std::vector<DeviceOutcome> merged;
    merged.reserve(outcomes.size() + other.outcomes.size());
    std::size_t a = 0;
    std::size_t b = 0;
    while (a < outcomes.size() && b < other.outcomes.size()) {
        if (outcomes[a].index == other.outcomes[b].index) {
            return fail("shards overlap at device " +
                        std::to_string(outcomes[a].index));
        }
        if (outcomes[a].index < other.outcomes[b].index) {
            merged.push_back(outcomes[a++]);
        } else {
            merged.push_back(other.outcomes[b++]);
        }
    }
    merged.insert(merged.end(), outcomes.begin() + a, outcomes.end());
    merged.insert(merged.end(), other.outcomes.begin() + b,
                  other.outcomes.end());
    outcomes = std::move(merged);
    // The merged "shard" spans the envelope of both ranges (a fold of
    // non-adjacent shards is temporarily sparse inside it; once every
    // shard has been folded the envelope is [0, population) and dense).
    range_begin = std::min(range_begin, other.range_begin);
    range_end = std::max(range_end, other.range_end);
    shard_index = std::min(shard_index, other.shard_index);
    roll_latency_us.merge(other.roll_latency_us);
    AggregateConfig agg_config;
    agg_config.early_fail_years = early_fail_years;
    aggregate = aggregate_outcomes(outcomes, agg_config).to_json();
    return true;
}

bool save_shard_result(const std::string& path, const ShardResult& shard) {
    std::string text = shard.to_json().dump(2);
    if (FaultInjector::global().trip("shard.corrupt_artifact")) {
        corrupt_in_place(text);
    }
    return atomic_write_file(path, text);
}

std::optional<ShardResult> load_shard_result(const std::string& path,
                                             std::string* error) {
    std::ifstream is(path, std::ios::binary);
    if (!is) return std::nullopt;  // missing file; no error message
    std::ostringstream buffer;
    buffer << is.rdbuf();
    std::string parse_error;
    const auto j = Json::parse(buffer.str(), &parse_error);
    if (!j) {
        if (error) {
            *error = "shard artifact is not valid JSON: " + parse_error;
        }
        return std::nullopt;
    }
    return ShardResult::from_json(*j, error);
}

const char* shard_state_name(ShardState state) {
    switch (state) {
        case ShardState::Ok: return "ok";
        case ShardState::Incomplete: return "incomplete";
        case ShardState::Missing: return "missing";
        case ShardState::Corrupt: return "corrupt";
        case ShardState::FingerprintMismatch: return "fingerprint-mismatch";
    }
    return "unknown";
}

namespace {

bool file_exists(const std::string& path) {
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

ShardMerge merge_shard_results(const std::vector<std::string>& paths) {
    ShardMerge out;
    std::optional<ShardResult> merged;
    std::vector<bool> seen_index;

    for (std::size_t slot = 0; slot < paths.size(); ++slot) {
        ShardStatus status;
        status.slot = slot;
        status.path = paths[slot];
        std::string why;
        auto shard = load_shard_result(paths[slot], &why);
        if (!shard) {
            if (why.empty() && !file_exists(paths[slot])) {
                status.state = ShardState::Missing;
                status.detail = "artifact file not found";
            } else {
                status.state = ShardState::Corrupt;
                status.detail = why.empty() ? "unreadable artifact" : why;
            }
            out.shards.push_back(std::move(status));
            continue;
        }
        status.shard_index = shard->shard_index;
        status.devices = shard->outcomes.size();
        if (merged && shard->fingerprint != merged->fingerprint) {
            status.state = ShardState::FingerprintMismatch;
            status.detail =
                "campaign fingerprint " +
                fingerprint_hex(shard->fingerprint) +
                " does not match " + fingerprint_hex(merged->fingerprint);
            out.shards.push_back(std::move(status));
            continue;
        }
        if (merged && shard->shard_count != merged->shard_count) {
            status.state = ShardState::FingerprintMismatch;
            status.detail = "shard count " +
                            std::to_string(shard->shard_count) +
                            " does not match " +
                            std::to_string(merged->shard_count);
            out.shards.push_back(std::move(status));
            continue;
        }
        if (seen_index.empty()) {
            seen_index.assign(shard->shard_count, false);
        }
        if (shard->shard_index < seen_index.size() &&
            seen_index[shard->shard_index]) {
            status.state = ShardState::Corrupt;
            status.detail = "duplicate artifact for shard " +
                            std::to_string(shard->shard_index);
            out.shards.push_back(std::move(status));
            continue;
        }
        if (shard->shard_index < seen_index.size()) {
            seen_index[shard->shard_index] = true;
        }
        status.state = shard->complete() ? ShardState::Ok
                                         : ShardState::Incomplete;
        if (!shard->complete()) {
            status.detail =
                "covers " + std::to_string(shard->outcomes.size()) +
                " of " +
                std::to_string(shard->range_end - shard->range_begin) +
                " devices (killed or cancelled mid-run?)";
        }
        if (!merged) {
            merged = std::move(*shard);
        } else if (!merged->merge(*shard, &why)) {
            status.state = ShardState::Corrupt;
            status.detail = "merge rejected: " + why;
            out.shards.push_back(std::move(status));
            continue;
        }
        out.shards.push_back(std::move(status));
    }

    out.mergeable = merged.has_value();
    out.devices_merged = merged ? merged->outcomes.size() : 0;
    out.devices_expected = merged ? merged->population : 0;
    std::size_t shards_ok = 0;
    for (const ShardStatus& s : out.shards) {
        if (s.state == ShardState::Ok) ++shards_ok;
    }
    const bool full_coverage =
        merged && out.devices_merged == out.devices_expected;
    out.complete = full_coverage && shards_ok == out.shards.size() &&
                   (merged->shard_count == out.shards.size());

    // Honest status: merge_validate says how many artifacts survived,
    // merge_aggregate says how much of the population the aggregate
    // actually covers.
    PhaseStatus validate;
    validate.name = "merge_validate";
    if (!merged) {
        validate.outcome = PhaseOutcome::Failed;
        validate.detail = "no valid shard artifacts";
    } else if (shards_ok != out.shards.size() ||
               (merged->shard_count != out.shards.size())) {
        validate.outcome = PhaseOutcome::Degraded;
        validate.detail = std::to_string(shards_ok) + " of " +
                          std::to_string(merged->shard_count) +
                          " shards ok";
    }
    out.status.phases.push_back(validate);

    PhaseStatus aggregate_phase;
    aggregate_phase.name = "merge_aggregate";
    if (!merged) {
        aggregate_phase.outcome = PhaseOutcome::Skipped;
        aggregate_phase.detail = "nothing to aggregate";
    } else if (!full_coverage) {
        aggregate_phase.outcome = PhaseOutcome::Degraded;
        aggregate_phase.detail =
            "aggregate covers " + std::to_string(out.devices_merged) +
            " of " + std::to_string(out.devices_expected) + " devices";
    }
    out.status.phases.push_back(aggregate_phase);

    // Merged report: campaign/aggregate verbatim from the fold (bit-
    // identical to the unsharded run when complete), merge bookkeeping
    // and combined telemetry in the run block.
    Json report = Json::object();
    if (merged) {
        report.set("campaign", merged->campaign);
        report.set("aggregate", merged->aggregate);
    }
    Json run = Json::object();
    Json merge_block = Json::object();
    merge_block.set("shard_count",
                    merged ? merged->shard_count
                           : static_cast<std::uint32_t>(paths.size()));
    Json shards_json = Json::array();
    for (const ShardStatus& s : out.shards) {
        Json row = Json::object();
        row.set("slot", s.slot);
        row.set("path", s.path);
        row.set("state", shard_state_name(s.state));
        if (!s.detail.empty()) row.set("detail", s.detail);
        row.set("devices", s.devices);
        if (s.state == ShardState::Ok ||
            s.state == ShardState::Incomplete) {
            row.set("shard_index", s.shard_index);
        }
        shards_json.push_back(std::move(row));
    }
    merge_block.set("shards", std::move(shards_json));
    merge_block.set("devices_merged", out.devices_merged);
    merge_block.set("devices_expected", out.devices_expected);
    merge_block.set("complete", out.complete);
    run.set("merge", std::move(merge_block));
    if (merged) {
        run.set("telemetry", telemetry_json(merged->roll_latency_us,
                                            sketch_outcomes(merged->outcomes)));
    }
    run.set("status", out.status.to_json());
    report.set("run", std::move(run));
    out.report = std::move(report);
    return out;
}

}  // namespace fastmon
