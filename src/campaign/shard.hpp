// The campaign-state artifact: one file format for a campaign's
// completed devices, whether the run finished, was killed mid-run, or
// is one shard of a fleet.
//
// run_campaign rewrites a ShardResult at its checkpoint path every N
// devices and at exit, holding its device range, per-device outcomes,
// partial aggregate (confusion counts + PR curve) and roll-latency
// sketch, stamped with the campaign fingerprint AND a content checksum
// over the canonical payload.  `--resume` reads the same file back:
// completed devices are trusted verbatim and the rest recomputed from
// their per-device streams, so a resumed run converges to the
// uninterrupted one.  The merge side (fastmon_merge, fastmon_fleet)
// validates every artifact — a truncated, bit-flipped, or
// foreign-campaign file is *detected and reported*, never silently
// folded in — and re-aggregates the union of outcomes in device-index
// order.  Because every device is a pure function of (campaign seed,
// device index) and aggregation is a fold in index order, the merged
// report's campaign/aggregate blocks are bit-identical to a
// single-process run of the same campaign, at any shard count; a killed
// run's artifact merges as an honest `incomplete` shard.
//
// merge() itself is associative: it unions disjoint outcome sets,
// merges the integer-bucketed latency sketches, and re-derives the
// partial aggregate from the union, so ((a+b)+c) == (a+(b+c))
// bit-for-bit.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.hpp"
#include "util/sketch.hpp"

namespace fastmon {

inline constexpr std::string_view kShardSchema = "fastmon-shard-v1";

/// FNV-1a over a canonical string: the campaign fingerprint (over
/// campaign_canonical) and the artifact content checksum.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view canonical);

/// 16-hex-digit rendering of a fingerprint/checksum (JSON numbers are
/// doubles; 64-bit values ride as strings to survive the round trip).
[[nodiscard]] std::string fingerprint_hex(std::uint64_t fp);
/// Inverse of fingerprint_hex; std::nullopt unless exactly 16
/// lower-case hex digits.
[[nodiscard]] std::optional<std::uint64_t> parse_fingerprint_hex(
    std::string_view hex);

/// First-alert (widest guard band) and failure-year distributions of a
/// set of outcomes.  "Never" (-1) stays out, so each count is the number
/// of devices that alerted / failed.  Pure functions of the outcomes:
/// rebuilt from them wherever a report is written, so resumed and
/// merged runs report exactly the uninterrupted distributions.
struct OutcomeSketches {
    QuantileSketch first_alert_years;
    QuantileSketch failure_years;
};
[[nodiscard]] OutcomeSketches sketch_outcomes(
    const std::vector<DeviceOutcome>& outcomes);

/// The report's "run.telemetry" block: {summary, sketch} per metric.
[[nodiscard]] Json telemetry_json(const QuantileSketch& roll_latency_us,
                                  const OutcomeSketches& distributions);

struct ShardResult {
    std::uint64_t fingerprint = 0;  ///< campaign fingerprint (config identity)
    std::uint32_t shard_index = 0;
    std::uint32_t shard_count = 1;
    std::uint64_t population = 0;   ///< full campaign population
    std::uint64_t range_begin = 0;  ///< device range this shard owns
    std::uint64_t range_end = 0;
    double early_fail_years = 3.0;  ///< aggregate ground-truth cutoff
    /// Deterministic "campaign" report block, verbatim — identical for
    /// every shard of one campaign; the merged report reuses it.
    Json campaign;
    /// Partial "aggregate" block over `outcomes` (confusion counts,
    /// PR curve, ...).  Redundant with `outcomes` by construction; the
    /// loader recomputes and cross-checks it, so writer/reader drift
    /// is caught even when the checksum matches.
    Json aggregate;
    /// Completed outcomes, ascending device index, all inside
    /// [range_begin, range_end).  Fewer than the range size means the
    /// run has not finished: it is running, or was killed or cancelled
    /// mid-run (an honest partial).
    std::vector<DeviceOutcome> outcomes;
    /// Per-device roll wall-clock latency of the devices the writing
    /// process rolled itself: devices it resumed are not in it, so a
    /// resumed run's sketch counts only the devices rolled after the
    /// restart.  Integer bucket counts make its merge associative and
    /// commutative.
    QuantileSketch roll_latency_us;

    /// True when the shard covers its whole device range.
    [[nodiscard]] bool complete() const {
        return outcomes.size() == range_end - range_begin;
    }

    /// Full artifact document: {schema, format, checksum, payload}.
    /// The checksum is the FNV-1a of the compact payload serialization.
    [[nodiscard]] Json to_json() const;
    /// Validates schema, checksum, structure, outcome ordering/range,
    /// and the aggregate cross-check.  std::nullopt with the reason in
    /// `error` on any damage.
    static std::optional<ShardResult> from_json(const Json& j,
                                                std::string* error = nullptr);

    /// Associative in-memory fold: unions `other`'s outcomes into this
    /// shard (device sets must be disjoint), merges the latency
    /// sketches, and re-derives the partial aggregate.  False (with
    /// `error`) on a fingerprint/population mismatch or overlapping
    /// devices; *this is unchanged on failure.
    bool merge(const ShardResult& other, std::string* error = nullptr);
};

/// Atomically writes the artifact.  Honors the `shard.corrupt_artifact`
/// fault-injection point (flips one digit in the serialized payload —
/// still valid JSON, so the checksum check is what must catch it).
bool save_shard_result(const std::string& path, const ShardResult& shard);

/// Loads and validates a shard artifact; std::nullopt when missing,
/// unparsable, or damaged (`error` says which, except a missing file).
std::optional<ShardResult> load_shard_result(const std::string& path,
                                             std::string* error = nullptr);

/// Per-shard verdict of a merge pass.
enum class ShardState : std::uint8_t {
    Ok = 0,               ///< valid and covers its whole range
    Incomplete,           ///< valid but killed mid-range (folded in)
    Missing,              ///< artifact file absent
    Corrupt,              ///< unparsable, checksum/structure damage, dup
    FingerprintMismatch,  ///< belongs to a different campaign
};
[[nodiscard]] const char* shard_state_name(ShardState state);

struct ShardStatus {
    std::size_t slot = 0;  ///< position in the merge input list
    std::string path;
    ShardState state = ShardState::Missing;
    std::string detail;
    std::size_t devices = 0;      ///< outcomes folded in
    std::uint32_t shard_index = 0;
};

/// Outcome of merging a list of shard artifact paths.
struct ShardMerge {
    /// Full merged report: {campaign, aggregate, run:{merge, telemetry,
    /// status}} — campaign/aggregate bit-identical to the unsharded
    /// run when every shard is Ok.
    Json report;
    FlowStatus status;
    std::vector<ShardStatus> shards;
    std::size_t devices_merged = 0;
    std::size_t devices_expected = 0;  ///< full campaign population
    /// True when every listed shard is Ok and coverage is complete.
    bool complete = false;
    /// True when at least one valid shard was folded in (a report
    /// exists; it may be degraded).
    bool mergeable = false;
};

/// Validates and merges the artifacts at `paths` (one per shard; order
/// is the reporting order, not significant for the result).  Never
/// throws on bad inputs — damage is reported per shard and the
/// survivors are aggregated with honest degraded status.
ShardMerge merge_shard_results(const std::vector<std::string>& paths);

}  // namespace fastmon
