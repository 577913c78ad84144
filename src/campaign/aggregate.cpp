#include "campaign/aggregate.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

namespace fastmon {

namespace {

DistributionSummary summarize(std::vector<double> values) {
    DistributionSummary s;
    s.count = values.size();
    if (values.empty()) return s;
    RunningStats stats;
    for (double v : values) stats.add(v);
    s.mean = stats.mean();
    s.p10 = percentile(values, 10.0);
    s.p50 = percentile(values, 50.0);
    s.p90 = percentile(values, 90.0);
    return s;
}

}  // namespace

Json DistributionSummary::to_json() const {
    Json j = Json::object();
    j.set("count", count);
    j.set("mean", mean);
    j.set("p10", p10);
    j.set("p50", p50);
    j.set("p90", p90);
    return j;
}

std::optional<DistributionSummary> DistributionSummary::from_json(
    const Json& j) {
    if (!j.is_object()) return std::nullopt;
    const Json* count = j.find("count");
    const Json* mean = j.find("mean");
    const Json* p10 = j.find("p10");
    const Json* p50 = j.find("p50");
    const Json* p90 = j.find("p90");
    if (!count || !count->is_number() || !mean || !mean->is_number() ||
        !p10 || !p10->is_number() || !p50 || !p50->is_number() || !p90 ||
        !p90->is_number()) {
        return std::nullopt;
    }
    const auto count_value = json_uint<std::size_t>(*count);
    if (!count_value) return std::nullopt;
    DistributionSummary s;
    s.count = *count_value;
    s.mean = mean->as_number();
    s.p10 = p10->as_number();
    s.p50 = p50->as_number();
    s.p90 = p90->as_number();
    return s;
}

Json ClassificationQuality::to_json() const {
    Json j = Json::object();
    j.set("positives", positives);
    j.set("negatives", negatives);
    j.set("roc_auc", roc_auc);
    j.set("average_precision", average_precision);
    Json curve = Json::array();
    for (const PrPoint& p : pr_curve) {
        Json point = Json::object();
        point.set("threshold", p.threshold);
        point.set("precision", p.precision);
        point.set("recall", p.recall);
        curve.push_back(std::move(point));
    }
    j.set("pr_curve", std::move(curve));
    Json screen = Json::object();
    screen.set("true_positives", true_positives);
    screen.set("false_positives", false_positives);
    screen.set("false_negatives", false_negatives);
    screen.set("true_negatives", true_negatives);
    screen.set("precision", precision);
    screen.set("recall", recall);
    j.set("screen_alert_operating_point", std::move(screen));
    return j;
}

Json CampaignAggregate::to_json() const {
    Json j = Json::object();
    Json devices = Json::object();
    devices.set("population", population);
    devices.set("marginal", marginal);
    devices.set("failed", failed);
    devices.set("early_failures", early_failures);
    devices.set("survived", survived);
    j.set("devices", std::move(devices));
    j.set("classification", classification.to_json());
    Json lead = Json::object();
    lead.set("wide_band", lead_time_wide.to_json());
    lead.set("imminent_band", lead_time_imminent.to_json());
    j.set("lead_time_years", std::move(lead));
    Json wearout = Json::object();
    Json curve = Json::array();
    for (const auto& [p, year] : wearout_failure_percentiles) {
        Json point = Json::object();
        point.set("percentile", p);
        point.set("years", year);
        curve.push_back(std::move(point));
    }
    wearout.set("failure_year_percentiles", std::move(curve));
    wearout.set("failure_years", wearout_failure_years.to_json());
    if (!failed_by_mechanism.empty() || !survived_by_mechanism.empty()) {
        // Dominant-mechanism breakdown exists only on mission-profile
        // campaigns, so legacy aggregates stay byte-identical.
        Json failed_counts = Json::object();
        for (const auto& [name, count] : failed_by_mechanism) {
            failed_counts.set(name, count);
        }
        wearout.set("failed_by_mechanism", std::move(failed_counts));
        Json survived_counts = Json::object();
        for (const auto& [name, count] : survived_by_mechanism) {
            survived_counts.set(name, count);
        }
        wearout.set("survived_by_mechanism", std::move(survived_counts));
    }
    j.set("wearout", std::move(wearout));
    return j;
}

CampaignAggregate aggregate_outcomes(std::span<const DeviceOutcome> outcomes,
                                     const AggregateConfig& config) {
    CampaignAggregate agg;
    agg.population = outcomes.size();

    std::vector<ClassifierSample> samples;
    samples.reserve(outcomes.size());
    std::vector<double> wide_leads;
    std::vector<double> imminent_leads;
    std::vector<double> wearout_years;

    for (const DeviceOutcome& out : outcomes) {
        if (out.marginal) ++agg.marginal;
        const bool failed = out.failure_years >= 0.0;
        const bool early =
            failed && out.failure_years <= config.early_fail_years + 1e-9;
        if (failed) {
            ++agg.failed;
        } else {
            ++agg.survived;
        }
        if (early) ++agg.early_failures;
        samples.push_back(ClassifierSample{out.screen_score, early});

        const double wide = out.lead_time_years();
        if (wide >= 0.0) wide_leads.push_back(wide);
        const double imminent = out.imminent_lead_time_years();
        if (imminent >= 0.0) imminent_leads.push_back(imminent);
        if (failed && !out.marginal) wearout_years.push_back(out.failure_years);
    }

    ClassificationQuality& cls = agg.classification;
    for (const ClassifierSample& s : samples) {
        if (s.positive) {
            ++cls.positives;
        } else {
            ++cls.negatives;
        }
        const bool predicted = s.score > 0.0;
        if (predicted && s.positive) ++cls.true_positives;
        if (predicted && !s.positive) ++cls.false_positives;
        if (!predicted && s.positive) ++cls.false_negatives;
        if (!predicted && !s.positive) ++cls.true_negatives;
    }
    cls.roc_auc = roc_auc(samples);
    cls.average_precision = average_precision(samples);
    cls.pr_curve = precision_recall_curve(samples);
    const std::size_t predicted_pos = cls.true_positives + cls.false_positives;
    if (predicted_pos > 0) {
        cls.precision = static_cast<double>(cls.true_positives) /
                        static_cast<double>(predicted_pos);
    }
    if (cls.positives > 0) {
        cls.recall = static_cast<double>(cls.true_positives) /
                     static_cast<double>(cls.positives);
    }

    // Dominant-mechanism counts in name-sorted order: a pure fold over
    // the outcomes, so every shard/resume/width reproduces it.
    std::map<std::string, std::size_t> failed_mechs;
    std::map<std::string, std::size_t> survived_mechs;
    for (const DeviceOutcome& out : outcomes) {
        if (out.dominant_mechanism.empty()) continue;
        if (out.failure_years >= 0.0) {
            ++failed_mechs[out.dominant_mechanism];
        } else {
            ++survived_mechs[out.dominant_mechanism];
        }
    }
    agg.failed_by_mechanism.assign(failed_mechs.begin(), failed_mechs.end());
    agg.survived_by_mechanism.assign(survived_mechs.begin(),
                                     survived_mechs.end());

    agg.lead_time_wide = summarize(wide_leads);
    agg.lead_time_imminent = summarize(imminent_leads);
    agg.wearout_failure_years = summarize(wearout_years);
    if (!wearout_years.empty()) {
        for (double p : {1.0, 5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0}) {
            agg.wearout_failure_percentiles.emplace_back(
                p, percentile(wearout_years, p));
        }
    }
    return agg;
}

std::string outcomes_csv(std::span<const DeviceOutcome> outcomes) {
    std::string csv =
        "index,marginal,num_defects,aging_amplitude,failure_years,"
        "screen_score,margin_used_t0,first_alert_wide,first_alert_imminent,"
        "lead_time_wide,lead_time_imminent\n";
    char row[320];
    for (const DeviceOutcome& out : outcomes) {
        const double wide = out.first_alert_years.empty()
                                ? -1.0
                                : out.first_alert_years.back();
        const double imminent = out.first_alert_years.size() < 2
                                    ? -1.0
                                    : out.first_alert_years[1];
        std::snprintf(row, sizeof row,
                      "%u,%d,%u,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,"
                      "%.17g\n",
                      out.index, out.marginal ? 1 : 0, out.num_defects,
                      out.aging_amplitude, out.failure_years,
                      out.screen_score, out.margin_used_t0, wide, imminent,
                      out.lead_time_years(),
                      out.imminent_lead_time_years());
        csv += row;
    }
    return csv;
}

}  // namespace fastmon
