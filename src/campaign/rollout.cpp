#include "campaign/rollout.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

#include "timing/delay_model.hpp"
#include "util/diagnostic.hpp"

namespace fastmon {

namespace {

double lead_between(double alert, double failure) {
    if (alert < 0.0 || failure < 0.0) return -1.0;
    return failure - alert;
}

/// Outcome fields fixed before the first grid year.
DeviceOutcome begin_outcome(const DeviceSample& sample,
                            std::size_t num_configs) {
    DeviceOutcome out;
    out.index = sample.index;
    out.marginal = sample.marginal();
    out.num_defects = static_cast<std::uint32_t>(sample.defects.size());
    out.aging_amplitude = sample.aging.amplitude;
    out.first_alert_years.assign(num_configs, -1.0);
    return out;
}

/// Outcome fields derived after the grid: the burn-in screen score and
/// the wear-out attribution.  The scalar and batched rollouts both end
/// here, so these formulas are part of their bit-identity contract.
void finish_outcome(const RolloutContext& ctx,
                    const DeviceDegradation& degradation,
                    DeviceOutcome& out) {
    // FAST-style burn-in screen: each guard band alerting inside the
    // screen window contributes 1 plus its normalized earliness, so a
    // device tripping narrower bands (or tripping them sooner) scores
    // strictly higher — the manufacturing-time marginality signature.
    const double window = std::max(ctx.screen_years, 0.0);
    for (std::size_t c = 1; c < out.first_alert_years.size(); ++c) {
        const double first = out.first_alert_years[c];
        if (first >= 0.0 && first <= window + 1e-9) {
            const double earliness =
                window > 0.0 ? (window - first) / window : 0.0;
            out.screen_score += 1.0 + std::clamp(earliness, 0.0, 1.0);
        }
    }
    // Wear-out attribution at the failure year (or the horizon for
    // survivors); dominant_mechanism() is null unless wear-out is on.
    if (ctx.grid.empty()) return;
    const double at_years =
        out.failure_years >= 0.0 ? out.failure_years : ctx.grid.back();
    double share = 0.0;
    if (const char* name =
            degradation.dominant_mechanism(at_years, &share)) {
        out.dominant_mechanism = name;
        out.dominant_share = share;
    }
}

}  // namespace

double DeviceOutcome::lead_time_years() const {
    if (first_alert_years.empty()) return -1.0;
    return lead_between(first_alert_years.back(), failure_years);
}

double DeviceOutcome::imminent_lead_time_years() const {
    if (first_alert_years.size() < 2) return -1.0;
    return lead_between(first_alert_years[1], failure_years);
}

Json DeviceOutcome::to_json() const {
    Json j = Json::object();
    j.set("index", index);
    j.set("marginal", marginal);
    j.set("num_defects", num_defects);
    j.set("aging_amplitude", aging_amplitude);
    Json alerts = Json::array();
    for (double y : first_alert_years) alerts.push_back(y);
    j.set("first_alert_years", std::move(alerts));
    j.set("failure_years", failure_years);
    j.set("margin_used_t0", margin_used_t0);
    j.set("screen_score", screen_score);
    // Wear-out attribution keys only exist on mission-profile
    // campaigns: legacy artifacts (and their checkpoints) stay
    // byte-identical.
    if (!dominant_mechanism.empty()) {
        j.set("dominant_mechanism", dominant_mechanism);
        j.set("dominant_share", dominant_share);
    }
    return j;
}

std::optional<DeviceOutcome> DeviceOutcome::from_json(const Json& j) {
    if (!j.is_object()) return std::nullopt;
    const Json* index = j.find("index");
    const Json* marginal = j.find("marginal");
    const Json* defects = j.find("num_defects");
    const Json* amplitude = j.find("aging_amplitude");
    const Json* alerts = j.find("first_alert_years");
    const Json* failure = j.find("failure_years");
    const Json* margin = j.find("margin_used_t0");
    const Json* score = j.find("screen_score");
    if (!index || !index->is_number() || !marginal || !marginal->is_bool() ||
        !defects || !defects->is_number() || !amplitude ||
        !amplitude->is_number() || !alerts || !alerts->is_array() ||
        !failure || !failure->is_number() || !margin ||
        !margin->is_number() || !score || !score->is_number()) {
        return std::nullopt;
    }
    const auto index_value = json_uint<std::uint32_t>(*index);
    const auto num_defects = json_uint<std::uint32_t>(*defects);
    if (!index_value || !num_defects) return std::nullopt;
    DeviceOutcome out;
    out.index = *index_value;
    out.marginal = marginal->as_bool();
    out.num_defects = *num_defects;
    out.aging_amplitude = amplitude->as_number();
    for (const Json& a : alerts->as_array()) {
        if (!a.is_number()) return std::nullopt;
        out.first_alert_years.push_back(a.as_number());
    }
    out.failure_years = failure->as_number();
    out.margin_used_t0 = margin->as_number();
    out.screen_score = score->as_number();
    if (const Json* mech = j.find("dominant_mechanism")) {
        const Json* mech_share = j.find("dominant_share");
        if (!mech->is_string() || !mech_share || !mech_share->is_number()) {
            return std::nullopt;
        }
        out.dominant_mechanism = mech->as_string();
        out.dominant_share = mech_share->as_number();
    }
    return out;
}

std::vector<double> make_year_grid(double horizon_years, double step_years) {
    const auto reject = [](const char* what, double v) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "make_year_grid: %s (got %g)", what, v);
        throw DiagnosticBuilder("campaign").message(buf).build();
    };
    if (!std::isfinite(horizon_years) || horizon_years < 0.0) {
        reject("horizon_years must be finite and >= 0", horizon_years);
    }
    if (!std::isfinite(step_years) || step_years <= 0.0) {
        reject("step_years must be finite and > 0", step_years);
    }
    if (horizon_years > 0.0 && step_years > horizon_years + 1e-9) {
        reject("step_years exceeds horizon_years", step_years);
    }
    std::vector<double> grid;
    // i * step (not repeated addition) keeps grid points exact enough
    // to survive JSON round trips and resume bit-identically.
    for (std::size_t i = 0;; ++i) {
        const double y = static_cast<double>(i) * step_years;
        if (y > horizon_years + 1e-9) break;
        grid.push_back(y);
    }
    return grid;
}

DeviceOutcome roll_device(const RolloutContext& ctx,
                          const DeviceSample& sample,
                          std::unique_ptr<StaEngine>* engine_scratch) {
    const std::size_t num_configs = ctx.placement->config_delays.size();
    DeviceOutcome out = begin_outcome(sample, num_configs);

    // Per-device silicon: process variation sampled from the device's
    // own stream, so any shard order reproduces it.
    const DelayAnnotation annotation =
        DelayAnnotation::with_lognormal_variation(
            *ctx.netlist, ctx.variation_sigma_log, sample.seed);
    StaEngine* engine = nullptr;
    if (engine_scratch) {
        if (!*engine_scratch) {
            // Monitor evaluation needs arrivals only; the simulator
            // rebases the engine to each device's annotation.
            *engine_scratch = std::make_unique<StaEngine>(
                *ctx.netlist, annotation, 1.0, StaEngine::Scope::Arrivals);
        }
        engine = engine_scratch->get();
    }
    LifetimeSimulator sim(*ctx.netlist, annotation, ctx.clock_period,
                          sample.aging, sample.seed, engine, ctx.wearout);
    for (const MarginalDefect& defect : sample.defects) {
        sim.add_defect(defect);
    }

    LifetimePoint p;  // reused across the grid: one alert buffer
    for (const double year : ctx.grid) {
        sim.evaluate_into(year, *ctx.placement, p);
        for (std::size_t c = 0; c < p.alerts.size() && c < num_configs; ++c) {
            if (p.alerts[c] && out.first_alert_years[c] < 0.0) {
                out.first_alert_years[c] = p.years;
            }
        }
        if (p.timing_failure && out.failure_years < 0.0) {
            out.failure_years = p.years;
        }
        if (p.years == 0.0 && ctx.clock_period > 0.0) {
            out.margin_used_t0 =
                p.worst_monitored_arrival / ctx.clock_period;
        }
    }
    finish_outcome(ctx, sim.degradation(), out);
    return out;
}

BatchRollout::BatchRollout(const RolloutContext& ctx, std::size_t lanes)
    : ctx_(&ctx),
      nominal_(DelayAnnotation::nominal(*ctx.netlist)),
      engine_(*ctx.netlist, nominal_, 1.0),
      owned_wearout_(ctx.wearout ? nullptr
                                 : std::make_unique<WearoutModel>(
                                       *ctx.netlist, nominal_,
                                       WearoutConfig::legacy_preset())),
      wearout_(ctx.wearout ? ctx.wearout : owned_wearout_.get()),
      lanes_(std::clamp<std::size_t>(lanes, 1, kBatchWidth)) {
    const auto ops = ctx.netlist->observe_points();
    const MonitorPlacement& placement = *ctx.placement;
    for (std::uint32_t oi = 0; oi < ops.size(); ++oi) {
        if (oi < placement.monitored.size() && placement.monitored[oi]) {
            monitored_signals_.push_back(ops[oi].signal);
        }
    }
}

void BatchRollout::roll(std::span<const DeviceSample> samples,
                        std::span<DeviceOutcome> outcomes) {
    assert(!samples.empty());
    assert(outcomes.size() >= samples.size());
    std::size_t next = 0;
    stream(
        [&](std::size_t& slot) -> const DeviceSample* {
            if (next == samples.size()) return nullptr;
            slot = next;
            return &samples[next++];
        },
        [&](std::size_t slot, DeviceOutcome& out) {
            outcomes[slot] = std::move(out);
        });
}

bool BatchRollout::load_next(std::size_t lane, const Pull& pull) {
    const std::size_t num_configs = ctx_->placement->config_delays.size();
    std::size_t slot = 0;
    if (const DeviceSample* sample = pull(slot)) {
        // Lane column = nominal arcs scaled by the device's variation
        // factors — the same bits with_lognormal_variation would
        // produce, without the annotation copy.
        DelayAnnotation::lognormal_variation_factors(
            *ctx_->netlist, ctx_->variation_sigma_log, sample->seed,
            factors_);
        engine_.load_lane(lane, factors_);
        degradation_[lane].reset(*ctx_->netlist, sample->aging, sample->seed,
                                 *wearout_);
        for (const MarginalDefect& defect : sample->defects) {
            degradation_[lane].add_defect(defect);
        }
        outcome_[lane] = begin_outcome(*sample, num_configs);
        year_[lane] = 0;
        slot_[lane] = slot;
        return true;
    }
    engine_.retire_lane(lane);
    return false;
}

void BatchRollout::stream(const Pull& pull, const Emit& emit) {
    const MonitorPlacement& placement = *ctx_->placement;
    const std::size_t num_configs = placement.config_delays.size();
    const std::vector<double>& grid = ctx_->grid;
    assert(!grid.empty());

    std::size_t live = 0;
    for (std::size_t l = 0; l < kBatchWidth; ++l) {
        if (l < lanes_ && load_next(l, pull)) {
            ++live;
        } else {
            engine_.retire_lane(l);
        }
    }

    const Time* const arr = engine_.max_arrival_data();
    while (live > 0) {
        // Every lane's delta comes from the same DeviceDegradation
        // formula (all combinational gates, ascending): the shape
        // BatchDelayDelta requires.  Each lane degrades to its own
        // grid year.
        batch_delta_.clear();
        for (std::size_t l = 0; l < lanes_; ++l) {
            if (!engine_.lane_active(l)) continue;
            degradation_[l].fill_delta(grid[year_[l]], lane_delta_[l]);
            batch_delta_.set(l, &lane_delta_[l]);
        }
        engine_.update(batch_delta_);

        // Batch-wide monitored reduction, lane-innermost over the
        // hoisted signal list: the same max sequence per lane as
        // evaluate_into's monitored branch (op order preserved), so the
        // result is bit-identical; retired lanes compute too, unread.
        Time wm[kBatchWidth];
        for (std::size_t l = 0; l < kBatchWidth; ++l) wm[l] = 0.0;
        for (const GateId sig : monitored_signals_) {
            const Time* const row =
                arr + static_cast<std::size_t>(sig) * kBatchWidth;
            for (std::size_t l = 0; l < kBatchWidth; ++l) {
                wm[l] = std::max(wm[l], row[l]);
            }
        }
        for (std::size_t l = 0; l < lanes_; ++l) {
            if (!engine_.lane_active(l)) continue;
            ++stats_.lane_years;
            // Same formulas and order as LifetimeSimulator's
            // evaluate_into + roll_device's recording.  The engine's
            // critical-path refresh already runs evaluate_into's
            // worst-arrival reduction (same observe points, same order,
            // same 0.0 seed), so worst is read off the engine.
            const double year = grid[year_[l]];
            const Time worst_monitored = wm[l];
            const Time worst = engine_.critical_path_length(l);
            DeviceOutcome& out = outcome_[l];
            bool done = true;
            for (std::size_t c = 1; c < num_configs; ++c) {
                if (out.first_alert_years[c] < 0.0) {
                    const bool alert =
                        worst_monitored >
                        ctx_->clock_period - placement.config_delays[c];
                    if (alert) {
                        out.first_alert_years[c] = year;
                    } else {
                        done = false;
                    }
                }
            }
            if (out.failure_years < 0.0) {
                if (worst > ctx_->clock_period) {
                    out.failure_years = year;
                } else {
                    done = false;
                }
            }
            if (year == 0.0 && ctx_->clock_period > 0.0) {
                out.margin_used_t0 = worst_monitored / ctx_->clock_period;
            }
            // Every outcome field is recorded at its first trigger and
            // never rewritten, so once all are set no later grid point
            // can change this device: it settles (outcome-identical to
            // evaluating the remaining years) and the lane takes the
            // next device without draining the batch.
            const bool last = ++year_[l] == grid.size();
            if (!done && !last) continue;
            if (done && !last) ++stats_.lanes_settled_early;
            finish_outcome(*ctx_, degradation_[l], out);
            ++stats_.devices;
            emit(slot_[l], out);
            if (!load_next(l, pull)) --live;
        }
    }
    ++stats_.batches;
}

}  // namespace fastmon
