#include "wearout/activity.hpp"

#include "sim/wave_sim.hpp"
#include "util/prng.hpp"

namespace fastmon {

namespace {

/// Normalizes raw per-gate counts to mean 1.0 over the combinational
/// gates, writing into `out` (all nodes, non-combinational stay 1.0).
void normalize(const Netlist& netlist,
               const std::vector<std::uint64_t>& counts,
               std::vector<double>& out) {
    out.assign(netlist.size(), 1.0);
    double sum = 0.0;
    std::size_t n = 0;
    for (GateId id = 0; id < netlist.size(); ++id) {
        if (!is_combinational(netlist.gate(id).type)) continue;
        sum += static_cast<double>(counts[id]);
        ++n;
    }
    if (n == 0 || sum <= 0.0) return;  // degenerate: unit stress
    const double mean = sum / static_cast<double>(n);
    for (GateId id = 0; id < netlist.size(); ++id) {
        if (!is_combinational(netlist.gate(id).type)) continue;
        out[id] = static_cast<double>(counts[id]) / mean;
    }
}

}  // namespace

Json ActivityConfig::to_json() const {
    Json j = Json::object();
    j.set("mode", mode == Mode::Waveform ? "waveform" : "constant");
    j.set("num_pattern_pairs", num_pattern_pairs);
    j.set("seed", seed);
    return j;
}

std::optional<ActivityConfig> ActivityConfig::from_json(const Json& j) {
    if (!j.is_object()) return std::nullopt;
    const Json* mode = j.find("mode");
    const Json* pairs = j.find("num_pattern_pairs");
    const Json* seed = j.find("seed");
    if (!mode || !mode->is_string() || !pairs || !pairs->is_number() ||
        !seed || !seed->is_number()) {
        return std::nullopt;
    }
    ActivityConfig cfg;
    if (mode->as_string() == "waveform") {
        cfg.mode = Mode::Waveform;
    } else if (mode->as_string() == "constant") {
        cfg.mode = Mode::Constant;
    } else {
        return std::nullopt;
    }
    const auto num_pairs = json_uint<std::size_t>(*pairs);
    const auto seed_value = json_uint<std::uint64_t>(*seed);
    if (!num_pairs || *num_pairs < 1 || !seed_value) return std::nullopt;
    cfg.num_pattern_pairs = *num_pairs;
    cfg.seed = *seed_value;
    return cfg;
}

ActivityCounts count_activity(const Netlist& netlist,
                              const DelayAnnotation& delays,
                              std::span<const ActivityPattern> patterns) {
    ActivityCounts counts;
    counts.toggles.assign(netlist.size(), 0);
    counts.ones.assign(netlist.size(), 0);
    counts.num_pairs = patterns.size();
    const WaveSim sim(netlist, delays);
    for (const ActivityPattern& p : patterns) {
        const std::vector<Waveform> waves = sim.simulate(p.v1, p.v2);
        for (GateId id = 0; id < netlist.size(); ++id) {
            counts.toggles[id] +=
                static_cast<std::uint64_t>(waves[id].num_transitions());
            if (waves[id].final()) ++counts.ones[id];
        }
    }
    return counts;
}

ActivityProfile extract_activity(const Netlist& netlist,
                                 const DelayAnnotation& delays,
                                 const ActivityConfig& config) {
    ActivityProfile profile;
    if (config.mode == ActivityConfig::Mode::Constant) {
        profile.toggle_rate.assign(netlist.size(), 1.0);
        profile.static_prob.assign(netlist.size(), 1.0);
        return profile;
    }
    const std::size_t width = netlist.comb_sources().size();
    std::vector<ActivityPattern> patterns(config.num_pattern_pairs);
    for (std::size_t k = 0; k < patterns.size(); ++k) {
        // One substream per pair: the pattern set is a pure function of
        // (seed, pair index), independent of generation order.
        Prng rng = Prng::stream(config.seed, static_cast<std::uint64_t>(k));
        patterns[k].v1.resize(width);
        patterns[k].v2.resize(width);
        for (std::size_t s = 0; s < width; ++s) {
            patterns[k].v1[s] = rng.chance(0.5) ? 1 : 0;
            patterns[k].v2[s] = rng.chance(0.5) ? 1 : 0;
        }
    }
    const ActivityCounts counts = count_activity(netlist, delays, patterns);
    normalize(netlist, counts.toggles, profile.toggle_rate);
    normalize(netlist, counts.ones, profile.static_prob);
    return profile;
}

}  // namespace fastmon
