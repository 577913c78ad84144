// The seeded random-circuit family of the property tests.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "netlist/generator.hpp"
#include "util/prng.hpp"

namespace fastmon {

/// Circuit `seed` of the family (40-199 gates, 2-13 flip-flops): its
/// shape is drawn from `rng`, which the caller keeps drawing from.
inline Netlist property_circuit(std::string name, std::uint64_t seed,
                                Prng& rng) {
    GeneratorConfig cfg;
    cfg.name = std::move(name);
    cfg.n_gates = 40 + rng.next_below(160);
    cfg.n_ffs = 2 + rng.next_below(12);
    cfg.n_inputs = 3 + rng.next_below(8);
    cfg.n_outputs = 2 + rng.next_below(6);
    cfg.depth = 4 + rng.next_below(10);
    cfg.spread = rng.uniform(0.0, 1.0);
    cfg.seed = seed;
    return generate_circuit(cfg);
}

}  // namespace fastmon
