#include "atpg/bist.hpp"

#include <cmath>
#include <stdexcept>
#include <unordered_map>

namespace fastmon {

namespace {

/// Maximal-length Galois feedback polynomials (right-shift form).
std::uint64_t taps_for(std::uint32_t width) {
    switch (width) {
        case 16: return 0xB400ULL;      // x^16+x^14+x^13+x^11+1
        case 24: return 0xE10000ULL;    // x^24+x^23+x^22+x^17+1
        case 32: return 0xA3000000ULL;  // maximal (period 2^32-1, verified)
        default:
            throw std::invalid_argument("unsupported LFSR width " +
                                        std::to_string(width));
    }
}

std::uint64_t mask_for(std::uint32_t width) {
    return width == 64 ? ~0ULL : ((1ULL << width) - 1);
}

}  // namespace

Prpg::Prpg(std::uint32_t width, std::uint64_t seed)
    : width_(width), taps_(taps_for(width)), state_(seed & mask_for(width)) {
    if (state_ == 0) state_ = 1;  // avoid the LFSR lock-up state
}

Bit Prpg::next_bit() {
    // Galois step: the output bit conditions the polynomial XOR.
    const Bit out = static_cast<Bit>(state_ & 1);
    state_ >>= 1;
    if (out != 0) state_ ^= taps_;
    return out;
}

PatternPair Prpg::next_pattern(std::size_t num_sources) {
    PatternPair p;
    p.v1.resize(num_sources);
    p.v2.resize(num_sources);
    for (std::size_t s = 0; s < num_sources; ++s) p.v1[s] = next_bit();
    for (std::size_t s = 0; s < num_sources; ++s) p.v2[s] = next_bit();
    return p;
}

std::vector<PatternPair> Prpg::generate(std::size_t num_sources,
                                        std::size_t count) {
    std::vector<PatternPair> out;
    out.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
        out.push_back(next_pattern(num_sources));
    }
    return out;
}

Misr::Misr(std::uint32_t width)
    : width_(width), taps_(taps_for(width)), state_(0) {}

void Misr::absorb_word(std::uint64_t response_bits) {
    const std::uint64_t out = state_ & 1;
    state_ >>= 1;
    if (out != 0) state_ ^= taps_;
    state_ ^= response_bits & mask_for(width_);
}

void Misr::absorb(std::span<const Bit> response) {
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < response.size(); ++i) {
        if (response[i] != 0) word ^= 1ULL << (i % width_);
    }
    absorb_word(word);
}

double Misr::aliasing_probability() const {
    return std::pow(2.0, -static_cast<double>(width_));
}

BistCoverage misr_fault_coverage(const WaveSim& sim,
                                 std::span<const PatternPair> patterns,
                                 std::span<const DelayFault> faults,
                                 Time period, std::uint32_t misr_width) {
    const Netlist& nl = sim.netlist();
    const auto ops = nl.observe_points();
    const FaultSim fsim(sim);
    FaultSimScratch scratch;  // one overlay for every (fault, pattern) pair

    BistCoverage result;
    result.period = period;

    // Good responses per pattern (sampled at `period`), good signature,
    // and per-fault incremental signatures.
    Misr good(misr_width);
    std::vector<Misr> faulty(faults.size(), Misr(misr_width));
    std::vector<bool> any_diff(faults.size(), false);

    std::vector<Bit> response(ops.size());
    for (const PatternPair& p : patterns) {
        const std::vector<Waveform> waves = sim.simulate(p.v1, p.v2);
        for (std::size_t oi = 0; oi < ops.size(); ++oi) {
            response[oi] =
                static_cast<Bit>(waves[ops[oi].signal].value_at(period));
        }
        good.absorb(response);

        for (std::size_t fi = 0; fi < faults.size(); ++fi) {
            std::vector<Bit> fresp = response;
            if (fsim.activated(faults[fi], waves)) {
                for (const ObserveDiff& od :
                     fsim.simulate(faults[fi], waves, scratch)) {
                    if (od.diff.value_at(period)) {
                        fresp[od.observe_index] ^= 1;
                        any_diff[fi] = true;
                    }
                }
            }
            faulty[fi].absorb(fresp);
        }
    }

    result.good_signature = good.signature();
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
        const bool sig_diff = faulty[fi].signature() != good.signature();
        if (sig_diff) ++result.detected;
        if (any_diff[fi]) {
            ++result.response_diffs;
            if (!sig_diff) ++result.aliased;
        }
    }
    return result;
}

}  // namespace fastmon
