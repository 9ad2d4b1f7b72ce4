// Deterministic, seedable RNG (xoshiro256**) so every synthetic dataset and
// property test is reproducible across platforms without depending on
// std::mt19937 distribution quirks.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace cello {

class Rng {
 public:
  explicit Rng(u64 seed = 0x9E3779B97F4A7C15ull) {
    // SplitMix64 seeding as recommended by the xoshiro authors.
    u64 s = seed;
    for (auto& w : state_) {
      s += 0x9E3779B97F4A7C15ull;
      u64 z = s;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      w = z ^ (z >> 31);
    }
  }

  u64 next() {
    const u64 result = rotl(state_[1] * 5, 7) * 9;
    const u64 t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) with rejection sampling (bound > 0).
  u64 bounded(u64 bound) {
    const u64 threshold = (0 - bound) % bound;
    for (;;) {
      const u64 r = next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

 private:
  static constexpr u64 rotl(u64 x, int k) { return (x << k) | (x >> (64 - k)); }

  u64 state_[4]{};
};

}  // namespace cello
