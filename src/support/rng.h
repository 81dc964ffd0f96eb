// Deterministic pseudo-random number generator.
//
// All stochastic behaviour in the repository (scheduler preemption, workload
// generation, fleet simulation, property-test input generation) flows through
// this PRNG so that every experiment is reproducible from a seed. The
// implementation is SplitMix64 followed by xoshiro256**, which has good
// statistical quality and a trivially copyable state.

#ifndef GIST_SRC_SUPPORT_RNG_H_
#define GIST_SRC_SUPPORT_RNG_H_

#include <cstdint>

namespace gist {

// Precomputed state for repeated NextBelow draws with a fixed bound (the
// VM's scheduler quantum re-roll, drawn once every few instructions). Trades
// the two hardware divisions of the generic path for a multiply-high plus a
// bounded correction; the returned values — and the number of generator
// steps consumed — are bit-identical to NextBelow(bound()).
class FixedBound {
 public:
  // `bound` must be nonzero (same contract as NextBelow).
  explicit FixedBound(uint64_t bound)
      : bound_(bound),
        threshold_((0 - bound) % bound),
        // floor(2^64 / bound); unused (and undefined to compute) for bound 1,
        // which short-circuits in the draw.
        reciprocal_(bound > 1
                        ? static_cast<uint64_t>(
                              (static_cast<unsigned __int128>(1) << 64) / bound)
                        : 0) {}

  uint64_t bound() const { return bound_; }

  // Exactly x % bound() for bound() >= 2, division-free and branch-free.
  // The reciprocal is 2^64/bound - e with 0 <= e < 1, so for x < 2^64
  // x * reciprocal / 2^64 > x/bound - 1: the quotient estimate is
  // floor(x/bound) or one less, and one masked subtraction corrects it.
  // Branch-free because a correction branch on random samples mispredicts,
  // which cost about half again the VM's per-boundary settle time.
  uint64_t Mod(uint64_t x) const {
    const uint64_t q =
        static_cast<uint64_t>((static_cast<unsigned __int128>(x) * reciprocal_) >> 64);
    const uint64_t r = x - q * bound_;
    return r - (bound_ & (0 - static_cast<uint64_t>(r >= bound_)));
  }

 private:
  friend class Rng;
  uint64_t bound_;
  uint64_t threshold_;  // NextBelow's rejection threshold: 2^64 mod bound
  uint64_t reciprocal_;
};

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform over the full 64-bit range. Inline: this sits on the VM's
  // scheduler boundary, which runs once per quantum (a handful of
  // instructions).
  uint64_t NextU64() {
    const uint64_t result = RotL(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = RotL(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound). `bound` must be nonzero.
  uint64_t NextBelow(uint64_t bound);

  // Same value and generator-step consumption as NextBelow(b.bound()), with
  // the per-draw divisions precomputed away.
  uint64_t NextBelow(const FixedBound& b) {
    if (b.bound_ == 1) {
      NextU64();  // the generic path consumes one accepted sample
      return 0;
    }
    for (;;) {
      const uint64_t sample = NextU64();
      if (sample >= b.threshold_) {
        return b.Mod(sample);
      }
    }
  }

  // Uniform in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi);

  // True with probability `numerator / denominator`.
  bool NextChance(uint32_t numerator, uint32_t denominator);

  // Uniform double in [0, 1).
  double NextDouble();

  // Derives an independent child generator; used to give each simulated
  // client its own stream without correlating with its siblings.
  Rng Fork();

 private:
  static uint64_t RotL(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

// Derives the seed of stream `index` under `base` by one SplitMix64 step on
// a golden-ratio-spaced state. This is how the fleet gives production run N
// its own generator: the result depends only on (base, index), never on how
// many sibling streams were drawn before it, so run N's workload is
// identical whether the fleet executes runs sequentially or fans them out
// across a thread pool.
uint64_t DeriveSeed(uint64_t base, uint64_t index);

}  // namespace gist

#endif  // GIST_SRC_SUPPORT_RNG_H_
