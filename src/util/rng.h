/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * The simulator must be fully reproducible from a seed, so all
 * stochastic components draw from an Rng instance that is explicitly
 * threaded through the object graph. The generator is xoshiro256**
 * seeded through SplitMix64; independent streams are derived with
 * fork().
 */

#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace atmsim::util {

/** Stateless SplitMix64 step, used for seeding and stream derivation. */
[[nodiscard]] std::uint64_t splitMix64(std::uint64_t &state);

/** Stable 64-bit FNV-1a hash of a byte string (std::hash is not
 *  guaranteed stable across runs or toolchains). */
[[nodiscard]] std::uint64_t fnv1a(std::string_view text);

/**
 * Small, fast, high-quality PRNG (xoshiro256**) with explicit seeding
 * and independent stream derivation.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** @return The next raw 64-bit value. */
    std::uint64_t u64();

    /** @return A double uniformly distributed in [0, 1). */
    double uniform();

    /** @return A double uniformly distributed in [lo, hi). */
    double uniform(double lo, double hi);

    /** @return An integer uniformly distributed in [0, n). n must be > 0. */
    std::uint64_t below(std::uint64_t n);

    /** @return A standard normal deviate (Box-Muller, cached pair). */
    double gaussian();

    /** @return A normal deviate with the given mean and stddev. */
    double gaussian(double mean, double sigma);

    /** @return A log-normal deviate: exp(N(mu, sigma)). */
    double lognormal(double mu, double sigma);

    /** @return An exponential deviate with the given rate (1/mean). */
    double exponential(double rate);

    /** @return true with probability p. */
    bool bernoulli(double p);

    /**
     * Derive an independent child stream. Forking with the same
     * streamId always yields the same child sequence regardless of how
     * much this generator has been consumed since construction.
     *
     * @param stream_id Identifier for the child stream.
     */
    [[nodiscard]] Rng fork(std::uint64_t stream_id) const;

    /** Shuffle a vector in place (Fisher-Yates). */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = below(i);
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    std::uint64_t s_[4];
    std::uint64_t origin_; ///< Seed this stream was created from.
    bool haveCached_ = false;
    double cached_ = 0.0;
};

/**
 * Low-discrepancy sequence (van der Corput, base 2) used to stratify
 * repeated characterization runs: guarantees that a handful of repeats
 * covers the whole noise range while still looking irregular.
 */
class VanDerCorput
{
  public:
    /** @param scramble XOR scrambling constant for decorrelation. */
    explicit VanDerCorput(std::uint64_t scramble = 0);

    /** @return The index-th element of the scrambled sequence in [0,1). */
    [[nodiscard]] double at(std::uint64_t index) const;

    /** @return The next element of the sequence. */
    double next();

  private:
    std::uint64_t index_ = 0;
    std::uint64_t scramble_;
};

} // namespace atmsim::util
