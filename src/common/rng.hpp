/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic decision in the simulator and the workload engines draws
 * from an explicitly seeded Rng instance, so that identical configurations
 * reproduce identical simulated executions cycle for cycle.  The generator
 * is xoshiro256**, which is fast, tiny, and has no global state.
 */

#ifndef DBSIM_COMMON_RNG_HPP
#define DBSIM_COMMON_RNG_HPP

#include <cstdint>

#include "common/snapshot.hpp"

namespace dbsim {

/** splitmix64: full-avalanche 64-bit mix (Rng seeding, derived seeds). */
inline std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * A deterministic random-number stream (xoshiro256**).
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed via splitmix64 expansion. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound) with rejection to avoid modulo bias. */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double uniform();

    /** Bernoulli trial with probability @p p of returning true. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Geometric-ish run length: 1 + number of successes of probability
     * @p cont, clamped to @p max.  Used for burst/stream lengths.
     */
    std::uint32_t runLength(double cont, std::uint32_t max);

    /**
     * Sample from a Zipf-like distribution over [0, n) with skew @p s
     * using inverse-power rejection sampling.  Hot items get low indices.
     */
    std::uint64_t zipf(std::uint64_t n, double s);

    /** Derive an independent child stream (for per-process generators). */
    Rng fork();

    void saveState(snap::Writer &w) const { stateFields(w, *this); }
    void restoreState(snap::Reader &r) { stateFields(r, *this); }

  private:
    template <class Ar, class Self>
    static void
    stateFields(Ar &ar, Self &self)
    {
        for (auto &s : self.s_)
            ar.u64(s);
    }

    std::uint64_t s_[4];
};

} // namespace dbsim

#endif // DBSIM_COMMON_RNG_HPP
