#include "common/rng.hpp"

#include <cmath>

namespace dbsim {

namespace {

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    // Stepped splitmix64: word i is splitmix64(seed + i * increment).
    for (auto &s : s_) {
        s = splitmix64(seed);
        seed += 0x9e3779b97f4a7c15ull;
    }
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    if (bound <= 1)
        return 0;
    // Lemire-style rejection: keep the top bits unbiased.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint32_t
Rng::runLength(double cont, std::uint32_t max)
{
    std::uint32_t n = 1;
    while (n < max && chance(cont))
        ++n;
    return n;
}

std::uint64_t
Rng::zipf(std::uint64_t n, double s)
{
    if (n <= 1)
        return 0;
    // Inverse-CDF approximation for the continuous analogue, then clamp.
    // Adequate for workload skew modeling; exactness is not required.
    const double u = uniform();
    if (s == 1.0) {
        const double h = std::log(static_cast<double>(n));
        return static_cast<std::uint64_t>(std::exp(u * h)) - 1;
    }
    const double p = 1.0 - s;
    const double nn = static_cast<double>(n);
    const double x = std::pow(u * (std::pow(nn, p) - 1.0) + 1.0, 1.0 / p);
    std::uint64_t idx = static_cast<std::uint64_t>(x) - 1;
    return idx >= n ? n - 1 : idx;
}

Rng
Rng::fork()
{
    return Rng(next() ^ 0xd1b54a32d192ed03ull);
}

} // namespace dbsim
