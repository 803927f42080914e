#ifndef HIDA_SUPPORT_UTILS_H
#define HIDA_SUPPORT_UTILS_H

/**
 * @file
 * Small numeric helpers shared across the compiler and the QoR estimator.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

namespace hida {

/** splitmix64 finalizer: strong 64-bit integer mixing. */
inline uint64_t
hashMix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Order-sensitive combination of a running hash with one more value. */
inline uint64_t
hashCombine(uint64_t seed, uint64_t value)
{
    return hashMix(seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                           (seed >> 2)));
}

/** Ceiling division for non-negative integers. */
inline int64_t
ceilDiv(int64_t a, int64_t b)
{
    return (a + b - 1) / b;
}

/** Product of a factor vector (empty product is 1). */
inline int64_t
product(const std::vector<int64_t>& v)
{
    return std::accumulate(v.begin(), v.end(), int64_t{1},
                           [](int64_t a, int64_t b) { return a * b; });
}

/** All positive divisors of @p n in ascending order. */
inline std::vector<int64_t>
divisorsOf(int64_t n)
{
    std::vector<int64_t> result;
    for (int64_t d = 1; d * d <= n; ++d) {
        if (n % d == 0) {
            result.push_back(d);
            if (d != n / d)
                result.push_back(n / d);
        }
    }
    std::sort(result.begin(), result.end());
    return result;
}

/** Largest divisor of @p n that is <= @p bound (at least 1). */
inline int64_t
largestDivisorUpTo(int64_t n, int64_t bound)
{
    for (int64_t d = std::min(bound, n); d > 1; --d)
        if (n % d == 0)
            return d;
    return 1;
}

/** Geometric mean of positive samples; returns 0 for an empty set. */
inline double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

/** True when one of the two values divides the other (Alg. 4 line 15). */
inline bool
mutuallyDivisible(int64_t a, int64_t b)
{
    if (a == 0 || b == 0)
        return true;
    return a % b == 0 || b % a == 0;
}

} // namespace hida

#endif // HIDA_SUPPORT_UTILS_H
