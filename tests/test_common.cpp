/**
 * @file
 * Unit tests for common utilities: types helpers, deterministic RNG,
 * histograms, occupancy trackers and the serialized warning sink.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace dbsim {
namespace {

TEST(Types, BlockAlign)
{
    EXPECT_EQ(blockAlign(0, 64), 0u);
    EXPECT_EQ(blockAlign(63, 64), 0u);
    EXPECT_EQ(blockAlign(64, 64), 64u);
    EXPECT_EQ(blockAlign(0x12345, 64), 0x12340u);
    EXPECT_EQ(blockAlign(0xffffffffffffffffull, 64),
              0xffffffffffffffc0ull);
}

TEST(Types, IsPow2)
{
    EXPECT_FALSE(isPow2(0));
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(2));
    EXPECT_FALSE(isPow2(3));
    EXPECT_TRUE(isPow2(1ull << 40));
    EXPECT_FALSE(isPow2((1ull << 40) + 1));
}

TEST(Types, Log2i)
{
    EXPECT_EQ(log2i(1), 0u);
    EXPECT_EQ(log2i(2), 1u);
    EXPECT_EQ(log2i(64), 6u);
    EXPECT_EQ(log2i(8192), 13u);
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, BelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.below(17);
        EXPECT_LT(v, 17u);
    }
    EXPECT_EQ(rng.below(0), 0u);
    EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowCoversAllValues)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(3);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceFrequency)
{
    Rng rng(5);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, RunLengthBounds)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const auto n = rng.runLength(0.5, 6);
        EXPECT_GE(n, 1u);
        EXPECT_LE(n, 6u);
    }
}

TEST(Rng, ZipfSkewsTowardHead)
{
    Rng rng(13);
    std::uint64_t head = 0, total = 20000;
    for (std::uint64_t i = 0; i < total; ++i) {
        if (rng.zipf(1000, 0.9) < 100)
            ++head;
    }
    // With skew, the first 10% of items receive far more than 10%.
    EXPECT_GT(static_cast<double>(head) / static_cast<double>(total), 0.3);
}

TEST(Rng, ZipfInRange)
{
    Rng rng(17);
    for (int i = 0; i < 5000; ++i)
        EXPECT_LT(rng.zipf(50, 1.0), 50u);
    EXPECT_EQ(rng.zipf(1, 0.8), 0u);
}

TEST(Rng, ForkIndependent)
{
    Rng a(21);
    Rng b = a.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(OccupancyTracker, FractionAtLeast)
{
    stats::OccupancyTracker occ(4);
    occ.advance(0, 0);   // starts idle
    occ.advance(10, 1);  // idle 0..10
    occ.advance(20, 2);  // 1 in use 10..20
    occ.advance(30, 0);  // 2 in use 20..30
    occ.advance(40, 0);  // idle 30..40

    EXPECT_EQ(occ.busyTime(), 20u);
    EXPECT_DOUBLE_EQ(occ.fracAtLeast(1), 1.0);
    EXPECT_DOUBLE_EQ(occ.fracAtLeast(2), 0.5);
    EXPECT_DOUBLE_EQ(occ.fracAtLeast(3), 0.0);
}

TEST(OccupancyTracker, SaturatesAtMax)
{
    stats::OccupancyTracker occ(2);
    occ.advance(0, 5); // clamped into top bucket
    occ.advance(10, 0);
    EXPECT_EQ(occ.busyTime(), 10u);
    EXPECT_DOUBLE_EQ(occ.fracAtLeast(2), 1.0);
}

TEST(OccupancyTracker, ResetClears)
{
    stats::OccupancyTracker occ(4);
    occ.advance(0, 2);
    occ.advance(50, 0);
    occ.reset();
    EXPECT_EQ(occ.busyTime(), 0u);
}

TEST(Log, FatalThrows)
{
    EXPECT_THROW(DBSIM_FATAL("bad config ", 42), std::runtime_error);
}

/**
 * Warnings from parallel threads must come out as whole lines, and the
 * sink's lock is what guarantees it.  std::cerr normally writes each
 * line with one locked fwrite, which hides a missing lock, so the test
 * points std::cerr at a plain string buffer: without the lock the
 * threads race on that buffer (ThreadSanitizer reports it) and lines
 * tear.  Every captured line must be exactly one of the warnings.
 */
TEST(LogSink, ParallelWarningsLandAsWholeLines)
{
    constexpr int kThreads = 8;
    constexpr int kPerThread = 200;
    const std::string payload(120, 'x');
    auto message = [&](int t, int i) {
        return "parallel warning t" + std::to_string(t) + " #" +
               std::to_string(i) + " " + payload;
    };

    const int warn_line = __LINE__ + 1;
    auto warn = [&](int t, int i) { DBSIM_WARN(message(t, i)); };

    std::stringbuf captured_buf;
    std::streambuf *const stderr_buf = std::cerr.rdbuf(&captured_buf);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i)
                warn(t, i);
        });
    }
    for (std::thread &th : threads)
        th.join();
    std::cerr.rdbuf(stderr_buf);
    const std::string captured = captured_buf.str();

    std::vector<std::string> expected;
    for (int t = 0; t < kThreads; ++t)
        for (int i = 0; i < kPerThread; ++i)
            expected.push_back("warn: " + message(t, i) + " (" + __FILE__ +
                               ":" + std::to_string(warn_line) + ")");
    std::vector<std::string> lines;
    std::istringstream in(captured);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    ASSERT_FALSE(captured.empty());
    EXPECT_EQ(captured.back(), '\n');
    std::sort(expected.begin(), expected.end());
    std::sort(lines.begin(), lines.end());
    EXPECT_TRUE(lines == expected)
        << lines.size() << " lines captured for " << expected.size()
        << " warnings; some lines are torn or interleaved";
}

} // namespace
} // namespace dbsim
