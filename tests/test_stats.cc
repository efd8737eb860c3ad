/**
 * @file
 * Unit tests for RunningStat.
 */

#include <gtest/gtest.h>

#include <limits>

#include "src/sim/stats.h"

namespace bauvm
{
namespace
{

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStat, TracksMinMaxMeanSum)
{
    RunningStat s;
    for (double v : {4.0, 1.0, 7.0})
        s.add(v);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_EQ(s.min(), 1.0);
    EXPECT_EQ(s.max(), 7.0);
    EXPECT_DOUBLE_EQ(s.sum(), 12.0);
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
}

TEST(RunningStat, MergeCombines)
{
    RunningStat a, b;
    a.add(1.0);
    a.add(2.0);
    b.add(10.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.max(), 10.0);
    EXPECT_EQ(a.min(), 1.0);
}

TEST(RunningStat, ResetClears)
{
    RunningStat s;
    s.add(5.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}

TEST(RunningStat, NonFiniteSamplesAreTalliedNotFolded)
{
    RunningStat s;
    s.add(1.0);
    s.add(std::numeric_limits<double>::quiet_NaN());
    s.add(std::numeric_limits<double>::infinity());
    s.add(-std::numeric_limits<double>::infinity());
    s.add(3.0);
    // A single NaN must not poison mean/min/max/sum.
    EXPECT_EQ(s.count(), 2u);
    EXPECT_EQ(s.nonfiniteCount(), 3u);
    EXPECT_DOUBLE_EQ(s.sum(), 4.0);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_EQ(s.min(), 1.0);
    EXPECT_EQ(s.max(), 3.0);
}

TEST(RunningStat, MergePropagatesNonfiniteCount)
{
    RunningStat a, b;
    a.add(std::numeric_limits<double>::quiet_NaN());
    b.add(2.0);
    b.add(std::numeric_limits<double>::infinity());
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    EXPECT_EQ(a.nonfiniteCount(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

} // namespace
} // namespace bauvm
