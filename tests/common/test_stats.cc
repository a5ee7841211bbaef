/**
 * @file
 * Statistics primitives.
 */

#include <gtest/gtest.h>

#include "common/stats.h"

namespace {

using sd::Counter;
using sd::Histogram;

TEST(Stats, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(5);
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, HistogramBuckets)
{
    Histogram h(0, 10, 10);
    for (int i = 0; i < 10; ++i)
        h.sample(i + 0.5);
    for (std::size_t i = 0; i < 10; ++i)
        EXPECT_EQ(h.buckets()[i], 1u);
    EXPECT_EQ(h.count(), 10u);
    EXPECT_NEAR(h.mean(), 5.0, 0.01);
}

TEST(Stats, HistogramClampsOutOfRange)
{
    Histogram h(0, 10, 10);
    h.sample(-5);
    h.sample(100);
    EXPECT_EQ(h.buckets().front(), 1u);
    EXPECT_EQ(h.buckets().back(), 1u);
}

TEST(Stats, HistogramPercentiles)
{
    Histogram h(0, 100, 100);
    for (int i = 0; i < 100; ++i)
        h.sample(i + 0.5);
    EXPECT_NEAR(h.percentile(0.5), 50.0, 2.0);
    EXPECT_NEAR(h.percentile(0.99), 99.0, 2.0);
}

} // namespace
