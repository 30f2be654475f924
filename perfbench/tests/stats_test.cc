#include "stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneTo(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_TRUE(std::isnan(Median({})));
}

TEST(SupportedPercentile, NearestRankDefinition) {
  EXPECT_EQ(SupportedPercentile(OneTo(1000), 50).value, 500.0);
  EXPECT_EQ(SupportedPercentile(OneTo(1000), 99).value, 990.0);
  EXPECT_EQ(SupportedPercentile(OneTo(1000), 99).beyond, 10u);
}

TEST(HighestSupportedTail, ThousandSamplesSupportP99WithTenBeyond) {
  const Tail t = HighestSupportedTail(OneTo(1000));
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 1000u);
}

TEST(HighestSupportedTail, FewerSamplesSupportALowerPercentile) {
  const Tail t = HighestSupportedTail(OneTo(100));
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.value, 90.0);
  EXPECT_EQ(t.beyond, 10u);
}

TEST(HighestSupportedTail, TenOrFewerSamplesSupportNothing) {
  const Tail t = HighestSupportedTail(OneTo(10));
  EXPECT_EQ(t.percentile, 0.0);
  EXPECT_TRUE(std::isnan(t.value));
  EXPECT_EQ(HighestSupportedTail(OneTo(11)).beyond, 10u);
}

TEST(SupportedPercentile, FallsBackToTheHighestSupported) {
  EXPECT_DOUBLE_EQ(SupportedPercentile(OneTo(2000), 99).percentile, 99.0);
  EXPECT_EQ(SupportedPercentile(OneTo(2000), 99).value, 1980.0);
  const Tail t = SupportedPercentile(OneTo(500), 99);
  EXPECT_DOUBLE_EQ(t.percentile, 98.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_DOUBLE_EQ(SupportedPercentile(OneTo(500), 50).percentile, 50.0);
}

TEST(SupportedPercentile, FailedRequestsCountAsInfinite) {
  std::vector<double> v(1000, 5.0);
  for (std::size_t i = 0; i < 11; ++i) v[i] = kInf;
  EXPECT_TRUE(std::isinf(SupportedPercentile(v, 99).value));
  v[0] = 5.0;  // ten failures: exactly the ten samples beyond p99
  EXPECT_EQ(SupportedPercentile(v, 99).value, 5.0);
}

// A step of `n` requests at `qps` whose latency is base + slope · t.
StepResult SyntheticStep(double qps, std::size_t n, double base_ms,
                         double slope_ms_per_s) {
  StepResult s;
  s.offered_qps = qps;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / qps;
    s.due_s.push_back(t);
    // Deterministic jitter so p99 sits above the median.
    s.latency_ms.push_back(base_ms + slope_ms_per_s * t +
                           static_cast<double>(i % 100) * 0.01 * base_ms);
  }
  s.duration_s = s.due_s.back();
  return s;
}

TEST(BacklogSlope, FlatAndGrowing) {
  const StepResult flat = SyntheticStep(100, 1000, 5.0, 0.0);
  EXPECT_NEAR(BacklogSlope(flat.due_s, flat.latency_ms), 0.0, 0.05);
  const StepResult growing = SyntheticStep(100, 1000, 5.0, 40.0);
  EXPECT_NEAR(BacklogSlope(growing.due_s, growing.latency_ms), 40.0, 0.5);
  EXPECT_EQ(BacklogSlope({1.0}, {2.0}), 0.0);
}

TEST(JudgeStep, GrowingBacklogFailsEvenUnderTheLimit) {
  // Latency grows 2 ms/s over a 10 s step: 20 ms of growth, above a
  // quarter of a 50 ms limit, while p99 stays under the limit.
  const StepResult s = SyntheticStep(100, 1000, 2.0, 2.0);
  const StepVerdict v = JudgeStep(s, 50.0);
  EXPECT_LT(v.p99.value, 50.0);
  EXPECT_TRUE(v.growing_backlog);
  EXPECT_FALSE(v.meets_limit);
  EXPECT_TRUE(JudgeStep(SyntheticStep(100, 1000, 2.0, 0.0), 50.0).meets_limit);
}

TEST(JudgeStep, TooFewSamplesCannotCertifyP99) {
  const StepVerdict v = JudgeStep(SyntheticStep(100, 500, 2.0, 0.0), 50.0);
  EXPECT_LT(v.p99.percentile, 99.0);
  EXPECT_FALSE(v.meets_limit);
}

TEST(FindMaxRate, StopsAtTheFirstFailingStep) {
  const std::vector<StepResult> steps = {
      SyntheticStep(100, 1000, 5.0, 0.0),   // p99 = 9.9 ms
      SyntheticStep(200, 1000, 10.0, 0.0),  // p99 = 19.8 ms
      SyntheticStep(300, 1000, 40.0, 0.0),  // p99 = 79.2 ms: fails
      SyntheticStep(400, 1000, 5.0, 0.0),   // passes, but after a failure
  };
  const MaxRate m = FindMaxRate(steps, 30.0);
  EXPECT_EQ(m.last_passing, 1);
  EXPECT_EQ(m.ladder_qps, 200.0);
  // p99 19.8 → 79.2 crosses 30 at (30 − 19.8) / (79.2 − 19.8) of the way
  // from 200 to 300.
  EXPECT_NEAR(m.interpolated_qps, 200.0 + 100.0 * 10.2 / 59.4, 1e-6);
}

TEST(FindMaxRate, BacklogEndsTheLadderWithoutInterpolation) {
  const std::vector<StepResult> steps = {
      SyntheticStep(100, 1000, 5.0, 0.0),
      // 50 ms of growth over the 5 s step, above a quarter of the limit,
      // while p99 (≈ 54 ms) stays under it.
      SyntheticStep(200, 1000, 2.0, 10.0),
  };
  const MaxRate m = FindMaxRate(steps, 100.0);
  EXPECT_EQ(m.last_passing, 0);
  EXPECT_EQ(m.ladder_qps, 100.0);
  EXPECT_EQ(m.interpolated_qps, 100.0);
}

TEST(FindMaxRate, AllPassAndNonePass) {
  const std::vector<StepResult> ok = {SyntheticStep(100, 1000, 1.0, 0.0),
                                      SyntheticStep(200, 1000, 1.0, 0.0)};
  EXPECT_EQ(FindMaxRate(ok, 10.0).interpolated_qps, 200.0);
  const MaxRate none = FindMaxRate(ok, 0.5);
  EXPECT_EQ(none.last_passing, -1);
  EXPECT_EQ(none.ladder_qps, 0.0);
  EXPECT_EQ(none.interpolated_qps, 0.0);
}

}  // namespace
}  // namespace perfbench
