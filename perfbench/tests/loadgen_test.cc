#include "loadgen.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace perfbench {
namespace {

TEST(ZipfProbabilities, NormalisedAndDecreasing) {
  const std::vector<double> p = ZipfProbabilities(50, 1.0);
  EXPECT_NEAR(std::accumulate(p.begin(), p.end(), 0.0), 1.0, 1e-12);
  for (std::size_t i = 1; i < p.size(); ++i) EXPECT_LT(p[i], p[i - 1]);
  EXPECT_NEAR(p[0] / p[1], 2.0, 1e-12);
}

TEST(ExpectedRepeatShare, ClosedForms) {
  // One query: every draw after the first repeats.
  EXPECT_NEAR(ExpectedRepeatShare({1.0}, 10), 0.9, 1e-12);
  // Two equally likely queries, two draws: E[distinct] = 1.5.
  EXPECT_NEAR(ExpectedRepeatShare({0.5, 0.5}, 2), 0.25, 1e-12);
  EXPECT_EQ(ExpectedRepeatShare({0.5, 0.5}, 0), 0.0);
}

TEST(MakeStep, SeededPoissonScheduleHitsItsRate) {
  const std::vector<double> p = ZipfProbabilities(100, 1.0);
  const StepSchedule a = MakeStep(200.0, 5000, p, 42);
  const StepSchedule b = MakeStep(200.0, 5000, p, 42);
  ASSERT_EQ(a.arrivals.size(), 5000u);
  for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
    EXPECT_EQ(a.arrivals[i].due_s, b.arrivals[i].due_s);
    EXPECT_EQ(a.arrivals[i].query, b.arrivals[i].query);
    if (i > 0) {
      EXPECT_GT(a.arrivals[i].due_s, a.arrivals[i - 1].due_s);
    }
  }
  const StepSchedule c = MakeStep(200.0, 5000, p, 43);
  EXPECT_NE(a.arrivals[0].due_s, c.arrivals[0].due_s);
  // 4,999 exponential gaps: the rate is within a few percent of target.
  const StepReport r = ReportStep(a, {}, p);
  EXPECT_NEAR(r.scheduled_qps, 200.0, 200.0 * 0.05);
}

TEST(ReportStep, AchievedAgainstTarget) {
  StepSchedule s;
  s.target_qps = 10.0;
  // Queries 0,1,0,2,0 at 0.1 s spacing.
  const std::size_t picks[] = {0, 1, 0, 2, 0};
  for (std::size_t i = 0; i < 5; ++i) {
    s.arrivals.push_back({0.1 * static_cast<double>(i + 1), picks[i]});
  }
  // Sent on time except the fourth, 30 ms late.
  const std::vector<double> sent = {0.1, 0.2, 0.3, 0.43, 0.5};
  const std::vector<double> p = {0.6, 0.2, 0.2};
  const StepReport r = ReportStep(s, sent, p);
  EXPECT_EQ(r.requests, 5u);
  EXPECT_EQ(r.distinct_queries, 3u);
  EXPECT_NEAR(r.achieved_repeat_share, 0.4, 1e-12);
  EXPECT_NEAR(r.expected_repeat_share, ExpectedRepeatShare(p, 5), 1e-12);
  EXPECT_NEAR(r.scheduled_qps, 10.0, 1e-9);
  EXPECT_NEAR(r.achieved_qps, 10.0, 1e-9);
  EXPECT_NEAR(r.lateness_max_ms, 30.0, 1e-9);
  // Five samples support no percentile: the tail is the maximum.
  EXPECT_NEAR(r.lateness_p99_ms, 30.0, 1e-9);
}

TEST(ReportStep, LateGeneratorShowsInAchievedRate) {
  StepSchedule s;
  s.target_qps = 100.0;
  std::vector<double> sent;
  for (std::size_t i = 0; i < 101; ++i) {
    s.arrivals.push_back({0.01 * static_cast<double>(i), 0});
    sent.push_back(0.02 * static_cast<double>(i));  // half speed
  }
  const StepReport r = ReportStep(s, sent, {1.0});
  EXPECT_NEAR(r.scheduled_qps, 100.0, 1e-9);
  EXPECT_NEAR(r.achieved_qps, 50.0, 1e-9);
  EXPECT_GT(r.lateness_p99_ms, 800.0);
}

TEST(SpecFor, NamedWorkloadsOnly) {
  WorkloadSpec spec;
  for (const char* name :
       {"pairwise-words", "knn-sdtw", "knn-dtw", "service-zipf"}) {
    ASSERT_TRUE(SpecFor(name, 1, &spec)) << name;
    EXPECT_EQ(spec.name, name);
    EXPECT_GE(spec.workers, 1u);
    EXPECT_LE(spec.workers, 2u);
  }
  EXPECT_FALSE(SpecFor("hit", 1, &spec));
  ASSERT_TRUE(SpecFor("service-zipf", 1, &spec));
  EXPECT_FALSE(spec.traffic.ladder_qps.empty());
  EXPECT_GT(spec.latency_limit_ms, 0.0);
}

TEST(Generate, SameSeedSameInputsOtherSeedOtherInputs) {
  WorkloadSpec spec;
  ASSERT_TRUE(SpecFor("service-zipf", 7, &spec));
  spec.index.num_series = 8;
  spec.num_queries = 4;
  spec.traffic.requests_per_step = 20;
  const GeneratedInputs a = Generate(spec);
  const GeneratedInputs b = Generate(spec);
  ASSERT_EQ(a.index.size(), 8u);
  ASSERT_EQ(a.queries.size(), 4u);
  EXPECT_EQ(a.index[3].values(), b.index[3].values());
  EXPECT_EQ(a.queries[2].values(), b.queries[2].values());
  ASSERT_EQ(a.steps.size(), spec.traffic.ladder_qps.size());
  EXPECT_EQ(a.steps[1].arrivals[9].due_s, b.steps[1].arrivals[9].due_s);
  // Queries come from another seed than the index.
  EXPECT_NE(a.queries[0].values(), a.index[0].values());

  WorkloadSpec other;
  ASSERT_TRUE(SpecFor("service-zipf", 8, &other));
  other.index.num_series = 8;
  other.num_queries = 4;
  other.traffic.requests_per_step = 20;
  const GeneratedInputs c = Generate(other);
  EXPECT_NE(a.index[0].values(), c.index[0].values());
  EXPECT_NE(a.steps[0].arrivals[0].due_s, c.steps[0].arrivals[0].due_s);
}

}  // namespace
}  // namespace perfbench
