#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_
/// \file stats.h
/// \brief The benchmark's metric arithmetic: medians, the supported-tail
/// percentile rule, open-loop backlog detection and the max-rate ladder.
///
/// Pure functions over plain vectors, so every rule here is unit-tested on
/// synthetic inputs (perfbench/tests/stats_test.cc).

#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Median of the samples (mean of the two middle values for an even
/// count); NaN when empty.
double Median(std::vector<double> samples);

/// \brief A nearest-rank percentile (the value at rank ceil(p/100 · n) of
/// the sorted samples) together with the evidence behind it.
struct Tail {
  double percentile = 0.0;  ///< 0 when no percentile is supported.
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;   ///< Samples strictly ranked above `value`.
};

/// The highest nearest-rank percentile that leaves at least `min_beyond`
/// samples ranked above it: p = 100 · (n − min_beyond) / n. With 1,000
/// samples and min_beyond = 10 that is p99. Fewer than min_beyond + 1
/// samples support no percentile (percentile = 0, value = NaN).
Tail HighestSupportedTail(std::vector<double> samples,
                          std::size_t min_beyond = 10);

/// The requested percentile when the sample count supports it (at least
/// `min_beyond` samples ranked above it), else the highest supported one,
/// so a caller never reports a p99 that rests on fewer than ten samples.
Tail SupportedPercentile(std::vector<double> samples, double p,
                         std::size_t min_beyond = 10);

/// Least-squares slope of latency against due time, in ms of latency per
/// second of schedule. A queue that keeps up has slope ≈ 0; an overloaded
/// one grows latency linearly with time. Infinite latencies (failed or
/// refused requests) are skipped; fewer than two finite points give 0.
double BacklogSlope(const std::vector<double>& due_s,
                    const std::vector<double>& latency_ms);

/// \brief One step of the open-loop rate ladder.
struct StepResult {
  double offered_qps = 0.0;
  double duration_s = 0.0;      ///< Span of the step's schedule.
  std::vector<double> due_s;    ///< Per request, relative to step start.
  std::vector<double> latency_ms;  ///< Due → ready; +inf when failed.
};

/// \brief What the ladder rule concluded about one step.
struct StepVerdict {
  Tail p50;
  Tail p99;
  double backlog_slope = 0.0;  ///< ms per s.
  bool growing_backlog = false;
  bool meets_limit = false;
};

/// A step has a growing backlog when its fitted latency rises by more than
/// a quarter of the limit over the step.
StepVerdict JudgeStep(const StepResult& step, double limit_ms);

/// \brief The ladder's answer.
struct MaxRate {
  /// Highest offered rate of the passing prefix of the ladder (0 when the
  /// first step already fails).
  double ladder_qps = 0.0;
  /// ladder_qps refined between the last passing and the first failing
  /// step by linear interpolation of p99 against offered rate to where it
  /// crosses the limit; equals ladder_qps when every step passes or the
  /// failing step's p99 is not finite.
  double interpolated_qps = 0.0;
  int last_passing = -1;  ///< Index of the last passing step, -1 if none.
};

/// Walks the ladder in ascending rate order and stops at the first step
/// that misses the p99 limit or shows a growing backlog.
MaxRate FindMaxRate(const std::vector<StepResult>& steps, double limit_ms);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
