#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return std::nan("");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

// Rank (1-based) of the nearest-rank p-th percentile among n samples.
std::size_t NearestRankIndex(std::size_t n, double p) {
  const double exact = p / 100.0 * static_cast<double>(n);
  // Guard against 99.0/100*1000 landing a hair above 990.
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

Tail TailAt(const std::vector<double>& sorted, double p) {
  Tail t;
  t.samples = sorted.size();
  const std::size_t rank = NearestRankIndex(sorted.size(), p);
  t.percentile = p;
  t.value = sorted[rank - 1];
  t.beyond = sorted.size() - rank;
  return t;
}

}  // namespace

Tail HighestSupportedTail(std::vector<double> samples,
                          std::size_t min_beyond) {
  Tail t;
  t.samples = samples.size();
  if (samples.size() <= min_beyond) {
    t.value = std::nan("");
    return t;
  }
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  return TailAt(samples,
                100.0 * (n - static_cast<double>(min_beyond)) / n);
}

Tail SupportedPercentile(std::vector<double> samples, double p,
                         std::size_t min_beyond) {
  Tail best = HighestSupportedTail(samples, min_beyond);
  if (best.percentile == 0.0 || best.percentile < p) return best;
  std::sort(samples.begin(), samples.end());
  return TailAt(samples, p);
}

double BacklogSlope(const std::vector<double>& due_s,
                    const std::vector<double>& latency_ms) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < due_s.size() && i < latency_ms.size(); ++i) {
    if (!std::isfinite(latency_ms[i])) continue;
    sx += due_s[i];
    sy += latency_ms[i];
    sxx += due_s[i] * due_s[i];
    sxy += due_s[i] * latency_ms[i];
    ++n;
  }
  if (n < 2) return 0.0;
  const double dn = static_cast<double>(n);
  const double var = sxx - sx * sx / dn;
  if (var <= 0.0) return 0.0;
  return (sxy - sx * sy / dn) / var;
}

StepVerdict JudgeStep(const StepResult& step, double limit_ms) {
  StepVerdict v;
  v.p50 = SupportedPercentile(step.latency_ms, 50.0);
  v.p99 = SupportedPercentile(step.latency_ms, 99.0);
  v.backlog_slope = BacklogSlope(step.due_s, step.latency_ms);
  v.growing_backlog = v.backlog_slope * step.duration_s > 0.25 * limit_ms;
  // A p99 that rests on fewer samples than the percentile needs cannot
  // certify the limit.
  v.meets_limit = v.p99.percentile >= 99.0 && v.p99.value <= limit_ms &&
                  !v.growing_backlog;
  return v;
}

MaxRate FindMaxRate(const std::vector<StepResult>& steps, double limit_ms) {
  MaxRate out;
  double last_p99 = 0.0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const StepVerdict v = JudgeStep(steps[i], limit_ms);
    if (!v.meets_limit) {
      if (out.last_passing >= 0 && std::isfinite(v.p99.value) &&
          v.p99.value > limit_ms && v.p99.value > last_p99) {
        const double lo = steps[i - 1].offered_qps;
        const double hi = steps[i].offered_qps;
        const double frac = (limit_ms - last_p99) / (v.p99.value - last_p99);
        out.interpolated_qps = lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
      }
      return out;
    }
    out.last_passing = static_cast<int>(i);
    out.ladder_qps = steps[i].offered_qps;
    out.interpolated_qps = out.ladder_qps;
    last_p99 = v.p99.value;
  }
  return out;
}

}  // namespace perfbench
