#include "loadgen.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <set>

#include "data/generators.h"
#include "stats.h"

namespace perfbench {

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool SpecFor(std::string_view workload, std::uint64_t seed,
             WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = std::string(workload);
  s.query_seed = DeriveSeed(seed, 1);
  if (workload == "pairwise-words") {
    // The paper's own operation: the all-pairs sDTW matrix, one thread.
    s.index = {Family::kWordsLike, 120, 270, DeriveSeed(seed, 0)};
    s.workers = 1;
  } else if (workload == "knn-sdtw" || workload == "knn-dtw") {
    // Series + features + envelopes of 2,000 × 256 exceed L2. How much
    // LB_Keogh prunes depends on the queries: with 64 of them, the seed
    // alone moved knn-dtw throughput by ±9%; 128 average more of it out.
    s.index = {Family::kTraceLike, 2000, 256, DeriveSeed(seed, 0)};
    s.num_queries = 128;
    s.batch_size = 16;
    s.workers = 2;
  } else if (workload == "service-zipf") {
    // The pool is four times the service's default derivative-cache
    // capacity (ServiceOptions::cache_capacity = 256), so only the popular
    // head fits: the tail takes the miss path (query feature extraction,
    // cache fill) and evicts. Popularity is Zipf's law in its plain form,
    // rank r drawn with probability ∝ 1/r, which puts about 80% of the
    // draws on the 256 most popular queries. A burst is bench_service's
    // default stream of 512 requests.
    s.index = {Family::kTraceLike, 500, 128, DeriveSeed(seed, 0)};
    s.num_queries = 1024;
    s.workers = 2;
    s.traffic.ladder_qps = {75, 150, 225};
    s.traffic.requests_per_step = 1000;
    s.traffic.burst_requests = 512;
    s.traffic.zipf_exponent = 1.0;
    s.traffic.seed = DeriveSeed(seed, 2);
    s.latency_limit_ms = 100.0;
  } else {
    return false;
  }
  *spec = std::move(s);
  return true;
}

ts::Dataset MakeDataset(const DatasetSpec& spec) {
  sdtw::data::GeneratorOptions options;
  options.num_series = spec.num_series;
  options.length = spec.length;
  options.seed = spec.seed;
  return spec.family == Family::kWordsLike
             ? sdtw::data::MakeWordsLike(options)
             : sdtw::data::MakeTraceLike(options);
}

std::vector<double> ZipfProbabilities(std::size_t pool, double exponent) {
  std::vector<double> p(pool);
  double total = 0.0;
  for (std::size_t r = 0; r < pool; ++r) {
    p[r] = std::pow(static_cast<double>(r + 1), -exponent);
    total += p[r];
  }
  for (double& v : p) v /= total;
  return p;
}

StepSchedule MakeStep(double qps, std::size_t n,
                      const std::vector<double>& probs, std::uint64_t seed) {
  StepSchedule step;
  step.target_qps = qps;
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(qps);
  std::discrete_distribution<std::size_t> pick(probs.begin(), probs.end());
  double t = 0.0;
  step.arrivals.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    t += gap(rng);
    step.arrivals.push_back({t, pick(rng)});
  }
  return step;
}

StepSchedule MakeBurst(std::size_t n, const std::vector<double>& probs,
                       std::uint64_t seed) {
  StepSchedule burst;
  burst.target_qps = kInf;
  std::mt19937_64 rng(seed);
  std::discrete_distribution<std::size_t> pick(probs.begin(), probs.end());
  for (std::size_t i = 0; i < n; ++i) {
    burst.arrivals.push_back({0.0, pick(rng)});
  }
  return burst;
}

GeneratedInputs Generate(const WorkloadSpec& spec) {
  GeneratedInputs in;
  in.index = MakeDataset(spec.index);
  if (spec.num_queries > 0) {
    DatasetSpec qspec = spec.index;
    qspec.num_series = spec.num_queries;
    qspec.seed = spec.query_seed;
    const ts::Dataset queries = MakeDataset(qspec);
    in.queries.assign(queries.begin(), queries.end());
  }
  const TrafficSpec& traffic = spec.traffic;
  if (!traffic.ladder_qps.empty()) {
    const std::vector<double> probs =
        ZipfProbabilities(in.queries.size(), traffic.zipf_exponent);
    for (std::size_t i = 0; i < traffic.ladder_qps.size(); ++i) {
      in.steps.push_back(MakeStep(traffic.ladder_qps[i],
                                  traffic.requests_per_step, probs,
                                  DeriveSeed(traffic.seed, i)));
    }
  }
  return in;
}

double ExpectedRepeatShare(const std::vector<double>& probs, std::size_t n) {
  if (n == 0) return 0.0;
  double distinct = 0.0;
  for (double p : probs) {
    distinct += 1.0 - std::pow(1.0 - p, static_cast<double>(n));
  }
  return 1.0 - distinct / static_cast<double>(n);
}

namespace {

double RatePerSpan(std::size_t n, double span_s) {
  return n > 1 && span_s > 0.0 ? static_cast<double>(n - 1) / span_s : 0.0;
}

}  // namespace

StepReport ReportStep(const StepSchedule& step,
                      const std::vector<double>& sent_s,
                      const std::vector<double>& probs) {
  StepReport r;
  r.target_qps = step.target_qps;
  r.requests = step.arrivals.size();
  if (r.requests == 0) return r;
  std::set<std::size_t> seen;
  for (const Arrival& a : step.arrivals) seen.insert(a.query);
  r.distinct_queries = seen.size();
  r.expected_repeat_share = ExpectedRepeatShare(probs, r.requests);
  r.achieved_repeat_share =
      1.0 - static_cast<double>(r.distinct_queries) /
                static_cast<double>(r.requests);
  // n arrivals span n − 1 gaps after the first.
  r.scheduled_qps = RatePerSpan(
      r.requests, step.arrivals.back().due_s - step.arrivals.front().due_s);
  if (sent_s.size() == r.requests) {
    r.achieved_qps = RatePerSpan(r.requests, sent_s.back() - sent_s.front());
    std::vector<double> late_ms(r.requests);
    for (std::size_t i = 0; i < r.requests; ++i) {
      late_ms[i] = 1e3 * (sent_s[i] - step.arrivals[i].due_s);
    }
    r.lateness_max_ms = *std::max_element(late_ms.begin(), late_ms.end());
    const Tail tail = HighestSupportedTail(late_ms);
    r.lateness_p99_ms =
        tail.percentile > 0.0 ? tail.value : r.lateness_max_ms;
  }
  return r;
}

}  // namespace perfbench
