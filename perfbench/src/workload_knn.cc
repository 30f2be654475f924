// knn-sdtw / knn-dtw: batch kNN (k = 5) over a 2,000 × 256 TraceLike index
// with a pinned two-worker pool, queried by distinct series drawn from
// another seed. knn-sdtw is the served retrieval path — nearly every
// candidate pays for a band build and an abandoned DP. knn-dtw runs the
// same index and queries under exact DTW, the only workload that reaches
// dtw/lower_bounds (LB_Keogh) and the unbanded kernel, and it bypasses
// sift, align and core entirely.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>

#include "dtw/dtw.h"
#include "retrieval/batch.h"
#include "retrieval/service.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace rt = sdtw::retrieval;

constexpr std::size_t kBruteForceQueries = 4;

// One pass: every query once, in batches of spec.batch_size. Appends the
// time of the i-th QueryBatch call, rescaled to the reference host, to
// call_s[i], and its wall time to wall_s[i].
std::vector<std::vector<rt::Hit>> RunPass(
    const rt::BatchKnnEngine& engine, const std::vector<ts::TimeSeries>& qs,
    const WorkloadSpec& spec, std::vector<rt::QueryStats>* stats,
    Tracer& tracer, TimingExecutor* timing, Rescaler& speed,
    std::vector<std::vector<double>>& call_s,
    std::vector<std::vector<double>>& wall_s) {
  std::vector<std::vector<rt::Hit>> hits;
  hits.reserve(qs.size());
  for (std::size_t b = 0; b < qs.size(); b += spec.batch_size) {
    const std::size_t len = std::min(spec.batch_size, qs.size() - b);
    const auto t0 = Clock::now();
    const ScopedSpan span(tracer, "retrieval.query_batch", kNoSpan, b);
    if (timing != nullptr) timing->set_parent(span.id());
    std::vector<rt::QueryStats> batch_stats;
    auto batch = engine.QueryBatch(
        std::span<const ts::TimeSeries>(qs).subspan(b, len), spec.k,
        stats != nullptr ? &batch_stats : nullptr);
    for (auto& h : batch) hits.push_back(std::move(h));
    if (stats != nullptr) {
      stats->insert(stats->end(), batch_stats.begin(), batch_stats.end());
    }
    const double call_wall_s = SecondsSince(t0);
    call_s[b / spec.batch_size].push_back(speed.Rescale(call_wall_s));
    wall_s[b / spec.batch_size].push_back(call_wall_s);
  }
  return hits;
}

// Seconds per pass: the sum over call positions of each position's median,
// so a slow interval on the machine skews one sample, not the pass.
double PassSeconds(const std::vector<std::vector<double>>& call_s) {
  double total = 0.0;
  for (const std::vector<double>& samples : call_s) total += Median(samples);
  return total;
}

// Exact distances of `query` against every indexed series, by the
// configured distance, without any pruning.
std::vector<double> BruteForceRow(const sdtw::core::Sdtw& engine,
                                  rt::DistanceKind kind,
                                  const ts::TimeSeries& query,
                                  const ts::Dataset& index,
                                  const std::vector<std::vector<
                                      sdtw::sift::Keypoint>>& features) {
  std::vector<double> row(index.size());
  const auto query_features = kind == rt::DistanceKind::kSdtw
                                  ? engine.ExtractFeatures(query)
                                  : std::vector<sdtw::sift::Keypoint>{};
  const auto cost = engine.options().dtw.cost;
  for (std::size_t i = 0; i < index.size(); ++i) {
    if (kind == rt::DistanceKind::kSdtw) {
      const sdtw::dtw::Band band =
          engine.BuildBand(query, query_features, index[i], features[i]);
      row[i] = sdtw::dtw::DtwBandedDistance(query, index[i], band, cost);
    } else {
      row[i] = sdtw::dtw::DtwDistance(query, index[i], cost);
    }
  }
  return row;
}

}  // namespace

void RunKnn(const WorkloadSpec& spec, const RunConfig& config,
            rt::DistanceKind kind, Tracer& tracer, RunResult& result) {
  const GeneratedInputs in = Generate(spec);
  const std::vector<ts::TimeSeries>& queries = in.queries;
  rt::KnnOptions options;
  options.distance = kind;
  const bool sdtw_mode = kind == rt::DistanceKind::kSdtw;

  // Host speed, read by the yardstick on the pool's workers between
  // QueryBatch calls.
  rt::WorkerPool pool(spec.workers);
  Rescaler speed([&pool] { return YardstickCellSeconds(pool); });

  // Set-up: KnnEngine::Index (features, envelopes, summaries).
  // The engines below refer to `index`; every set-up rebuilds it in place.
  rt::KnnEngine index(options);
  SetupSampler setup([&] {
    const auto t0 = Clock::now();
    index.Index(in.index);
    return SecondsSince(t0);
  }, speed);

  rt::BatchOptions plain_options;
  plain_options.executor = &pool;
  const rt::BatchKnnEngine plain(index, plain_options);
  TimingExecutor timing(pool, tracer);
  rt::BatchOptions timed_options;
  timed_options.executor = &timing;
  const rt::BatchKnnEngine traced_engine(index, timed_options);

  // Timed: whole passes over the query set. A traced run alternates
  // untraced passes with traced ones (spans, the timing executor and
  // per-query cascade counters). Every pass must reproduce the first.
  Tracer off(false);
  std::vector<std::vector<rt::Hit>> first;
  const std::size_t calls_per_pass =
      (queries.size() + spec.batch_size - 1) / spec.batch_size;
  std::vector<std::vector<double>> untraced_s(calls_per_pass),
      traced_s(calls_per_pass), untraced_wall_s(calls_per_pass),
      traced_wall_s(calls_per_pass);
  std::vector<rt::QueryStats> stats;
  std::size_t passes = 0, traced_passes = 0;
  const auto budget_start = Clock::now();
  for (std::size_t rep = 0;
       rep < 3 || SecondsSince(budget_start) < config.seconds; ++rep) {
    const bool traced = config.trace && rep % 2 == 1;
    auto hits = traced ? RunPass(traced_engine, queries, spec,
                                 stats.empty() ? &stats : nullptr, tracer,
                                 &timing, speed, traced_s, traced_wall_s)
                       : RunPass(plain, queries, spec, nullptr, off, nullptr,
                                 speed, untraced_s, untraced_wall_s);
    ++(traced ? traced_passes : passes);
    setup.After(PassSeconds(traced ? traced_s : untraced_s));
    result.attempted += queries.size();
    if (rep == 0) {
      first = std::move(hits);
    } else {
      for (std::size_t q = 0; q < queries.size(); ++q) {
        if (!SameHits(hits[q], first[q])) {
          result.Fail("pass " + std::to_string(rep) + " query " +
                      std::to_string(q) + " differs from the first pass");
          break;
        }
      }
    }
  }
  // Peak memory of set-up and the timed calls, before the checks allocate.
  result.Set("peak_rss_mb", PeakRssMb());
  result.Set("setup_s", setup.Median());
  const double pass_s = PassSeconds(untraced_s);
  const double qps = static_cast<double>(queries.size()) / pass_s;
  result.Set("throughput_ref_per_s", qps);
  const double wall_pass_s = PassSeconds(untraced_wall_s);
  const double wall_qps = static_cast<double>(queries.size()) / wall_pass_s;
  SetHostMetrics(speed, setup, wall_qps, result);
  std::printf("%s: %zu x %zu index, %zu queries in batches of %zu, k=%zu, "
              "%zu workers: %.4f s per pass over %zu passes (%.2f q/s; on "
              "the reference host %.2f q/s)\n",
              spec.name.c_str(), in.index.size(), spec.index.length,
              queries.size(), spec.batch_size, spec.k, spec.workers,
              wall_pass_s, passes, wall_qps, qps);

  // Check: a sample of queries against a brute-force scan.
  const sdtw::core::Sdtw engine(options.sdtw);
  std::vector<std::vector<sdtw::sift::Keypoint>> features;
  if (sdtw_mode) {
    for (const ts::TimeSeries& s : in.index) {
      features.push_back(engine.ExtractFeatures(s));
    }
  }
  for (std::size_t s = 0; s < kBruteForceQueries; ++s) {
    const std::size_t q = s * queries.size() / kBruteForceQueries;
    const auto row = BruteForceRow(engine, kind, queries[q], in.index,
                                   features);
    if (!SameHits(TopKOf(row, spec.k, in.index), first[q])) {
      result.Fail("query " + std::to_string(q) +
                  " hits differ from the brute-force scan");
    }
  }
  result.attempted += kBruteForceQueries;

  SetQualityMetrics(first, queries, in.index, spec.k, pool, result);

  if (!config.trace) return;

  // Per-layer: cascade counters of the first traced pass, the timing
  // executor over every traced pass, and the first query against a
  // sample of candidates, one layer call at a time.
  SetCascadeMetrics(stats, sdtw_mode, result);
  double traced_total = 0.0;
  for (const std::vector<double>& samples : traced_s) {
    for (double s : samples) traced_total += s;
  }
  SetBatchMetrics(timing.totals(), traced_total,
                  traced_passes * calls_per_pass, result);
  const std::vector<ts::TimeSeries> index_series(in.index.begin(),
                                                 in.index.end());
  SetLayerMetricsFromSample(engine, queries[0], index_series, sdtw_mode,
                            tracer, result);
  result.Set("trace.overhead_ratio", PassSeconds(traced_s) / pass_s - 1.0);
}

}  // namespace perfbench
