// pairwise-words: the all-pairs sDTW matrix over WordsLike series, one
// thread, default ac,aw options — the paper's own operation and its
// Figure 17 split. No cascade and no threads run, so the workload
// isolates align, core and dtw; it is also where the accuracy trade-off
// against exact DTW shows.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "dtw/dtw.h"
#include "eval/experiment.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kBitwiseSamplePairs = 64;

}  // namespace

void RunPairwise(const WorkloadSpec& spec, const RunConfig& config,
                 Tracer& tracer, RunResult& result) {
  const ts::Dataset data = MakeDataset(spec.index);
  const std::vector<ts::TimeSeries> series(data.begin(), data.end());
  const std::size_t n = series.size();
  const std::size_t pairs = n * (n - 1) / 2;
  sdtw::core::SdtwOptions options;  // the paper's default ac,aw
  options.dtw.want_path = false;
  const sdtw::core::Sdtw engine(options);

  // Host speed, read by the yardstick between timed units.
  Rescaler speed([] { return YardstickCellSeconds(); });

  // Set-up: salient features over the whole set, ready to compare.
  std::vector<std::vector<sdtw::sift::Keypoint>> features;
  SetupSampler setup([&] {
    const auto t0 = Clock::now();
    features.clear();
    for (const ts::TimeSeries& s : series) {
      features.push_back(engine.ExtractFeatures(s));
    }
    return SecondsSince(t0);
  }, speed);

  // Timed: the sDTW matrix, repeated for the run's budget. Every repeat
  // must reproduce the first bitwise. A traced run alternates untraced
  // and traced (span-wrapped) repeats for the tracing overhead. Times are
  // kept rescaled to the reference host, and as measured.
  sdtw::eval::DistanceMatrix first;
  std::vector<double> untraced_s, traced_s, wall_s;
  Tracer off(false);
  const auto budget_start = Clock::now();
  for (std::size_t rep = 0;
       rep < 4 || SecondsSince(budget_start) < config.seconds; ++rep) {
    const bool traced = config.trace && rep % 2 == 1;
    const auto t0 = Clock::now();
    sdtw::eval::DistanceMatrix m;
    {
      const ScopedSpan span(traced ? tracer : off, "eval.sdtw_matrix");
      m = sdtw::eval::ComputeSdtwMatrix(data, options);
    }
    const double matrix_wall_s = SecondsSince(t0);
    const double matrix_s = speed.Rescale(matrix_wall_s);
    (traced ? traced_s : untraced_s).push_back(matrix_s);
    if (!traced) wall_s.push_back(matrix_wall_s);
    setup.After(matrix_s);
    result.attempted += pairs;
    if (rep == 0) {
      first = std::move(m);
    } else if (m.distance != first.distance ||
               m.cells_filled != first.cells_filled) {
      result.Fail("sDTW matrix repeat " + std::to_string(rep) +
                  " differs from the first");
    }
  }
  // Peak memory of set-up and the timed calls, before the checks allocate.
  result.Set("peak_rss_mb", PeakRssMb());
  result.Set("setup_s", setup.Median());
  const double pairs_per_s =
      static_cast<double>(pairs) / Median(untraced_s);
  result.Set("throughput_ref_per_s", pairs_per_s);
  SetHostMetrics(speed, setup, static_cast<double>(pairs) / Median(wall_s),
                 result);

  // Untimed exact-DTW reference.
  const auto ref_t0 = Clock::now();
  const sdtw::eval::DistanceMatrix reference =
      sdtw::eval::ComputeFullDtwMatrix(data);
  const double reference_s = SecondsSince(ref_t0);
  std::printf("pairwise-words: %zu series x %zu, %zu pairs, matrix median "
              "%.4f s over %zu repeats (%.0f pairs/s; on the reference "
              "host %.0f pairs/s); exact DTW %.3f s\n",
              n, spec.index.length, pairs, Median(wall_s), wall_s.size(),
              static_cast<double>(pairs) / Median(wall_s), pairs_per_s,
              reference_s);

  // Checks: sDTW never undercuts exact DTW, and BuildBand + the banded
  // kernel reproduces Compare bitwise on a sample of pairs.
  std::size_t below = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (first.At(i, j) < reference.At(i, j)) ++below;
    }
  }
  if (below > 0) {
    result.Fail(std::to_string(below) +
                " sDTW distances below the exact DTW distance");
  }
  std::vector<PairRef> sample;
  for (std::size_t s = 0; s < kBitwiseSamplePairs; ++s) {
    const std::size_t a = (s * 37) % n;
    const std::size_t b = (a + 1 + (s * 53) % (n - 1)) % n;
    sample.push_back({std::min(a, b), std::max(a, b)});
  }
  for (const PairRef& p : sample) {
    const sdtw::dtw::Band band = engine.BuildBand(
        series[p.x], features[p.x], series[p.y], features[p.y]);
    const double d = sdtw::dtw::DtwBandedDistance(series[p.x], series[p.y],
                                                  band, options.dtw.cost);
    if (d != first.At(p.x, p.y)) {
      result.Fail("BuildBand + DtwBandedDistance differs from Compare at (" +
                  std::to_string(p.x) + ", " + std::to_string(p.y) + ")");
    }
  }
  result.attempted += sample.size();

  const sdtw::eval::AlgorithmMetrics quality =
      sdtw::eval::ComputeMetrics("ac,aw", data, reference, first);
  result.Set("top5_accuracy", quality.retrieval_accuracy_top5);
  result.Set("distance_ratio", 1.0 + quality.distance_error);
  std::printf("pairwise-words: distance_error %.6f, top5_accuracy %.6f, "
              "cells_filled %zu\n",
              quality.distance_error, quality.retrieval_accuracy_top5,
              first.cells_filled);

  if (!config.trace) return;

  // Per-layer: sift over the set, then every pair decomposed into its
  // align / core / dtw calls.
  std::size_t keypoints = 0;
  const auto sift_t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const ScopedSpan span(tracer, "sift.extract", kNoSpan, i);
    keypoints += engine.ExtractFeatures(series[i]).size();
  }
  result.Set("sift.extract_us_per_series",
             1e6 * SecondsSince(sift_t0) / static_cast<double>(n));
  result.Set("sift.keypoints_per_series",
             static_cast<double>(keypoints) / static_cast<double>(n));

  std::vector<PairRef> all;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) all.push_back({i, j});
  }
  PairLayers layers;
  const std::vector<double> banded =
      DecomposePairs(engine, series, features, series, features, all,
                     /*banded=*/true, /*full=*/false, tracer, &layers);
  for (std::size_t p = 0; p < all.size(); ++p) {
    if (banded[p] != first.At(all[p].x, all[p].y)) {
      result.Fail("decomposed pair differs from the matrix");
      break;
    }
  }
  SetPairLayerMetrics(layers, result);
  // The exact count the matrix itself reports.
  result.Set("dtw.cells_filled", static_cast<double>(first.cells_filled));
  result.Set("dtw.full_us_per_pair",
             1e6 * reference_s / static_cast<double>(pairs));
  result.Set("trace.overhead_ratio",
             Median(traced_s) / Median(untraced_s) - 1.0);
}

}  // namespace perfbench
