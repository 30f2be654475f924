#include <sys/resource.h>

#include <algorithm>
#include <atomic>

#include "align/consistency.h"
#include "align/matching.h"
#include "retrieval/batch.h"
#include "dtw/dtw.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

bool SameHits(const std::vector<sdtw::retrieval::Hit>& a,
              const std::vector<sdtw::retrieval::Hit>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].index != b[i].index || a[i].distance != b[i].distance ||
        a[i].label != b[i].label) {
      return false;
    }
  }
  return true;
}

std::vector<sdtw::retrieval::Hit> TopKOf(const std::vector<double>& row,
                                         std::size_t k,
                                         const ts::Dataset& index) {
  std::vector<std::size_t> order(row.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const std::size_t take = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<long>(take),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      return row[a] != row[b] ? row[a] < row[b] : a < b;
                    });
  std::vector<sdtw::retrieval::Hit> hits;
  for (std::size_t i = 0; i < take; ++i) {
    hits.push_back({order[i], row[order[i]], index[order[i]].label()});
  }
  return hits;
}

void SetHostMetrics(const Rescaler& speed, const SetupSampler& setup,
                    double wall_throughput_per_s, RunResult& result) {
  result.Set("wall.throughput_per_s", wall_throughput_per_s);
  result.Set("wall.setup_s", setup.WallMedian());
  result.Set("host.yardstick_ns_per_cell", 1e9 * Median(speed.readings()));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void TimingExecutor::Execute(
    const std::function<void(sdtw::retrieval::ScratchArena&)>& fn) {
  const std::size_t workers = inner_.num_workers();
  std::vector<std::int64_t> start(workers, 0), end(workers, 0);
  std::atomic<std::size_t> next_slot{0};
  const SpanId phase = tracer_.Begin("batch.phase", parent_);
  const std::int64_t t0 = NowNs();
  inner_.Execute([&](sdtw::retrieval::ScratchArena& arena) {
    const std::size_t slot = next_slot.fetch_add(1) % workers;
    start[slot] = NowNs();
    fn(arena);
    end[slot] = NowNs();
  });
  const std::int64_t t1 = NowNs();
  tracer_.End(phase);

  double busy = 0.0, max_busy = 0.0;
  for (std::size_t w = 0; w < workers; ++w) {
    tracer_.Record("batch.worker", start[w], end[w], phase);
    const double b = 1e-9 * static_cast<double>(end[w] - start[w]);
    busy += b;
    max_busy = std::max(max_busy, b);
  }
  const double wall = 1e-9 * static_cast<double>(t1 - t0);
  std::lock_guard<std::mutex> lock(mu_);
  ++totals_.phases;
  totals_.busy_s += busy;
  totals_.idle_s += std::max(0.0, wall * static_cast<double>(workers) - busy);
  const double mean_busy = busy / static_cast<double>(workers);
  totals_.imbalance_sum += mean_busy > 0.0 ? max_busy / mean_busy : 1.0;
}

TimingExecutor::Totals TimingExecutor::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

std::vector<double> DecomposePairs(
    const sdtw::core::Sdtw& engine, const std::vector<ts::TimeSeries>& xs,
    const std::vector<std::vector<sdtw::sift::Keypoint>>& fxs,
    const std::vector<ts::TimeSeries>& ys,
    const std::vector<std::vector<sdtw::sift::Keypoint>>& fys,
    const std::vector<PairRef>& pairs, bool banded, bool full,
    Tracer& tracer, PairLayers* out) {
  const sdtw::core::SdtwOptions& opt = engine.options();
  std::vector<double> distances;
  distances.reserve(pairs.size());
  std::uint64_t request = 0;
  for (const PairRef& p : pairs) {
    const ts::TimeSeries& x = xs[p.x];
    const ts::TimeSeries& y = ys[p.y];
    ++out->pairs;
    ++request;
    out->grid_cells += x.size() * y.size();
    const ScopedSpan pair(tracer, "pair", kNoSpan, request);
    if (banded) {
      std::int64_t t0 = NowNs();
      const std::vector<sdtw::align::MatchPair> matches =
          sdtw::align::FindDominantPairs(fxs[p.x], fys[p.y], opt.matching,
                                         x.size(), y.size());
      std::int64_t t1 = NowNs();
      tracer.Record("align.match", t0, t1, pair.id(), request);
      out->match_s += 1e-9 * static_cast<double>(t1 - t0);
      out->pairs_committed +=
          sdtw::align::PruneInconsistent(x, y, fxs[p.x], fys[p.y], matches,
                                         opt.consistency)
              .size();

      t0 = NowNs();
      const sdtw::dtw::Band band = engine.BuildBand(x, fxs[p.x], y, fys[p.y]);
      t1 = NowNs();
      tracer.Record("core.build_band", t0, t1, pair.id(), request);
      out->build_band_s += 1e-9 * static_cast<double>(t1 - t0);
      out->band_cells += band.CellCount();

      t0 = NowNs();
      distances.push_back(
          sdtw::dtw::DtwBandedDistance(x, y, band, opt.dtw.cost));
      t1 = NowNs();
      tracer.Record("dtw.banded", t0, t1, pair.id(), request);
      out->banded_s += 1e-9 * static_cast<double>(t1 - t0);
      out->banded_cells += band.CellCount();
    }
    if (full) {
      const std::int64_t t0 = NowNs();
      const double d = sdtw::dtw::DtwDistance(x, y, opt.dtw.cost);
      const std::int64_t t1 = NowNs();
      tracer.Record("dtw.full", t0, t1, pair.id(), request);
      out->full_s += 1e-9 * static_cast<double>(t1 - t0);
      out->full_cells += x.size() * y.size();
      if (!banded) distances.push_back(d);
    }
  }
  return distances;
}

void SetPairLayerMetrics(const PairLayers& l, RunResult& r) {
  if (l.pairs == 0) return;
  const double n = static_cast<double>(l.pairs);
  if (l.band_cells > 0) {
    r.Set("align.match_us_per_pair", 1e6 * l.match_s / n);
    r.Set("align.pairs_committed_per_pair",
          static_cast<double>(l.pairs_committed) / n);
    r.Set("core.build_band_us_per_pair", 1e6 * l.build_band_s / n);
    r.Set("core.band_coverage",
          static_cast<double>(l.band_cells) /
              static_cast<double>(l.grid_cells));
    r.Set("core.match_share", l.build_band_s / (l.build_band_s + l.banded_s));
    r.Set("dtw.banded_us_per_pair", 1e6 * l.banded_s / n);
    r.Set("dtw.cells_per_s",
          static_cast<double>(l.banded_cells) / l.banded_s);
  }
  if (l.full_cells > 0) {
    r.Set("dtw.full_us_per_pair", 1e6 * l.full_s / n);
    if (l.band_cells == 0) {
      r.Set("dtw.cells_per_s", static_cast<double>(l.full_cells) / l.full_s);
    }
  }
}

void SetLayerMetricsFromSample(const sdtw::core::Sdtw& engine,
                               const ts::TimeSeries& query,
                               const std::vector<ts::TimeSeries>& index,
                               bool sdtw_mode, Tracer& tracer,
                               RunResult& result) {
  const std::size_t n = std::min(kLayerSample, index.size());
  std::vector<std::vector<sdtw::sift::Keypoint>> features(n);
  std::vector<std::vector<sdtw::sift::Keypoint>> query_features(1);
  if (sdtw_mode) {
    std::size_t keypoints = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const ScopedSpan span(tracer, "sift.extract", kNoSpan, i);
      features[i] = engine.ExtractFeatures(index[i]);
      keypoints += features[i].size();
    }
    result.Set("sift.extract_us_per_series",
               1e6 * SecondsSince(t0) / static_cast<double>(n));
    result.Set("sift.keypoints_per_series",
               static_cast<double>(keypoints) / static_cast<double>(n));
    query_features[0] = engine.ExtractFeatures(query);
  }
  std::vector<PairRef> pairs;
  for (std::size_t i = 0; i < n; ++i) pairs.push_back({0, i});
  PairLayers layers;
  DecomposePairs(engine, {query}, query_features, index, features, pairs,
                 /*banded=*/sdtw_mode, /*full=*/!sdtw_mode, tracer, &layers);
  SetPairLayerMetrics(layers, result);
  result.Set("dtw.cells_filled",
             static_cast<double>(sdtw_mode ? layers.banded_cells
                                           : layers.full_cells));
}

void SetQualityMetrics(
    const std::vector<std::vector<sdtw::retrieval::Hit>>& served,
    const std::vector<ts::TimeSeries>& queries, const ts::Dataset& index,
    std::size_t k, sdtw::retrieval::BatchExecutor& executor,
    RunResult& result) {
  namespace rt = sdtw::retrieval;
  rt::KnnOptions exact_options;
  exact_options.distance = rt::DistanceKind::kFullDtw;
  rt::KnnEngine exact_index(exact_options);
  exact_index.Index(index);
  rt::BatchOptions batch;
  batch.executor = &executor;
  const auto exact =
      rt::BatchKnnEngine(exact_index, batch).QueryBatch(queries, k);
  double overlap = 0.0, ratio = 0.0;
  std::size_t ratio_n = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    std::size_t common = 0;
    for (const rt::Hit& h : served[q]) {
      for (const rt::Hit& e : exact[q]) common += h.index == e.index;
      const double d = sdtw::dtw::DtwDistance(queries[q], index[h.index]);
      if (d > 0.0) {
        ratio += h.distance / d;
        ++ratio_n;
      }
    }
    overlap += static_cast<double>(common) / static_cast<double>(k);
  }
  result.Set("top5_accuracy", overlap / static_cast<double>(queries.size()));
  result.Set("distance_ratio",
             ratio_n > 0 ? ratio / static_cast<double>(ratio_n) : 1.0);
}

void SetCascadeMetrics(const std::vector<sdtw::retrieval::QueryStats>& stats,
                       bool sdtw_mode, RunResult& r) {
  sdtw::retrieval::QueryStats t;
  for (const auto& s : stats) t.Merge(s);
  const auto count = [](std::size_t v) { return static_cast<double>(v); };
  const double completed = count(t.dp_evaluations);
  const double abandoned = count(t.pruned_by_early_abandon);
  const double reached_keogh = count(t.candidates - t.pruned_by_kim);
  r.Set("cascade.candidates", count(t.candidates));
  r.Set("cascade.pruned_by_kim", count(t.pruned_by_kim));
  r.Set("cascade.pruned_by_keogh", count(t.pruned_by_keogh));
  r.Set("cascade.pruned_by_early_abandon", abandoned);
  r.Set("cascade.dp_completed", completed);
  r.Set("cascade.keogh_abandoned", count(t.lb_keogh_abandoned));
  // In sDTW mode every candidate that survives LB_Kim and LB_Keogh builds
  // a band; exact DTW builds none.
  r.Set("cascade.band_builds",
        sdtw_mode ? count(t.candidates - t.pruned_by_kim - t.pruned_by_keogh)
                  : 0.0);
  r.Set("cascade.dp_useful_ratio",
        completed + abandoned > 0 ? completed / (completed + abandoned) : 0.0);
  r.Set("cascade.keogh_prune_ratio",
        reached_keogh > 0 ? count(t.pruned_by_keogh) / reached_keogh : 0.0);
}

void SetBatchMetrics(const TimingExecutor::Totals& t, double calls_s,
                     std::size_t calls, RunResult& r) {
  if (calls == 0) return;
  const double n = static_cast<double>(calls);
  r.Set("batch.query_batch_s", calls_s / n);
  r.Set("batch.phases_per_call", static_cast<double>(t.phases) / n);
  r.Set("batch.worker_busy_s", t.busy_s / n);
  r.Set("batch.worker_idle_s", t.idle_s / n);
  r.Set("batch.imbalance",
        t.phases > 0 ? t.imbalance_sum / static_cast<double>(t.phases) : 0.0);
}

}  // namespace perfbench
