#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_
/// \file workloads.h
/// \brief The four workloads and what they share: the run result, the
/// timing executor of the traced runs, and the pair decomposition.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/sdtw.h"
#include "loadgen.h"
#include "stats.h"
#include "retrieval/knn.h"
#include "retrieval/scratch.h"
#include "trace.h"
#include "yardstick.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

/// What one run reports. `metrics` holds every metric the workload
/// measured, by name; perfbench/run.py picks the ones of the run's mode
/// and gives them the units BENCHMARK.json lists.
struct RunResult {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> errors;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  /// A failed output check: the run is incorrect and `count` operations
  /// failed.
  void Fail(std::string why, std::size_t count = 1) {
    correct = false;
    failed += count;
    errors.push_back(std::move(why));
  }
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// \brief Times set-up many times across a run; setup_s is the median.
///
/// The first set-up runs before the timed section. After every timed unit
/// (a matrix, a pass, a burst) one more runs, and further ones while they
/// take under kSetupShare of that unit's time. Spread over the run like
/// the timed calls, a slow interval on the host skews a few samples, not
/// the median. `setup` redoes the set-up in place, so the workload keeps
/// serving from it and no second copy is ever resident, and returns the
/// wall seconds of its timed part; each sample is rescaled to the
/// reference host by the yardstick reading taken right before it.
class SetupSampler {
 public:
  static constexpr double kSetupShare = 0.2;

  SetupSampler(std::function<double()> setup, const Rescaler& speed)
      : setup_(std::move(setup)), speed_(speed) {
    Sample();
  }

  /// Set-ups after a timed unit that took `unit_s` seconds on the
  /// reference host.
  void After(double unit_s) {
    double spent = 0.0;
    do {
      spent += Sample();
    } while (spent < kSetupShare * unit_s);
  }

  /// Median set-up seconds on the reference host, and as measured.
  double Median() const { return perfbench::Median(rescaled_); }
  double WallMedian() const { return perfbench::Median(wall_); }

 private:
  double Sample() {
    wall_.push_back(setup_());
    rescaled_.push_back(AtReferenceSpeed(wall_.back(), speed_.last()));
    return rescaled_.back();
  }

  std::function<double()> setup_;
  const Rescaler& speed_;
  std::vector<double> wall_;
  std::vector<double> rescaled_;
};

/// Exact (bitwise) equality of two hit lists.
bool SameHits(const std::vector<sdtw::retrieval::Hit>& a,
              const std::vector<sdtw::retrieval::Hit>& b);

/// The k smallest (distance, index) pairs of a distance row.
std::vector<sdtw::retrieval::Hit> TopKOf(const std::vector<double>& row,
                                         std::size_t k,
                                         const ts::Dataset& index);

/// Peak resident set of this process so far, MB. Workloads read it right
/// after their timed section, before the output checks allocate.
double PeakRssMb();

/// \brief BatchExecutor decorator that times every phase and every
/// worker's share of it. Used by traced runs, passed to BatchKnnEngine
/// through BatchOptions::executor around a retrieval::WorkerPool.
class TimingExecutor final : public sdtw::retrieval::BatchExecutor {
 public:
  TimingExecutor(sdtw::retrieval::BatchExecutor& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::size_t num_workers() const override { return inner_.num_workers(); }
  void Execute(
      const std::function<void(sdtw::retrieval::ScratchArena&)>& fn) override;

  /// Spans of the phases are parented here.
  void set_parent(SpanId parent) { parent_ = parent; }

  struct Totals {
    std::size_t phases = 0;
    double busy_s = 0.0;   ///< Σ over workers of time inside the job.
    double idle_s = 0.0;   ///< Σ over workers of phase wall − busy.
    double imbalance_sum = 0.0;  ///< Σ over phases of max ÷ mean busy.
  };
  Totals totals() const;

 private:
  sdtw::retrieval::BatchExecutor& inner_;
  Tracer& tracer_;
  SpanId parent_ = kNoSpan;
  mutable std::mutex mu_;
  Totals totals_;  // guarded by mu_
};

/// \brief Per-pair layer costs, measured by calling each layer's public
/// function on its own: align::FindDominantPairs + PruneInconsistent,
/// core::Sdtw::BuildBand and dtw::DtwBandedDistance on that band, and the
/// unbanded dtw::DtwDistance for the exact-DTW workloads.
struct PairLayers {
  std::size_t pairs = 0;
  double match_s = 0.0;
  std::size_t pairs_committed = 0;
  double build_band_s = 0.0;
  std::size_t band_cells = 0;
  std::size_t grid_cells = 0;
  double banded_s = 0.0;
  std::size_t banded_cells = 0;
  double full_s = 0.0;
  std::size_t full_cells = 0;
};

struct PairRef {
  std::size_t x = 0;
  std::size_t y = 0;
};

/// Decomposes every listed (x, y) pair of `series` (features precomputed)
/// under spans "pair" ⊃ {"align.match", "core.build_band", "dtw.banded"}.
/// `banded` runs the sDTW layers, `full` the unbanded DP. Returns the
/// banded distances so the caller can compare them with Compare().
std::vector<double> DecomposePairs(
    const sdtw::core::Sdtw& engine, const std::vector<ts::TimeSeries>& xs,
    const std::vector<std::vector<sdtw::sift::Keypoint>>& fxs,
    const std::vector<ts::TimeSeries>& ys,
    const std::vector<std::vector<sdtw::sift::Keypoint>>& fys,
    const std::vector<PairRef>& pairs, bool banded, bool full,
    Tracer& tracer, PairLayers* out);

/// Writes the align/core/dtw per-layer metrics from a decomposition.
void SetPairLayerMetrics(const PairLayers& layers, RunResult& result);

/// Per-layer sift/align/core/dtw metrics of a retrieval workload: feature
/// extraction over the first kLayerSample indexed series, and `query`
/// decomposed against them (banded sDTW layers in sDTW mode, the unbanded
/// DP in exact-DTW mode, where sift, align and core are bypassed).
inline constexpr std::size_t kLayerSample = 200;
void SetLayerMetricsFromSample(const sdtw::core::Sdtw& engine,
                               const ts::TimeSeries& query,
                               const std::vector<ts::TimeSeries>& index,
                               bool sdtw_mode, Tracer& tracer,
                               RunResult& result);

/// top5_accuracy (overlap of each served top-k with the exact-DTW top-k)
/// and distance_ratio (mean served distance ÷ exact DTW distance of the
/// same pair) of `served`, the hits of `queries` against `index`.
void SetQualityMetrics(
    const std::vector<std::vector<sdtw::retrieval::Hit>>& served,
    const std::vector<ts::TimeSeries>& queries, const ts::Dataset& index,
    std::size_t k, sdtw::retrieval::BatchExecutor& executor,
    RunResult& result);

/// The wall.* and host.* metrics: the run's throughput and median set-up
/// as measured, before rescaling, and the median yardstick reading.
void SetHostMetrics(const Rescaler& speed, const SetupSampler& setup,
                    double wall_throughput_per_s, RunResult& result);

/// The cascade.* metrics from per-query QueryStats.
void SetCascadeMetrics(const std::vector<sdtw::retrieval::QueryStats>& stats,
                       bool sdtw_mode, RunResult& result);

/// The batch.* metrics from the timing executor, over `calls` QueryBatch
/// calls that took `calls_s` seconds in total.
void SetBatchMetrics(const TimingExecutor::Totals& totals, double calls_s,
                     std::size_t calls, RunResult& result);

void RunPairwise(const WorkloadSpec& spec, const RunConfig& config,
                 Tracer& tracer, RunResult& result);
void RunKnn(const WorkloadSpec& spec, const RunConfig& config,
            sdtw::retrieval::DistanceKind kind, Tracer& tracer,
            RunResult& result);
void RunService(const WorkloadSpec& spec, const RunConfig& config,
                Tracer& tracer, RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
