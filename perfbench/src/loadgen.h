#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_
/// \file loadgen.h
/// \brief Seeded workload generator, in a Spec → inputs → Report shape.
///
/// A WorkloadSpec names every knob of one workload: the indexed data set
/// (a data:: generator family, size, length, seed), the pool of distinct
/// queries (drawn from another seed), and, for the open-loop workload, the
/// traffic: a fixed ladder of offered rates, Poisson arrivals at each rate
/// and Zipf popularity over the query pool. Generate() turns a spec into
/// inputs; the library under test only ever sees the generated series.
/// ReportStep() compares what a step achieved with what its spec targeted:
/// offered rate, repeat share and distinct queries.
///
/// Every random draw derives from the one workload seed, so the same seed
/// gives the same inputs and the same schedule.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ts/time_series.h"

namespace perfbench {

namespace ts = sdtw::ts;

enum class Family { kWordsLike, kTraceLike };

struct DatasetSpec {
  Family family = Family::kTraceLike;
  std::size_t num_series = 0;
  std::size_t length = 0;
  std::uint64_t seed = 0;
};

struct TrafficSpec {
  /// Offered rates, ascending, requests/s.
  std::vector<double> ladder_qps;
  /// Requests per ladder step (1,000 puts ten samples beyond p99).
  std::size_t requests_per_step = 1000;
  /// Requests per saturation burst (all due at once).
  std::size_t burst_requests = 512;
  /// Zipf exponent of query popularity over the pool (rank r drawn with
  /// probability ∝ r^-s).
  double zipf_exponent = 1.0;
  std::uint64_t seed = 0;
};

struct WorkloadSpec {
  std::string name;
  DatasetSpec index;
  /// Distinct queries, same family and length as the index.
  std::size_t num_queries = 0;
  std::uint64_t query_seed = 0;
  /// Queries per BatchKnnEngine::QueryBatch call (knn workloads).
  std::size_t batch_size = 0;
  std::size_t k = 5;
  /// Worker threads of the engine or service; never 0.
  std::size_t workers = 1;
  /// Open-loop traffic; empty ladder for the closed workloads.
  TrafficSpec traffic;
  /// p99 latency limit of the max-rate ladder, ms.
  double latency_limit_ms = 0.0;
};

/// The named workloads of BENCHMARK.json: "pairwise-words", "knn-sdtw",
/// "knn-dtw" and "service-zipf". Returns false for any other name.
bool SpecFor(std::string_view workload, std::uint64_t seed,
             WorkloadSpec* spec);

/// Derives an independent 64-bit seed from (seed, stream) (splitmix64).
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream);

struct Arrival {
  double due_s = 0.0;       ///< Offset from the step's start.
  std::size_t query = 0;    ///< Index into the query pool.
};

struct StepSchedule {
  double target_qps = 0.0;
  std::vector<Arrival> arrivals;
};

struct GeneratedInputs {
  ts::Dataset index;
  std::vector<ts::TimeSeries> queries;
  std::vector<StepSchedule> steps;
};

ts::Dataset MakeDataset(const DatasetSpec& spec);
GeneratedInputs Generate(const WorkloadSpec& spec);

/// Zipf probabilities of ranks 1..pool (sum 1).
std::vector<double> ZipfProbabilities(std::size_t pool, double exponent);

/// `n` Poisson arrivals at `qps` with query ranks drawn from `probs`.
StepSchedule MakeStep(double qps, std::size_t n,
                      const std::vector<double>& probs, std::uint64_t seed);

/// `n` requests all due at time 0, query ranks drawn from `probs`.
StepSchedule MakeBurst(std::size_t n, const std::vector<double>& probs,
                       std::uint64_t seed);

/// Expected share of `n` independent draws from `probs` that repeat an
/// earlier draw: 1 − E[distinct] / n.
double ExpectedRepeatShare(const std::vector<double>& probs, std::size_t n);

/// \brief Achieved against target for one step.
struct StepReport {
  double target_qps = 0.0;
  double scheduled_qps = 0.0;  ///< Requests ÷ span of the due times.
  double achieved_qps = 0.0;   ///< Requests ÷ span of the actual sends.
  double expected_repeat_share = 0.0;
  double achieved_repeat_share = 0.0;
  std::size_t requests = 0;
  std::size_t distinct_queries = 0;
  double lateness_p99_ms = 0.0;  ///< Send time − due time, supported tail.
  double lateness_max_ms = 0.0;
};

/// `sent_s[i]` is when arrival i was actually submitted, on the same clock
/// and origin as its due time.
StepReport ReportStep(const StepSchedule& step,
                      const std::vector<double>& sent_s,
                      const std::vector<double>& probs);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
