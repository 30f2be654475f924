// service-zipf: an open loop into a QueryService. One generator thread
// sends Poisson arrivals on a seeded schedule, at each rate of a fixed
// ladder, drawing queries with Zipf popularity from a pool of distinct
// queries. The only workload with queueing, micro-batching, coalescing
// and derivative-cache reuse: repeats are the input property those
// mechanisms exploit, and the knn workloads have none.
//
// Latency is measured from when a request was due, not when it was sent,
// so a generator stall charges the wait to the requests behind it; the
// generator's own lateness is reported separately and a late generator
// fails the run.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <span>
#include <thread>

#include "dtw/dtw.h"
#include "retrieval/batch.h"
#include "retrieval/service.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace rt = sdtw::retrieval;

/// Generator lateness (p99) past which a step did not deliver its offered
/// rate and the run is invalid, as a share of the latency limit. Latency
/// is charged from the due time, so smaller lateness only makes the load
/// burstier than Poisson; on a shared host, wake-ups of tens of ms occur.
constexpr double kMaxLatenessShare = 1.0;
/// Ladder index of the "low" and "mid" latency rows.
constexpr std::size_t kLowStep = 0;
constexpr std::size_t kMidStep = 1;
constexpr std::size_t kMinBursts = 6;

struct StepOutcome {
  StepResult step;
  std::vector<double> sent_s;
  std::vector<double> submit_us;
  std::size_t refused = 0;
  std::size_t failed = 0;      ///< Resolved with an error status.
  std::size_t mismatched = 0;  ///< OK, but not the reference hits.
  rt::ServiceMetrics before;
  rt::ServiceMetrics after;
};

struct Pending {
  std::size_t i = 0;
  std::future<rt::QueryService::Result> future;
};

// Runs one step of the open loop: this thread submits on schedule, a
// collector thread waits for results in submission order (the queue is
// FIFO when no request carries a deadline) and stamps when each is ready.
StepOutcome RunStep(rt::QueryService& service, const StepSchedule& schedule,
                    const std::vector<ts::TimeSeries>& pool,
                    const std::vector<std::vector<rt::Hit>>& reference,
                    std::size_t k, Tracer& tracer,
                    std::uint64_t request_base) {
  const std::size_t n = schedule.arrivals.size();
  StepOutcome out;
  out.step.offered_qps = schedule.target_qps;
  out.step.duration_s = n > 0 ? schedule.arrivals.back().due_s : 0.0;
  out.step.due_s.resize(n);
  out.step.latency_ms.assign(n, kInf);
  out.sent_s.resize(n);
  out.submit_us.resize(n);
  std::vector<std::int64_t> due_ns(n), sent_ns(n), submitted_ns(n),
      ready_ns(n, 0);
  out.before = service.metrics();

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> pending;  // guarded by mu
  bool done = false;            // guarded by mu
  std::size_t failed = 0, mismatched = 0;
  std::thread collector([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !pending.empty(); });
        if (pending.empty()) return;
        p = std::move(pending.front());
        pending.pop_front();
      }
      rt::QueryService::Result r = p.future.get();
      ready_ns[p.i] = NowNs();
      if (!r.ok()) {
        ++failed;
      } else if (!SameHits(*r, reference[schedule.arrivals[p.i].query])) {
        ++mismatched;
      }
    }
  });

  const auto origin = Clock::now() + std::chrono::milliseconds(5);
  const std::int64_t origin_ns = std::chrono::duration_cast<
      std::chrono::nanoseconds>(origin.time_since_epoch()).count();
  for (std::size_t i = 0; i < n; ++i) {
    const Arrival& a = schedule.arrivals[i];
    const auto due = origin + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(a.due_s));
    std::this_thread::sleep_until(due);
    due_ns[i] = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    due.time_since_epoch()).count();
    sent_ns[i] = NowNs();
    auto future = service.Submit(pool[a.query], k);
    submitted_ns[i] = NowNs();
    if (!future.has_value()) {
      ++out.refused;
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      pending.push_back({i, std::move(*future)});
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  collector.join();
  out.failed = failed;
  out.mismatched = mismatched;
  out.after = service.metrics();

  for (std::size_t i = 0; i < n; ++i) {
    out.step.due_s[i] = 1e-9 * static_cast<double>(due_ns[i] - origin_ns);
    out.sent_s[i] = 1e-9 * static_cast<double>(sent_ns[i] - origin_ns);
    out.submit_us[i] = 1e-3 * static_cast<double>(submitted_ns[i] - sent_ns[i]);
    if (ready_ns[i] != 0) {
      out.step.latency_ms[i] =
          1e-6 * static_cast<double>(ready_ns[i] - due_ns[i]);
    }
    // Spans are built from the timestamps after the step, so a traced
    // step does no extra work while requests are in flight.
    const std::uint64_t request = request_base + i;
    const SpanId root = tracer.Record("request", due_ns[i],
                                      ready_ns[i] != 0 ? ready_ns[i]
                                                       : submitted_ns[i],
                                      kNoSpan, request);
    tracer.Record("gen.lateness", due_ns[i], sent_ns[i], root, request);
    tracer.Record("service.submit", sent_ns[i], submitted_ns[i], root,
                  request);
    if (ready_ns[i] != 0) {
      tracer.Record("service.wait", submitted_ns[i], ready_ns[i], root,
                    request);
    }
  }
  return out;
}

}  // namespace

void RunService(const WorkloadSpec& spec, const RunConfig& config,
                Tracer& tracer, RunResult& result) {
  const GeneratedInputs in = Generate(spec);
  const std::vector<ts::TimeSeries>& pool = in.queries;
  const TrafficSpec& traffic = spec.traffic;
  rt::ServiceOptions service_options;
  service_options.num_workers = spec.workers;
  // One step's samples fill the window exactly, so each step's snapshot
  // percentiles are that step's own.
  service_options.latency_window = traffic.requests_per_step;

  // Host speed, read by the yardstick between bursts on a pool of as many
  // workers as the service has; the same pool computes the reference.
  rt::WorkerPool ref_pool(spec.workers);
  Rescaler speed([&ref_pool] { return YardstickCellSeconds(ref_pool); });

  // Set-up: index, then service start (pool threads, dispatcher). Each
  // repetition rebuilds the served index in place (the service is idle
  // between bursts) and starts a second service on it, stopped untimed.
  rt::KnnEngine index;
  SetupSampler setup([&] {
    const auto t0 = Clock::now();
    index.Index(in.index);
    const rt::QueryService started(index, service_options);
    return SecondsSince(t0);
  }, speed);
  rt::QueryService service(index, service_options);
  if (!service.init_status().ok()) {
    result.Fail("service did not start: " +
                service.init_status().message());
    return;
  }

  // Untimed reference: a direct QueryBatch of each pool query alone, on a
  // separate pool with the same worker count. A traced run times its
  // phases through the timing executor and collects cascade counters.
  TimingExecutor timing(ref_pool, tracer);
  rt::BatchOptions ref_options;
  ref_options.executor = &timing;
  const rt::BatchKnnEngine direct(index, ref_options);
  std::vector<std::vector<rt::Hit>> reference;
  std::vector<rt::QueryStats> ref_stats;
  const auto ref_t0 = Clock::now();
  for (std::size_t q = 0; q < pool.size(); ++q) {
    const ScopedSpan span(tracer, "retrieval.query_batch", kNoSpan, q);
    timing.set_parent(span.id());
    std::vector<rt::QueryStats> st;
    auto hits = direct.QueryBatch(
        std::span<const ts::TimeSeries>(pool).subspan(q, 1), spec.k, &st);
    reference.push_back(std::move(hits[0]));
    ref_stats.insert(ref_stats.end(), st.begin(), st.end());
  }
  const double ref_s = SecondsSince(ref_t0);

  // Warm-up (untimed, but checked like every other burst): one burst
  // fills the derivative cache and settles the threads.
  Tracer off(false);
  const std::vector<double> probs =
      ZipfProbabilities(pool.size(), traffic.zipf_exponent);
  const StepOutcome warmup =
      RunStep(service,
              MakeBurst(traffic.burst_requests, probs,
                        DeriveSeed(traffic.seed, 999)),
              pool, reference, spec.k, off, 0);

  // The ladder, traced runs only: its latencies are per-layer metrics.
  // Every step drains before the next starts; from the middle step on,
  // the ladder stops at the first step that misses the limit.
  const auto measure_start = Clock::now();
  std::vector<StepOutcome> outcomes;
  std::uint64_t request_base = 1;
  for (std::size_t i = 0; config.trace && i < in.steps.size(); ++i) {
    outcomes.push_back(RunStep(service, in.steps[i], pool, reference, spec.k,
                               tracer, request_base));
    request_base += in.steps[i].arrivals.size();
    if (i >= kMidStep &&
        !JudgeStep(outcomes.back().step, spec.latency_limit_ms).meets_limit) {
      break;
    }
  }

  // Saturation: bursts of requests all due at once, until the run's time
  // budget is spent. Throughput is requests over the time until the last
  // result is ready. A traced run alternates untraced and traced bursts.
  std::vector<double> untraced_s, traced_s, wall_s;
  std::vector<StepOutcome> bursts;
  double repeat_share = 0.0;
  for (std::size_t b = 0;
       b < kMinBursts || SecondsSince(measure_start) < config.seconds; ++b) {
    const bool traced = config.trace && b % 2 == 1;
    const StepSchedule burst = MakeBurst(traffic.burst_requests, probs,
                                         DeriveSeed(traffic.seed, 1000 + b));
    bursts.push_back(RunStep(service, burst, pool, reference, spec.k,
                             traced ? tracer : off, request_base));
    request_base += burst.arrivals.size();
    const std::vector<double>& l = bursts.back().step.latency_ms;
    const double burst_wall_s =
        1e-3 * *std::max_element(l.begin(), l.end());
    const double burst_s = speed.Rescale(burst_wall_s);
    (traced ? traced_s : untraced_s).push_back(burst_s);
    if (!traced) wall_s.push_back(burst_wall_s);
    setup.After(burst_s);
    repeat_share += ReportStep(burst, {}, probs).achieved_repeat_share;
  }
  // Peak memory of set-up and the served requests, before the quality
  // check builds its exact-DTW index.
  result.Set("peak_rss_mb", PeakRssMb());
  result.Set("setup_s", setup.Median());
  const double saturation_qps =
      static_cast<double>(traffic.burst_requests) / Median(untraced_s);
  const double wall_qps =
      static_cast<double>(traffic.burst_requests) / Median(wall_s);
  SetHostMetrics(speed, setup, wall_qps, result);

  // Per-step report: achieved against offered, the ladder verdict, and
  // the service's own counters over the step.
  std::vector<StepResult> steps;
  std::vector<StepVerdict> verdicts;
  std::vector<StepReport> gen;
  std::printf("service-zipf: %zu x %zu index, pool %zu, zipf s=%.2f, "
              "%zu workers, p99 limit %.0f ms; direct QueryBatch %.1f q/s\n",
              in.index.size(), spec.index.length, pool.size(),
              traffic.zipf_exponent, spec.workers, spec.latency_limit_ms,
              static_cast<double>(pool.size()) / ref_s);
  if (config.trace) {
    std::printf("  %7s %9s %8s %8s %8s %8s %9s %7s %7s %8s %13s %6s\n",
                "offered", "scheduled", "achieved", "distinct", "p50_ms", "p99_ms",
                "slope_ms/s", "late99", "batches", "coalesce",
                "repeat/target", "errors");
  }
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const StepOutcome& o = outcomes[i];
    steps.push_back(o.step);
    verdicts.push_back(JudgeStep(o.step, spec.latency_limit_ms));
    gen.push_back(ReportStep(in.steps[i], o.sent_s, probs));
    const std::size_t errors = o.refused + o.failed + o.mismatched;
    result.attempted += o.step.latency_ms.size();
    if (errors > 0) {
      result.Fail("step " + std::to_string(i) + ": " +
                      std::to_string(errors) +
                      " requests failed, were refused, or returned hits "
                      "that differ from the direct QueryBatch",
                  errors);
    }
    if (gen[i].lateness_p99_ms > kMaxLatenessShare * spec.latency_limit_ms) {
      result.Fail("step " + std::to_string(i) + ": generator p99 lateness " +
                  std::to_string(gen[i].lateness_p99_ms) +
                  " ms; the offered rate was not delivered");
    }
    std::printf("  %7.1f %9.1f %8.1f %8zu %8.3f %8.3f %9.3f %7.3f %7zu "
                "%8zu %6.3f/%.3f %6zu\n",
                o.step.offered_qps, gen[i].scheduled_qps,
                gen[i].achieved_qps,
                gen[i].distinct_queries, verdicts[i].p50.value,
                verdicts[i].p99.value, verdicts[i].backlog_slope,
                gen[i].lateness_p99_ms, o.after.batches - o.before.batches,
                o.after.coalesced - o.before.coalesced,
                gen[i].achieved_repeat_share, gen[i].expected_repeat_share,
                errors);
  }
  std::size_t burst_errors = 0;
  bursts.push_back(warmup);
  for (const StepOutcome& o : bursts) {
    result.attempted += o.step.latency_ms.size();
    burst_errors += o.refused + o.failed + o.mismatched;
  }
  if (burst_errors > 0) {
    result.Fail("saturation bursts: " + std::to_string(burst_errors) +
                    " requests failed, were refused, or returned hits that "
                    "differ from the direct QueryBatch",
                burst_errors);
  }
  result.Set("throughput_ref_per_s", saturation_qps);
  // The measured bursts (the warm-up, appended last, excluded): share of
  // requests repeating an earlier one in their burst, and the derivative
  // cache's hit rate and evictions.
  const rt::ServiceMetrics& first = bursts.front().before;
  const rt::ServiceMetrics& last = bursts[bursts.size() - 2].after;
  const double burst_hits =
      static_cast<double>(last.cache.hits - first.cache.hits);
  const double burst_lookups =
      burst_hits +
      static_cast<double>(last.cache.misses - first.cache.misses);
  std::printf("service-zipf: saturation %.2f q/s (on the reference host "
              "%.2f q/s), median of %zu bursts of %zu requests; repeat "
              "share %.3f, cache hit rate %.3f, %zu evictions\n",
              wall_qps, saturation_qps, untraced_s.size(),
              traffic.burst_requests,
              repeat_share / static_cast<double>(bursts.size() - 1),
              burst_lookups > 0 ? burst_hits / burst_lookups : 0.0,
              last.cache.evictions - first.cache.evictions);

  // Every OK service result was checked equal to `reference`.
  SetQualityMetrics(reference, pool, in.index, spec.k, ref_pool, result);

  if (!config.trace) return;

  const MaxRate max_rate = FindMaxRate(steps, spec.latency_limit_ms);
  std::printf("service-zipf: max rate %.1f q/s on the ladder, %.2f q/s "
              "interpolated\n",
              max_rate.ladder_qps, max_rate.interpolated_qps);

  // Per-layer, service: the low and middle steps' latencies, the ladder
  // value, and the service's counters over the middle step.
  const std::size_t mid = kMidStep;
  const StepOutcome& m = outcomes[mid];
  const rt::ServiceMetrics& a = m.after;
  const rt::ServiceMetrics& b = m.before;
  const double completed = static_cast<double>(a.completed - b.completed);
  const double batches = static_cast<double>(a.batches - b.batches);
  result.Set("service.latency_p50_ms.low", verdicts[kLowStep].p50.value);
  result.Set("service.latency_p99_ms.low", verdicts[kLowStep].p99.value);
  result.Set("service.latency_p50_ms.mid", verdicts[mid].p50.value);
  result.Set("service.latency_p99_ms.mid", verdicts[mid].p99.value);
  result.Set("service.max_rate_qps", max_rate.interpolated_qps);
  double submit_us = 0.0;
  for (double us : m.submit_us) submit_us += us;
  result.Set("service.submit_us",
             submit_us / static_cast<double>(m.submit_us.size()));
  result.Set("service.batches", batches);
  result.Set("service.batch_size_mean",
             batches > 0 ? completed / batches : 0.0);
  result.Set("service.coalesce_rate",
             completed > 0
                 ? static_cast<double>(a.coalesced - b.coalesced) / completed
                 : 0.0);
  result.Set("service.rejected", static_cast<double>(a.rejected - b.rejected));
  result.Set("service.shed", static_cast<double>(a.shed - b.shed));
  result.Set("service.failed", static_cast<double>(a.failed - b.failed));
  result.Set("service.retries", static_cast<double>(a.retries - b.retries));
  result.Set("service.internal_p50_ms", 1e-3 * a.latency.p50_us);
  result.Set("service.internal_p99_ms", 1e-3 * a.latency.p99_us);
  result.Set("service.backlog_slope", verdicts[mid].backlog_slope);
  const double hits = static_cast<double>(a.cache.hits - b.cache.hits);
  const double misses = static_cast<double>(a.cache.misses - b.cache.misses);
  result.Set("cache.hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0);
  result.Set("cache.evictions",
             static_cast<double>(a.cache.evictions - b.cache.evictions));
  double lateness = 0.0;
  for (const StepReport& g : gen) lateness = std::max(lateness,
                                                      g.lateness_p99_ms);
  result.Set("gen.lateness_p99_ms", lateness);
  result.Set("gen.achieved_rate_qps", gen[mid].achieved_qps);
  result.Set("gen.repeat_share", gen[mid].achieved_repeat_share);

  // Per-layer, cascade and batch: the reference QueryBatch calls, which
  // scan exactly what the service's batches scan for a lone query.
  SetCascadeMetrics(ref_stats, /*sdtw_mode=*/true, result);
  SetBatchMetrics(timing.totals(), ref_s, pool.size(), result);

  // Per-layer, sift / align / core / dtw.
  const sdtw::core::Sdtw engine(index.options().sdtw);
  std::vector<ts::TimeSeries> index_series(in.index.begin(), in.index.end());
  SetLayerMetricsFromSample(engine, pool[0], index_series,
                            /*sdtw_mode=*/true, tracer, result);

  result.Set("trace.overhead_ratio",
             Median(traced_s) / Median(untraced_s) - 1.0);
}

}  // namespace perfbench
