#include "retrieval/service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <limits>
#include <gtest/gtest.h>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/fault_injector.h"
#include "core/status.h"
#include "data/generators.h"
#include "retrieval/batch.h"
#include "retrieval/latency.h"
#include "retrieval/query_cache.h"

namespace sdtw {
namespace retrieval {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

// True when the CI fault matrix (or a stray SDTW_FAULT) armed injection
// for this whole binary. Under it a request may legitimately fail after
// exhausting its retries, so completion-mandatory assertions relax to
// "whatever completes is still bitwise correct".
bool FaultsArmed() { return core::FaultInjector::Global().armed(); }

ts::Dataset SmallGun(std::size_t n = 16, std::size_t len = 100) {
  data::GeneratorOptions opt;
  opt.num_series = n;
  opt.length = len;
  return data::MakeGunLike(opt);
}

// Bitwise hit-list equality: same indices, same exact distances, same
// labels. The service's determinism contract is bit-for-bit, so no
// tolerance anywhere.
void ExpectSameHits(const std::vector<Hit>& got, const std::vector<Hit>& want,
                    const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, want[i].index) << what << " hit " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << what << " hit " << i;
    EXPECT_EQ(got[i].label, want[i].label) << what << " hit " << i;
  }
}

// Fetches a future that must hold hits when no faults are armed; under
// the fault matrix an injected kWorkerFault (or kUnknown) is tolerated
// and reported as empty hits so callers can skip the bitwise check.
std::optional<QueryService::Hits> GetHits(
    std::future<QueryService::Result>& future, const char* what) {
  QueryService::Result result = future.get();
  if (result.ok()) return std::move(result).value();
  EXPECT_TRUE(FaultsArmed())
      << what << ": unexpected failure with no faults armed: "
      << result.status().ToString();
  EXPECT_TRUE(result.status().code() == core::StatusCode::kWorkerFault ||
              result.status().code() == core::StatusCode::kUnknown)
      << what << ": " << result.status().ToString();
  return std::nullopt;
}

// Reference results: a direct one-shot BatchKnnEngine scan of each query
// alone, with default options (fresh threads, no executor, no cache).
std::vector<std::vector<Hit>> DirectHits(const KnnEngine& engine,
                                         const std::vector<ts::TimeSeries>& qs,
                                         std::size_t k) {
  const BatchKnnEngine direct(engine);
  std::vector<std::vector<Hit>> out;
  out.reserve(qs.size());
  for (const ts::TimeSeries& q : qs) {
    const std::vector<ts::TimeSeries> one{q};
    out.push_back(direct.QueryBatch(one, k)[0]);
  }
  return out;
}

// --------------------------------------------------------------------------
// WorkerPool

TEST(WorkerPoolTest, RunsJobOncePerWorkerAndReusesArenas) {
  // Direct Execute calls have no service-level isolation to absorb an
  // ambient SDTW_FAULT (e.g. the CI fault matrix); pin the worker sites
  // to rate 0 so this test measures pool mechanics, not fault handling.
  core::ScopedFault quiet_worker(kFaultSiteWorker, 0.0, 0);
  core::ScopedFault quiet_stall(kFaultSiteWorkerStall, 0.0, 0);
  WorkerPool pool(2);
  ASSERT_EQ(pool.num_workers(), 2u);

  std::atomic<std::size_t> slot{0};
  std::vector<const ScratchArena*> first(2, nullptr);
  std::vector<const ScratchArena*> second(2, nullptr);
  pool.Execute([&](ScratchArena& a) { first[slot++] = &a; });
  EXPECT_EQ(slot.load(), 2u) << "job must run exactly once per worker";
  slot = 0;
  pool.Execute([&](ScratchArena& a) { second[slot++] = &a; });
  EXPECT_EQ(slot.load(), 2u);

  // Persistent arenas: the second batch sees the same two arenas as the
  // first (possibly assigned to different slots).
  std::sort(first.begin(), first.end());
  std::sort(second.begin(), second.end());
  EXPECT_EQ(first, second);
  EXPECT_NE(first[0], nullptr);
  EXPECT_NE(first[0], first[1]);
}

TEST(WorkerPoolTest, DefaultWidthIsAtLeastOne) {
  core::ScopedFault quiet_worker(kFaultSiteWorker, 0.0, 0);
  core::ScopedFault quiet_stall(kFaultSiteWorkerStall, 0.0, 0);
  WorkerPool pool;
  EXPECT_GE(pool.num_workers(), 1u);
  std::atomic<std::size_t> ran{0};
  pool.Execute([&](ScratchArena&) { ++ran; });
  EXPECT_EQ(ran.load(), pool.num_workers());
}

// --------------------------------------------------------------------------
// QueryDerivativeCache

std::shared_ptr<const QueryContext> DummyContext() {
  return std::make_shared<const QueryContext>();
}

// The cache takes the caller's hash; these tests hash as the service does.
std::shared_ptr<const QueryContext> Lookup(QueryDerivativeCache& cache,
                                           const ts::TimeSeries& query) {
  return cache.Lookup(ContentHash(query.values()), query.values());
}

void Insert(QueryDerivativeCache& cache, const ts::TimeSeries& query,
            std::shared_ptr<const QueryContext> context) {
  cache.Insert(ContentHash(query.values()), query.values(),
               std::move(context));
}

TEST(QueryDerivativeCacheTest, HitMissEvictLru) {
  const ts::TimeSeries a({1.0, 2.0, 3.0}, 0);
  const ts::TimeSeries b({4.0, 5.0, 6.0}, 0);
  const ts::TimeSeries c({7.0, 8.0, 9.0}, 0);

  QueryDerivativeCache cache(2);
  ASSERT_TRUE(cache.enabled());
  EXPECT_EQ(Lookup(cache, a), nullptr);

  const auto ctx_a = DummyContext();
  Insert(cache, a, ctx_a);
  EXPECT_EQ(Lookup(cache, a).get(), ctx_a.get());

  Insert(cache, b, DummyContext());
  Insert(cache, c, DummyContext());  // capacity 2: evicts LRU, which is a
  EXPECT_EQ(Lookup(cache, a), nullptr);
  EXPECT_NE(Lookup(cache, b), nullptr);
  EXPECT_NE(Lookup(cache, c), nullptr);
  EXPECT_EQ(cache.size(), 2u);

  const auto counters = cache.counters();
  EXPECT_EQ(counters.hits, 3u);
  EXPECT_EQ(counters.misses, 2u);
  EXPECT_EQ(counters.insertions, 3u);
  EXPECT_EQ(counters.evictions, 1u);
}

TEST(QueryDerivativeCacheTest, RecencyRefreshOnHit) {
  const ts::TimeSeries a({1.0}, 0);
  const ts::TimeSeries b({2.0}, 0);
  const ts::TimeSeries c({3.0}, 0);
  QueryDerivativeCache cache(2);
  Insert(cache, a, DummyContext());
  Insert(cache, b, DummyContext());
  ASSERT_NE(Lookup(cache, a), nullptr);  // a becomes most recent
  Insert(cache, c, DummyContext());      // evicts b, not a
  EXPECT_NE(Lookup(cache, a), nullptr);
  EXPECT_EQ(Lookup(cache, b), nullptr);
}

TEST(QueryDerivativeCacheTest, ZeroCapacityDisables) {
  QueryDerivativeCache cache(0);
  EXPECT_FALSE(cache.enabled());
  const ts::TimeSeries a({1.0, 2.0}, 0);
  Insert(cache, a, DummyContext());
  EXPECT_EQ(Lookup(cache, a), nullptr);
  const auto counters = cache.counters();
  EXPECT_EQ(counters.hits, 0u);
  EXPECT_EQ(counters.misses, 0u);
  EXPECT_EQ(counters.insertions, 0u);
}

TEST(QueryDerivativeCacheTest, LabelDoesNotAffectIdentity) {
  // Content identity is the sample values only: the same values under a
  // different label must hit (derivatives do not depend on the label).
  QueryDerivativeCache cache(4);
  const auto ctx = DummyContext();
  Insert(cache, ts::TimeSeries({1.0, 2.0}, /*label=*/0), ctx);
  EXPECT_EQ(Lookup(cache, ts::TimeSeries({1.0, 2.0}, /*label=*/7)).get(),
            ctx.get());
}

TEST(QueryDerivativeCacheTest, CollidingHashMissesOnValueCheck) {
  // The caller supplies the hash; a lookup under the right hash with other
  // values (a collision) must miss rather than serve the wrong context.
  QueryDerivativeCache cache(4);
  const std::vector<double> stored{1.0, 2.0};
  const std::vector<double> other{3.0, 4.0};
  cache.Insert(/*hash=*/7, stored, DummyContext());
  EXPECT_NE(cache.Lookup(7, stored), nullptr);
  EXPECT_EQ(cache.Lookup(7, other), nullptr);
  EXPECT_EQ(cache.counters().misses, 1u);
}

TEST(ContentHashTest, SensitiveToValuesAndLength) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{1.0, 2.0, 4.0};
  const std::vector<double> prefix{1.0, 2.0};
  EXPECT_EQ(ContentHash(a), ContentHash(a));
  EXPECT_NE(ContentHash(a), ContentHash(b));
  EXPECT_NE(ContentHash(a), ContentHash(prefix));
  EXPECT_NE(ContentHash({}), ContentHash(prefix));
}

// --------------------------------------------------------------------------
// LatencyRecorder

TEST(LatencyRecorderTest, NearestRankPercentiles) {
  std::vector<double> one_to_hundred;
  for (int i = 1; i <= 100; ++i) one_to_hundred.push_back(i);
  EXPECT_EQ(NearestRankPercentile(one_to_hundred, 50.0), 50.0);
  EXPECT_EQ(NearestRankPercentile(one_to_hundred, 95.0), 95.0);
  EXPECT_EQ(NearestRankPercentile(one_to_hundred, 99.0), 99.0);
  EXPECT_EQ(NearestRankPercentile(one_to_hundred, 100.0), 100.0);
  EXPECT_EQ(NearestRankPercentile(one_to_hundred, 0.0), 1.0);
  EXPECT_EQ(NearestRankPercentile({}, 50.0), 0.0);
  EXPECT_EQ(NearestRankPercentile({7.0}, 99.0), 7.0);
}

TEST(LatencyRecorderTest, SnapshotAggregatesAndWindows) {
  LatencyRecorder recorder(/*window_capacity=*/100);
  for (int i = 1; i <= 100; ++i) recorder.Record(i);
  const LatencySnapshot snap = recorder.Snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.window, 100u);
  EXPECT_EQ(snap.max_us, 100.0);
  EXPECT_DOUBLE_EQ(snap.mean_us, 50.5);
  EXPECT_EQ(snap.p50_us, 50.0);
  EXPECT_EQ(snap.p95_us, 95.0);
  EXPECT_EQ(snap.p99_us, 99.0);
}

TEST(LatencyRecorderTest, WindowBoundsPercentilesButNotTotals) {
  LatencyRecorder recorder(/*window_capacity=*/4);
  for (int i = 1; i <= 8; ++i) recorder.Record(i);
  const LatencySnapshot snap = recorder.Snapshot();
  EXPECT_EQ(snap.count, 8u);   // all-time
  EXPECT_EQ(snap.window, 4u);  // percentile window: {5, 6, 7, 8}
  EXPECT_EQ(snap.max_us, 8.0);
  EXPECT_EQ(snap.p50_us, 6.0);
  EXPECT_EQ(snap.p99_us, 8.0);
  // Negative samples clamp instead of corrupting the aggregates.
  recorder.Record(-5.0);
  EXPECT_EQ(recorder.Snapshot().max_us, 8.0);
}

// --------------------------------------------------------------------------
// CutCoalescedBatch: the batch cut, without threads

// A queued element: its coalescing key plus an id naming its queue slot.
struct Item {
  std::uint64_t hash;
  std::vector<double> values;
  int id;
};

CoalesceKey KeyOf(const Item& item) {
  return CoalesceKey{item.hash, item.values};
}

// A queue whose element i holds content contents[i], hashed honestly.
std::deque<Item> QueueOf(const std::vector<double>& contents) {
  std::deque<Item> queue;
  for (std::size_t i = 0; i < contents.size(); ++i) {
    const std::vector<double> values{contents[i]};
    queue.push_back(Item{ContentHash(values), values, static_cast<int>(i)});
  }
  return queue;
}

std::vector<std::vector<int>> Ids(const std::vector<std::vector<Item>>& cut) {
  std::vector<std::vector<int>> ids;
  for (const auto& group : cut) {
    ids.emplace_back();
    for (const Item& item : group) ids.back().push_back(item.id);
  }
  return ids;
}

std::vector<int> Ids(const std::deque<Item>& queue) {
  std::vector<int> ids;
  for (const Item& item : queue) ids.push_back(item.id);
  return ids;
}

TEST(QueryServiceCutTest, PullsDuplicatesBeyondMaxBatch) {
  // Contents A B C A D B A: max_batch 2 takes A and B, and with them every
  // later A and B, however far back in the queue they sit.
  std::deque<Item> queue = QueueOf({1, 2, 3, 1, 4, 2, 1});
  const auto cut = CutCoalescedBatch(queue, 2, KeyOf);
  EXPECT_EQ(Ids(cut), (std::vector<std::vector<int>>{{0, 3, 6}, {1, 5}}));
  EXPECT_EQ(Ids(queue), (std::vector<int>{2, 4}));
}

TEST(QueryServiceCutTest, MaxBatchCountsDistinctContents) {
  // 40 requests over 3 contents: one cut of max_batch 3 takes all of them.
  std::vector<double> contents;
  for (int i = 0; i < 40; ++i) contents.push_back(i % 3);
  std::deque<Item> queue = QueueOf(contents);
  auto cut = CutCoalescedBatch(queue, 3, KeyOf);
  ASSERT_EQ(cut.size(), 3u);
  EXPECT_EQ(cut[0].size() + cut[1].size() + cut[2].size(), 40u);
  EXPECT_TRUE(queue.empty());

  // 40 distinct contents: max_batch 32 takes exactly the first 32.
  contents.clear();
  for (int i = 0; i < 40; ++i) contents.push_back(i);
  queue = QueueOf(contents);
  cut = CutCoalescedBatch(queue, 32, KeyOf);
  ASSERT_EQ(cut.size(), 32u);
  for (std::size_t g = 0; g < cut.size(); ++g) {
    ASSERT_EQ(cut[g].size(), 1u);
    EXPECT_EQ(cut[g][0].id, static_cast<int>(g));
  }
  EXPECT_EQ(Ids(queue), (std::vector<int>{32, 33, 34, 35, 36, 37, 38, 39}));

  // An empty queue cuts nothing.
  queue.clear();
  EXPECT_TRUE(CutCoalescedBatch(queue, 32, KeyOf).empty());
}

TEST(QueryServiceCutTest, RestKeepsEdfOrder) {
  // Every element the cut leaves behind keeps its relative order, and a
  // second cut resumes from the new head: the queue order is what the
  // EDF insert made it, minus the taken elements.
  std::deque<Item> queue = QueueOf({5, 6, 7, 5, 8, 9, 6, 10, 7, 11});
  const auto first = CutCoalescedBatch(queue, 2, KeyOf);
  EXPECT_EQ(Ids(first), (std::vector<std::vector<int>>{{0, 3}, {1, 6}}));
  EXPECT_EQ(Ids(queue), (std::vector<int>{2, 4, 5, 7, 8, 9}));
  const auto second = CutCoalescedBatch(queue, 2, KeyOf);
  EXPECT_EQ(Ids(second), (std::vector<std::vector<int>>{{2, 8}, {4}}));
  EXPECT_EQ(Ids(queue), (std::vector<int>{5, 7, 9}));
}

TEST(QueryServiceCutTest, EqualHashesWithDifferentValuesNeverMerge) {
  // Every element forced onto one hash: groups still split by value, and
  // the bucket collision costs no slot a distinct content would fill.
  std::deque<Item> queue = QueueOf({1, 2, 1, 3, 2});
  for (Item& item : queue) item.hash = 42;
  const auto cut = CutCoalescedBatch(queue, 2, KeyOf);
  EXPECT_EQ(Ids(cut), (std::vector<std::vector<int>>{{0, 2}, {1, 4}}));
  EXPECT_EQ(Ids(queue), (std::vector<int>{3}));
  // -0.0 and +0.0 compare equal but differ by bits: never merged either.
  std::deque<Item> zeros = QueueOf({0.0, -0.0});
  zeros[1].hash = zeros[0].hash;
  EXPECT_EQ(CutCoalescedBatch(zeros, 2, KeyOf).size(), 2u);
}

// --------------------------------------------------------------------------
// QueryService

// The pinned cornerstone: hits through the service — any trigger, any
// batch composition, cached or not — are bitwise identical to a direct
// BatchKnnEngine::QueryBatch of the same query.
TEST(QueryServiceTest, HitsBitwiseIdenticalToDirectBatch) {
  const ts::Dataset ds = SmallGun(18);
  KnnEngine engine;
  engine.Index(ds);
  const std::vector<ts::TimeSeries> queries(ds.begin(), ds.begin() + 6);
  const auto expected = DirectHits(engine, queries, 3);

  struct Config {
    const char* name;
    ServiceOptions options;
  };
  std::vector<Config> configs;
  {
    ServiceOptions size_trigger;  // batch cut by size: 6 queries, batch 2
    size_trigger.max_batch = 2;
    size_trigger.max_delay = std::chrono::duration_cast<microseconds>(
        std::chrono::seconds(10));
    configs.push_back({"size-trigger", size_trigger});

    ServiceOptions deadline_trigger;  // batch cut by deadline only
    deadline_trigger.max_batch = 64;
    deadline_trigger.max_delay = microseconds(1000);
    configs.push_back({"deadline-trigger", deadline_trigger});

    ServiceOptions batch_of_one;  // no coalescing at all
    batch_of_one.max_batch = 1;
    batch_of_one.max_delay = microseconds(0);
    configs.push_back({"batch-of-1", batch_of_one});

    ServiceOptions uncached;  // cache off: derive every time
    uncached.cache_capacity = 0;
    uncached.max_batch = 4;
    uncached.max_delay = microseconds(500);
    configs.push_back({"uncached", uncached});
  }

  for (const Config& config : configs) {
    QueryService service(engine, config.options);
    std::vector<std::future<QueryService::Result>> futures;
    for (const ts::TimeSeries& q : queries) {
      auto f = service.Submit(q, 3);
      ASSERT_TRUE(f.has_value()) << config.name;
      futures.push_back(std::move(*f));
    }
    for (std::size_t q = 0; q < queries.size(); ++q) {
      if (const auto hits = GetHits(futures[q], config.name)) {
        ExpectSameHits(*hits, expected[q], config.name);
      }
    }
    service.Shutdown();
    const ServiceMetrics m = service.metrics();
    EXPECT_EQ(m.submitted, queries.size()) << config.name;
    EXPECT_EQ(m.completed, queries.size()) << config.name;
    EXPECT_EQ(m.rejected, 0u) << config.name;
    EXPECT_GE(m.batches, 1u) << config.name;
    EXPECT_EQ(m.completed, m.ok + m.failed + m.deadline_exceeded + m.invalid)
        << config.name;
    if (!FaultsArmed()) {
      EXPECT_EQ(m.latency.count, queries.size()) << config.name;
    }
    EXPECT_LE(m.latency.p50_us, m.latency.p95_us) << config.name;
    EXPECT_LE(m.latency.p95_us, m.latency.p99_us) << config.name;
  }
}

TEST(QueryServiceTest, ConcurrentSubmittersGetIdenticalHits) {
  const ts::Dataset ds = SmallGun(16);
  KnnEngine engine;
  engine.Index(ds);
  const std::vector<ts::TimeSeries> queries(ds.begin(), ds.begin() + 8);
  const auto expected = DirectHits(engine, queries, 3);

  for (const std::size_t submitters : {1u, 2u, 4u, 8u}) {
    ServiceOptions options;
    options.max_batch = 8;
    options.max_delay = microseconds(500);
    options.queue_capacity = 64;
    QueryService service(engine, options);

    std::vector<std::thread> threads;
    // char, not bool: vector<bool> packs bits into shared words, which
    // would be a real data race across submitter threads.
    std::vector<char> ok(submitters, 0);
    for (std::size_t t = 0; t < submitters; ++t) {
      threads.emplace_back([&, t]() {
        bool all_good = true;
        // Each submitter pushes every query, offset so interleavings mix
        // different queries into the same micro-batches.
        for (std::size_t i = 0; i < queries.size(); ++i) {
          const std::size_t q = (i + t) % queries.size();
          auto f = service.Submit(queries[q], 3);
          if (!f.has_value()) {
            all_good = false;
            continue;
          }
          const QueryService::Result result = f->get();
          if (!result.ok()) {
            // Only a fault-matrix run may fail a request.
            all_good = all_good && FaultsArmed();
            continue;
          }
          const auto& hits = *result;
          if (hits.size() != expected[q].size()) {
            all_good = false;
            continue;
          }
          for (std::size_t h = 0; h < hits.size(); ++h) {
            all_good = all_good && hits[h].index == expected[q][h].index &&
                       hits[h].distance == expected[q][h].distance;
          }
        }
        ok[t] = all_good;
      });
    }
    for (std::thread& t : threads) t.join();
    for (std::size_t t = 0; t < submitters; ++t) {
      EXPECT_TRUE(ok[t]) << submitters << " submitters, thread " << t;
    }
    service.Shutdown();
    EXPECT_EQ(service.metrics().completed, submitters * queries.size())
        << submitters;
  }
}

TEST(QueryServiceTest, CacheHitIdenticalToMiss) {
  const ts::Dataset ds = SmallGun(12);
  KnnEngine engine;
  engine.Index(ds);

  ServiceOptions options;
  options.max_batch = 1;  // one query per batch: the second submit of a
  options.max_delay = microseconds(0);  // query is a guaranteed cache hit
  QueryService service(engine, options);

  const auto first = service.Query(ds[0], 4);   // derivative cache miss
  const auto second = service.Query(ds[0], 4);  // derivative cache hit
  if (!FaultsArmed()) {
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    const ServiceMetrics m = service.metrics();
    EXPECT_EQ(m.cache.misses, 1u);
    EXPECT_EQ(m.cache.hits, 1u);
    EXPECT_EQ(m.cache.insertions, 1u);
  }
  // Cached replay stays bitwise identical whenever both runs complete —
  // fault matrix or not (a faulted fill only skips the cache, never
  // corrupts it).
  if (first.ok() && second.ok()) {
    ExpectSameHits(*second, *first, "cached replay");
  }
}

TEST(QueryServiceTest, CoalescesDuplicatesWithinBatch) {
  // 16 identical requests are one distinct content: the cut that ships
  // them runs one scan and answers the other 15 from it.
  const ts::Dataset ds = SmallGun(12);
  KnnEngine engine;
  engine.Index(ds);
  const auto expected = DirectHits(engine, {ds[1]}, 3)[0];

  ServiceOptions options;
  options.max_batch = 16;  // size trigger: 16 queued requests;
  options.max_delay = std::chrono::duration_cast<microseconds>(
      std::chrono::seconds(10));  // the age trigger can't fire first
  QueryService service(engine, options);

  std::vector<std::future<QueryService::Result>> futures;
  for (int i = 0; i < 16; ++i) {
    auto f = service.Submit(ds[1], 3);
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  for (auto& f : futures) {
    if (const auto hits = GetHits(f, "duplicate")) {
      ExpectSameHits(*hits, expected, "duplicate");
    }
  }

  service.Shutdown();
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.batches, 1u);
  EXPECT_EQ(m.completed, 16u);
  EXPECT_EQ(m.coalesced, 15u);  // one scan answered all 16
}

TEST(QueryServiceTest, MixedKRequestsEachGetTheirOwnK) {
  // Different k on the same and different queries in one batch: each
  // request gets exactly the first k of the full ranking (truncation
  // property), bitwise equal to a dedicated scan at that k.
  const ts::Dataset ds = SmallGun(14);
  KnnEngine engine;
  engine.Index(ds);

  ServiceOptions options;
  options.max_batch = 5;
  options.max_delay = std::chrono::duration_cast<microseconds>(
      std::chrono::seconds(10));
  QueryService service(engine, options);

  struct Want {
    std::size_t query;
    std::size_t k;
  };
  const std::vector<Want> wants{{0, 1}, {0, 4}, {0, 2}, {3, 5}, {3, 1}};
  std::vector<std::future<QueryService::Result>> futures;
  for (const Want& w : wants) {
    auto f = service.Submit(ds[w.query], w.k);
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  for (std::size_t i = 0; i < wants.size(); ++i) {
    const auto expected =
        DirectHits(engine, {ds[wants[i].query]}, wants[i].k)[0];
    if (const auto hits = GetHits(futures[i], "mixed k")) {
      ExpectSameHits(*hits, expected, "mixed k");
    }
  }
}

TEST(QueryServiceTest, DuplicatesAcrossOldBatchBoundariesMatchDirectHits) {
  // 120 requests over 40 distinct queries, queued behind a busy
  // dispatcher. Request i asks for query (7 i) mod 40 at k = 1 + i mod 5,
  // so every query's three requests sit in different 32-request slices of
  // the queue. Each result must equal a direct scan at its own k.
  constexpr std::size_t kDistinct = 40;
  constexpr std::size_t kRequests = 120;
  constexpr std::size_t kMaxK = 5;
  const ts::Dataset ds = SmallGun(kDistinct + 8);
  KnnEngine engine;
  engine.Index(ds);
  const std::vector<ts::TimeSeries> queries(ds.begin(),
                                            ds.begin() + kDistinct);
  std::vector<std::vector<std::vector<Hit>>> expected(kMaxK + 1);
  for (std::size_t k = 1; k <= kMaxK; ++k) {
    expected[k] = DirectHits(engine, queries, k);
  }

  ServiceOptions options;  // max_batch 32, the default
  options.max_delay = microseconds(0);
  options.num_workers = 1;
  options.watchdog_interval = microseconds(0);  // not under test here
  QueryService service(engine, options);
  // Every worker execution sleeps 25ms, so the requests below queue up
  // while the decoy's batch runs.
  core::ScopedFault stall(kFaultSiteWorkerStall, 1.0, 0);

  auto decoy = service.Submit(ds[kDistinct], 3);
  ASSERT_TRUE(decoy.has_value());
  while (service.metrics().batches == 0) {  // the decoy's cut
    std::this_thread::sleep_for(microseconds(200));
  }
  std::vector<std::future<QueryService::Result>> futures;
  for (std::size_t i = 0; i < kRequests; ++i) {
    auto f = service.Submit(queries[(7 * i) % kDistinct], 1 + i % kMaxK);
    ASSERT_TRUE(f.has_value()) << i;
    futures.push_back(std::move(*f));
  }
  // No cut since the decoy's: all 120 were queued at once.
  const bool backlogged = service.metrics().batches == 1;
  RecordProperty("backlogged", backlogged ? 1 : 0);

  for (std::size_t i = 0; i < kRequests; ++i) {
    if (const auto hits = GetHits(futures[i], "straddling duplicate")) {
      ExpectSameHits(*hits, expected[1 + i % kMaxK][(7 * i) % kDistinct],
                     "straddling duplicate");
    }
  }
  GetHits(*decoy, "decoy");
  service.Shutdown();
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.completed, kRequests + 1);
  if (backlogged) {
    // Cut 2: the first 32 distinct queries with all their duplicates;
    // cut 3: the other 8 with theirs. One scan per distinct query.
    EXPECT_EQ(m.batches, 3u);
    EXPECT_EQ(m.coalesced, kRequests - kDistinct);
  }
}

TEST(QueryServiceTest, InvalidQueriesFailFastWithInvalidArgument) {
  const ts::Dataset ds = SmallGun(8);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<ts::TimeSeries> invalid{ts::TimeSeries(std::vector<double>{}, 0)};
  for (const double bad : {nan, inf, -inf}) {
    std::vector<double> values = ds[0].values();
    values[values.size() / 2] = bad;
    invalid.emplace_back(values, 0);
  }

  for (const DistanceKind distance :
       {DistanceKind::kSdtw, DistanceKind::kFullDtw}) {
    KnnOptions knn;
    knn.distance = distance;
    KnnEngine engine(knn);
    engine.Index(ds);
    QueryService service(engine);
    for (const ts::TimeSeries& q : invalid) {
      // The future is ready at once: nothing was queued or scanned.
      auto f = service.Submit(q, 3);
      ASSERT_TRUE(f.has_value());
      ASSERT_EQ(f->wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
      const QueryService::Result result = f->get();
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), core::StatusCode::kInvalidArgument)
          << result.status().ToString();
    }
    EXPECT_EQ(service.Query(invalid[1], 0).status().code(),
              core::StatusCode::kInvalidArgument)
        << "k == 0 does not excuse an invalid query";

    service.Shutdown();
    const ServiceMetrics m = service.metrics();
    EXPECT_EQ(m.invalid, invalid.size() + 1);
    EXPECT_EQ(m.completed, m.ok + m.failed + m.deadline_exceeded + m.invalid);
    EXPECT_EQ(m.completed, invalid.size() + 1);
    EXPECT_EQ(m.submitted, 0u);
    EXPECT_EQ(m.batches, 0u);
    EXPECT_EQ(m.cache.misses, 0u);
  }
}

TEST(QueryServiceTest, ZeroKCompletesEmpty) {
  const ts::Dataset ds = SmallGun(8);
  KnnEngine engine;
  engine.Index(ds);
  QueryService service(engine);
  // k == 0 runs no scan at all, so not even a fault-matrix worker fault
  // can touch it: always ok, always empty.
  const auto result = service.Query(ds[0], 0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->empty());
  EXPECT_EQ(service.metrics().completed, 1u);
}

TEST(QueryServiceTest, ShutdownDrainsInFlightWork) {
  const ts::Dataset ds = SmallGun(12);
  KnnEngine engine;
  engine.Index(ds);
  const std::vector<ts::TimeSeries> queries(ds.begin(), ds.begin() + 5);
  const auto expected = DirectHits(engine, queries, 3);

  ServiceOptions options;
  options.max_batch = 64;  // deadline far away: requests sit queued...
  options.max_delay = std::chrono::duration_cast<microseconds>(
      std::chrono::seconds(30));
  auto service = std::make_unique<QueryService>(engine, options);

  std::vector<std::future<QueryService::Result>> futures;
  for (const ts::TimeSeries& q : queries) {
    auto f = service->Submit(q, 3);
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  // ...until Shutdown, which must complete every admitted request without
  // waiting out the 30s deadline, then refuse new work.
  service->Shutdown();
  for (std::size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(futures[q].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << q;
    if (const auto hits = GetHits(futures[q], "drained")) {
      ExpectSameHits(*hits, expected[q], "drained");
    }
  }
  EXPECT_FALSE(service->Submit(queries[0], 3).has_value());
  const ServiceMetrics m = service->metrics();
  EXPECT_EQ(m.completed, queries.size());
  EXPECT_EQ(m.rejected, 1u);
  service.reset();  // double shutdown via destructor: must be clean
}

TEST(QueryServiceTest, RejectPolicyShedsLoadAtCapacity) {
  const ts::Dataset ds = SmallGun(10);
  KnnEngine engine;
  engine.Index(ds);

  ServiceOptions options;
  options.queue_capacity = 1;
  options.admission = AdmissionPolicy::kReject;
  options.max_batch = 64;  // dispatcher holds the queued request at the
  options.max_delay = std::chrono::duration_cast<microseconds>(
      std::chrono::seconds(30));  // deadline, keeping the queue full
  QueryService service(engine, options);

  auto admitted = service.Submit(ds[0], 3);
  ASSERT_TRUE(admitted.has_value());
  // The queue is at capacity and the dispatcher is parked on the deadline:
  // the second submit must be rejected, deterministically.
  EXPECT_FALSE(service.Submit(ds[1], 3).has_value());

  service.Shutdown();  // drains the admitted request immediately
  if (const auto hits = GetHits(*admitted, "admitted")) {
    ExpectSameHits(*hits, DirectHits(engine, {ds[0]}, 3)[0], "admitted");
  }
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.submitted, 1u);
  EXPECT_EQ(m.rejected, 1u);
  EXPECT_EQ(m.completed, 1u);
}

TEST(QueryServiceTest, RejectPolicyQueryReportsWhyItWasRefused) {
  const ts::Dataset ds = SmallGun(10);
  KnnEngine engine;
  engine.Index(ds);

  ServiceOptions options;
  options.queue_capacity = 1;
  options.admission = AdmissionPolicy::kReject;
  options.max_batch = 64;  // the dispatcher holds the queued request, as
  options.max_delay = std::chrono::duration_cast<microseconds>(
      std::chrono::seconds(30));  // above
  QueryService service(engine, options);

  auto admitted = service.Submit(ds[0], 3);
  ASSERT_TRUE(admitted.has_value());
  // A full queue is a capacity refusal: retrying later can succeed.
  const QueryService::Result full = service.Query(ds[1], 3);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), core::StatusCode::kResourceExhausted)
      << full.status().ToString();

  service.Shutdown();
  ASSERT_TRUE(admitted->get().ok());
  // A shut-down service never admits again.
  const QueryService::Result closed = service.Query(ds[1], 3);
  ASSERT_FALSE(closed.ok());
  EXPECT_EQ(closed.status().code(), core::StatusCode::kUnavailable)
      << closed.status().ToString();
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.submitted, 1u);
  EXPECT_EQ(m.rejected, 2u);
}

TEST(QueryServiceTest, BlockPolicyAppliesBackpressureThenAdmits) {
  const ts::Dataset ds = SmallGun(10);
  KnnEngine engine;
  engine.Index(ds);

  ServiceOptions options;
  options.queue_capacity = 1;
  options.admission = AdmissionPolicy::kBlock;
  options.max_batch = 64;
  options.max_delay = microseconds(20'000);  // queue drains every 20ms
  QueryService service(engine, options);

  // 6 sequential submits through a capacity-1 queue: most of them find the
  // queue full and must park until the dispatcher ships a batch. All are
  // eventually admitted and answered correctly.
  const auto expected = DirectHits(engine, {ds[2]}, 3)[0];
  std::vector<std::future<QueryService::Result>> futures;
  std::thread submitter([&]() {
    for (int i = 0; i < 6; ++i) {
      auto f = service.Submit(ds[2], 3);
      ASSERT_TRUE(f.has_value()) << i;
      futures.push_back(std::move(*f));
    }
  });
  submitter.join();
  for (auto& f : futures) {
    if (const auto hits = GetHits(f, "blocked")) {
      ExpectSameHits(*hits, expected, "blocked");
    }
  }
  service.Shutdown();
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.submitted, 6u);
  EXPECT_EQ(m.rejected, 0u);
  EXPECT_EQ(m.completed, 6u);
}

}  // namespace
}  // namespace retrieval
}  // namespace sdtw
