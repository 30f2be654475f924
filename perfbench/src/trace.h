#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_
/// \file trace.h
/// \brief In-memory spans recorded by the benchmark around calls into each
/// layer's public functions.
///
/// A span has a name, a start and end (ns on the steady clock), the span
/// that caused it and a request id shared by every span of one request.
/// Spans stay in memory and are written out once, when the run ends. A
/// layer's self time is its span's duration minus the part of that
/// interval its child spans cover (children of parallel workers may
/// overlap; their union is subtracted, clipped to the parent).
///
/// A disabled Tracer records nothing: Begin returns kNoSpan without
/// reading the clock, so untraced runs pay one branch per call site.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using SpanId = std::int64_t;
inline constexpr SpanId kNoSpan = -1;

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  SpanId parent = kNoSpan;
  std::uint64_t request = 0;
};

/// Nanoseconds on the steady clock.
std::int64_t NowNs();

/// Self time (ns) of every span: duration minus the union of its direct
/// children's intervals, clipped to the span. Index-aligned with `spans`.
std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans);

/// \brief Per-name totals over a span set.
struct SpanSummary {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::map<std::string, SpanSummary> Summarize(const std::vector<Span>& spans);

/// \brief Thread-safe span recorder.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; kNoSpan when disabled.
  SpanId Begin(const char* name, SpanId parent = kNoSpan,
               std::uint64_t request = 0);
  void End(SpanId id);
  /// Records a span whose interval was measured by the caller.
  SpanId Record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                SpanId parent = kNoSpan, std::uint64_t request = 0);

  std::vector<Span> spans() const;

  /// Writes every span as one JSON document; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// \brief RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, SpanId parent = kNoSpan,
             std::uint64_t request = 0)
      : tracer_(tracer), id_(tracer.Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  SpanId id() const { return id_; }

 private:
  Tracer& tracer_;
  const SpanId id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
