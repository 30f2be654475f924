#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = std::max<std::int64_t>(0, hi - lo) - covered;
  }
  return self;
}

std::map<std::string, SpanSummary> Summarize(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = SelfTimes(spans);
  std::map<std::string, SpanSummary> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanSummary& s = out[spans[i].name];
    ++s.count;
    s.total_s += 1e-9 * static_cast<double>(spans[i].end_ns -
                                            spans[i].start_ns);
    s.self_s += 1e-9 * static_cast<double>(self[i]);
  }
  return out;
}

SpanId Tracer::Begin(const char* name, SpanId parent, std::uint64_t request) {
  if (!enabled_) return kNoSpan;
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, now, now, parent, request});
  return static_cast<SpanId>(spans_.size() - 1);
}

void Tracer::End(SpanId id) {
  if (id == kNoSpan) return;
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = now;
}

SpanId Tracer::Record(const char* name, std::int64_t start_ns,
                      std::int64_t end_ns, SpanId parent,
                      std::uint64_t request) {
  if (!enabled_) return kNoSpan;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<SpanId>(spans_.size() - 1);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJson(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<std::int64_t> self = SelfTimes(all);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %lld, \"request\": %llu, "
                 "\"self_ns\": %lld}%s\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(self[i]),
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
