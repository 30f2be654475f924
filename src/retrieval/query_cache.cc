#include "retrieval/query_cache.h"

#include <bit>
#include <cstring>
#include <utility>

namespace sdtw {
namespace retrieval {

namespace {

/// FNV-1a 64-bit offset basis / prime (public-domain constants).
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x00000100000001b3ULL;

inline std::uint64_t FnvMix(std::uint64_t h, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (word >> (8 * byte)) & 0xffULL;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

std::uint64_t ContentHash(std::span<const double> values) {
  std::uint64_t h = FnvMix(kFnvOffset, values.size());
  for (double v : values) h = FnvMix(h, std::bit_cast<std::uint64_t>(v));
  return h;
}

bool SameContent(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

QueryDerivativeCache::QueryDerivativeCache(std::size_t capacity)
    : capacity_(capacity) {}

std::shared_ptr<const QueryContext> QueryDerivativeCache::Lookup(
    std::uint64_t hash, std::span<const double> values) {
  if (capacity_ == 0) return nullptr;
  core::MutexLock lock(mu_);
  auto it = by_hash_.find(hash);
  if (it == by_hash_.end() || !SameContent(it->second->values, values)) {
    ++counters_.misses;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  ++counters_.hits;
  return it->second->context;
}

void QueryDerivativeCache::Insert(std::uint64_t hash,
                                  std::span<const double> values,
                                  std::shared_ptr<const QueryContext> context) {
  if (capacity_ == 0) return;
  Entry entry;
  entry.hash = hash;
  entry.values.assign(values.begin(), values.end());
  entry.context = std::move(context);

  core::MutexLock lock(mu_);
  if (auto it = by_hash_.find(hash); it != by_hash_.end()) {
    // Same content re-derived by racing misses (or a colliding key —
    // either way the newest wins): replace in place, refresh recency.
    *it->second = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    ++counters_.insertions;
    return;
  }
  if (lru_.size() >= capacity_) {
    by_hash_.erase(lru_.back().hash);
    lru_.pop_back();
    ++counters_.evictions;
  }
  lru_.push_front(std::move(entry));
  by_hash_[hash] = lru_.begin();
  ++counters_.insertions;
}

QueryDerivativeCache::Counters QueryDerivativeCache::counters() const {
  core::MutexLock lock(mu_);
  return counters_;
}

std::size_t QueryDerivativeCache::size() const {
  core::MutexLock lock(mu_);
  return lru_.size();
}

}  // namespace retrieval
}  // namespace sdtw
