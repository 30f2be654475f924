#include "align/matching.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

namespace sdtw {
namespace align {

namespace {

// Descriptor pairs whose distances are summed side by side: independent
// dependency chains that hide the floating-point add latency.
constexpr std::size_t kLanes = 4;

// Squared Euclidean distances of `Lanes` descriptor pairs (qs[l], ds[l]),
// all of length `len`, one accumulator per lane. Every lane sums
// d = 0..len-1 in order, so each result is bitwise the one-lane loop's.
template <std::size_t Lanes>
void SquaredDistances(const double* const* qs, const double* const* ds,
                      std::size_t len, double* out) {
  double acc[Lanes] = {};
  for (std::size_t d = 0; d < len; ++d) {
    for (std::size_t l = 0; l < Lanes; ++l) {
      const double diff = qs[l][d] - ds[l][d];
      acc[l] += diff * diff;
    }
  }
  for (std::size_t l = 0; l < Lanes; ++l) out[l] = acc[l];
}

// True when the pair passes the amplitude, scale and position threshold
// tests. max_shift < 0 disables the position test. Evaluated without
// short-circuits: about a third of all pairs pass, so the outcome is
// unpredictable and a branch per test costs more than the tests.
bool PassesThresholds(const sift::Keypoint& a, const sift::Keypoint& b,
                      const MatchingOptions& options, double max_shift) {
  const double s1 = std::max(a.sigma, 1e-9);
  const double s2 = std::max(b.sigma, 1e-9);
  const double ratio = s1 > s2 ? s1 / s2 : s2 / s1;
  return !(std::abs(a.amplitude - b.amplitude) > options.tau_amplitude) &
         !(max_shift >= 0.0 && std::abs(a.position - b.position) > max_shift) &
         (ratio <= options.tau_scale);
}

// The threshold-passing candidates of a run of keypoints with their squared
// descriptor distances: keypoint t's candidates are entries
// begin[t]..begin[t+1]-1, in index order.
struct Candidates {
  std::vector<std::size_t> begin;
  std::vector<std::size_t> index;  // into the candidate keypoint vector
  std::vector<double> sq;          // +inf on a descriptor-length mismatch
};

// Gathers the candidates of every keypoint of `as` in `ys`, then sums all
// their distances in full, kLanes pairs at a time across keypoints. A short
// last batch repeats its first pair in the unused lanes and discards them.
void ScoreCandidates(std::span<const sift::Keypoint> as,
                     const std::vector<sift::Keypoint>& ys,
                     const MatchingOptions& options, double max_shift,
                     Candidates& out) {
  out.begin.resize(as.size() + 1);
  out.index.resize(as.size() * ys.size());
  std::size_t n = 0;
  for (std::size_t t = 0; t < as.size(); ++t) {
    out.begin[t] = n;
    for (std::size_t j = 0; j < ys.size(); ++j) {
      out.index[n] = j;
      n += PassesThresholds(as[t], ys[j], options, max_shift);
    }
  }
  out.begin[as.size()] = n;
  out.index.resize(n);
  out.sq.resize(out.index.size());

  const double* qs[kLanes];
  const double* ds[kLanes];
  std::size_t slots[kLanes];
  std::size_t filled = 0;
  std::size_t len = 0;
  auto flush = [&] {
    for (std::size_t l = filled; l < kLanes; ++l) {
      qs[l] = qs[0];
      ds[l] = ds[0];
    }
    double sums[kLanes];
    SquaredDistances<kLanes>(qs, ds, len, sums);
    for (std::size_t l = 0; l < filled; ++l) out.sq[slots[l]] = sums[l];
    filled = 0;
  };
  for (std::size_t t = 0; t < as.size(); ++t) {
    const std::vector<double>& q = as[t].descriptor;
    for (std::size_t c = out.begin[t]; c < out.begin[t + 1]; ++c) {
      const std::vector<double>& d = ys[out.index[c]].descriptor;
      if (d.size() != q.size()) {
        out.sq[c] = std::numeric_limits<double>::infinity();
        continue;
      }
      if (filled > 0 && q.size() != len) flush();
      len = q.size();
      qs[filled] = q.data();
      ds[filled] = d.data();
      slots[filled] = c;
      if (++filled == kLanes) flush();
    }
  }
  if (filled > 0) flush();
}

// Best and second-best candidate of keypoint t, by a strict `<` scan in
// index order. Returns false when t has no candidate, or none at a distance
// below +inf (length mismatch or NaN).
bool BestTwo(const Candidates& cands, std::size_t t, std::size_t* best_idx,
             double* best_dist, double* second_dist) {
  double best_sq = std::numeric_limits<double>::infinity();
  double second_sq = std::numeric_limits<double>::infinity();
  bool found = false;
  for (std::size_t c = cands.begin[t]; c < cands.begin[t + 1]; ++c) {
    const double sq = cands.sq[c];
    if (sq < best_sq) {
      second_sq = best_sq;
      best_sq = sq;
      *best_idx = cands.index[c];
      found = true;
    } else if (sq < second_sq) {
      second_sq = sq;
    }
  }
  *best_dist = std::sqrt(best_sq);
  *second_dist = std::sqrt(second_sq);
  return found;
}

}  // namespace

double DescriptorDistance(const std::vector<double>& a,
                          const std::vector<double>& b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  const double* q = a.data();
  const double* d = b.data();
  double sq = 0.0;
  SquaredDistances<1>(&q, &d, a.size(), &sq);
  return std::sqrt(sq);
}

std::vector<MatchPair> FindDominantPairs(
    const std::vector<sift::Keypoint>& keypoints_x,
    const std::vector<sift::Keypoint>& keypoints_y,
    const MatchingOptions& options, std::size_t len_x, std::size_t len_y) {
  const double max_shift =
      (options.tau_position > 0.0 && len_x > 0 && len_y > 0)
          ? options.tau_position * static_cast<double>(std::max(len_x, len_y))
          : -1.0;
  std::vector<MatchPair> pairs;
  Candidates forward, back;
  ScoreCandidates(keypoints_x, keypoints_y, options, max_shift, forward);
  for (std::size_t i = 0; i < keypoints_x.size(); ++i) {
    std::size_t best_j = 0;
    double best = 0.0, second = 0.0;
    if (!BestTwo(forward, i, &best_j, &best, &second)) continue;
    // Distinctiveness: the winner must beat the runner-up by the factor
    // τ_d. When only one candidate exists, second is +inf and the test
    // passes trivially.
    if (best * options.tau_distinct > second) continue;
    if (options.require_mutual) {
      ScoreCandidates(std::span(&keypoints_y[best_j], 1), keypoints_x,
                      options, max_shift, back);
      std::size_t back_i = 0;
      double back_best = 0.0, back_second = 0.0;
      if (!BestTwo(back, 0, &back_i, &back_best, &back_second) ||
          back_i != i) {
        continue;
      }
    }
    pairs.push_back(MatchPair{i, best_j, best});
  }
  return pairs;
}

}  // namespace align
}  // namespace sdtw
