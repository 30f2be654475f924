#include "align/consistency.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ts/stats.h"

namespace sdtw {
namespace align {

namespace {

// Mean absolute value of the series within [start, end] (clamped).
double ScopeAmplitude(const ts::TimeSeries& s, double start, double end) {
  if (s.empty()) return 0.0;
  const std::size_t b = static_cast<std::size_t>(
      std::clamp(start, 0.0, static_cast<double>(s.size() - 1)));
  const std::size_t e = static_cast<std::size_t>(
      std::clamp(end, 0.0, static_cast<double>(s.size() - 1)));
  if (e < b) return 0.0;
  return ts::MeanAbs(
      std::span<const double>(s.values().data() + b, e - b + 1));
}

// Clamps a keypoint's scope to the series range.
void ClampScope(const sift::Keypoint& kp, std::size_t len, double* start,
                double* end) {
  const double maxi = len > 0 ? static_cast<double>(len - 1) : 0.0;
  *start = std::clamp(kp.position - kp.scope_radius(), 0.0, maxi);
  *end = std::clamp(kp.position + kp.scope_radius(), 0.0, maxi);
}

// Committed boundary time points of one series, with the
// hypothetical-insertion rank queries the pruning loop needs. RankOf counts,
// so the points need no order.
class BoundaryList {
 public:
  // Rank the value would take if inserted: number of committed values
  // strictly smaller. Equal values share a rank (paper footnote 1: ties on
  // identical time values are treated as compatible).
  std::size_t RankOf(double v) const {
    std::size_t r = 0;
    for (double c : committed_) {
      if (c < v - kTieEps) ++r;
    }
    return r;
  }

  void Insert(double v) { committed_.push_back(v); }

 private:
  static constexpr double kTieEps = 1e-9;
  std::vector<double> committed_;
};

}  // namespace

PairScores ScorePair(const ts::TimeSeries& x, const ts::TimeSeries& y,
                     const sift::Keypoint& fx, const sift::Keypoint& fy,
                     double descriptor_distance) {
  PairScores s;
  const double scope_sum = fx.scope_length() + fy.scope_length();
  s.mu_align = (scope_sum / 2.0) / (1.0 + std::abs(fx.position - fy.position));
  s.mu_desc = 1.0 / (1.0 + descriptor_distance);
  double sx, ex, sy, ey;
  ClampScope(fx, x.size(), &sx, &ex);
  ClampScope(fy, y.size(), &sy, &ey);
  const double ax = ScopeAmplitude(x, sx, ex);
  const double ay = ScopeAmplitude(y, sy, ey);
  const double denom = std::max(std::max(ax, ay), 1e-12);
  s.delta_amp = std::clamp(std::abs(ax - ay) / denom, 0.0, 1.0);
  return s;
}

std::vector<AlignedPair> PruneInconsistent(
    const ts::TimeSeries& x, const ts::TimeSeries& y,
    const std::vector<sift::Keypoint>& keypoints_x,
    const std::vector<sift::Keypoint>& keypoints_y,
    const std::vector<MatchPair>& pairs, const ConsistencyOptions& options) {
  std::vector<AlignedPair> result;
  if (pairs.empty()) return result;

  // Step 1: raw scores.
  struct Candidate {
    MatchPair match;
    PairScores scores;
    double mu_sim = 0.0;
    double mu_comb = 0.0;
  };
  std::vector<Candidate> cands;
  cands.reserve(pairs.size());
  double mu_desc_min = std::numeric_limits<double>::infinity();
  for (const MatchPair& p : pairs) {
    if (p.index_x >= keypoints_x.size() || p.index_y >= keypoints_y.size()) {
      continue;
    }
    Candidate c;
    c.match = p;
    c.scores = ScorePair(x, y, keypoints_x[p.index_x], keypoints_y[p.index_y],
                         p.descriptor_distance);
    mu_desc_min = std::min(mu_desc_min, c.scores.mu_desc);
    cands.push_back(std::move(c));
  }
  if (cands.empty()) return result;
  if (mu_desc_min <= 0.0) mu_desc_min = 1e-12;

  // µ_sim = (µ_desc / µ_desc_min) × (1 − Δ_amp); then normalise both scores
  // by their maxima and combine with the F-measure.
  double max_align = 0.0;
  double max_sim = 0.0;
  for (Candidate& c : cands) {
    c.mu_sim = (c.scores.mu_desc / mu_desc_min) * (1.0 - c.scores.delta_amp);
    max_align = std::max(max_align, c.scores.mu_align);
    max_sim = std::max(max_sim, c.mu_sim);
  }
  if (max_align <= 0.0) max_align = 1.0;
  if (max_sim <= 0.0) max_sim = 1.0;
  for (Candidate& c : cands) {
    const double ns_align = c.scores.mu_align / max_align;
    const double ns_sim = c.mu_sim / max_sim;
    const double denom = ns_align + ns_sim;
    c.mu_comb = denom > 0.0 ? 2.0 * ns_align * ns_sim / denom : 0.0;
  }

  // Step 2: greedy commit in descending µ_comb order. A stable insertion
  // sort: there are only a handful of candidates, and equal µ_comb keep
  // their matching order.
  for (std::size_t i = 1; i < cands.size(); ++i) {
    Candidate c = cands[i];
    std::size_t k = i;
    for (; k > 0 && c.mu_comb > cands[k - 1].mu_comb; --k) {
      cands[k] = cands[k - 1];
    }
    cands[k] = c;
  }
  BoundaryList order_x, order_y;
  std::vector<char> used_x(keypoints_x.size(), 0);
  std::vector<char> used_y(keypoints_y.size(), 0);
  for (const Candidate& c : cands) {
    if (options.unique_features &&
        (used_x[c.match.index_x] || used_y[c.match.index_y])) {
      continue;
    }
    const sift::Keypoint& fx = keypoints_x[c.match.index_x];
    const sift::Keypoint& fy = keypoints_y[c.match.index_y];
    AlignedPair ap;
    ap.index_x = c.match.index_x;
    ap.index_y = c.match.index_y;
    ClampScope(fx, x.size(), &ap.start_x, &ap.end_x);
    ClampScope(fy, y.size(), &ap.start_y, &ap.end_y);
    ap.mu_align = c.scores.mu_align;
    ap.mu_sim = c.mu_sim;
    ap.mu_comb = c.mu_comb;

    // Hypothetical insertion ranks. The start and end of the same feature
    // are inserted together, so the end's rank counts the start as already
    // present when start < end.
    const std::size_t rank_st_x = order_x.RankOf(ap.start_x);
    const std::size_t rank_st_y = order_y.RankOf(ap.start_y);
    std::size_t rank_end_x = order_x.RankOf(ap.end_x);
    std::size_t rank_end_y = order_y.RankOf(ap.end_y);
    if (ap.start_x < ap.end_x) ++rank_end_x;
    if (ap.start_y < ap.end_y) ++rank_end_y;

    if (rank_st_x == rank_st_y && rank_end_x == rank_end_y) {
      order_x.Insert(ap.start_x);
      order_x.Insert(ap.end_x);
      order_y.Insert(ap.start_y);
      order_y.Insert(ap.end_y);
      used_x[ap.index_x] = 1;
      used_y[ap.index_y] = 1;
      result.push_back(std::move(ap));
    }
    // Else: drop the pair; its boundaries are not committed.
  }

  std::sort(result.begin(), result.end(),
            [](const AlignedPair& a, const AlignedPair& b) {
              return a.start_x < b.start_x;
            });
  return result;
}

std::vector<IntervalPair> BuildIntervals(
    std::size_t len_x, std::size_t len_y,
    const std::vector<AlignedPair>& pairs) {
  std::vector<IntervalPair> intervals;
  if (len_x == 0 || len_y == 0) return intervals;

  // Collect committed boundaries (they are rank-consistent by construction,
  // so sorting each side independently preserves the correspondence).
  std::vector<double> bx, by;
  bx.reserve(pairs.size() * 2);
  by.reserve(pairs.size() * 2);
  for (const AlignedPair& p : pairs) {
    bx.push_back(p.start_x);
    bx.push_back(p.end_x);
    by.push_back(p.start_y);
    by.push_back(p.end_y);
  }
  std::sort(bx.begin(), bx.end());
  std::sort(by.begin(), by.end());

  // Cut points: 0, boundaries, len-1 (in samples, rounded).
  auto cuts = [](const std::vector<double>& b, std::size_t len) {
    std::vector<std::size_t> c;
    c.push_back(0);
    for (double v : b) {
      const std::size_t s = static_cast<std::size_t>(
          std::clamp(std::llround(v), 0LL, static_cast<long long>(len - 1)));
      c.push_back(s);
    }
    c.push_back(len - 1);
    // Keep monotone (duplicates allowed; they become empty intervals the
    // band builders must bridge).
    for (std::size_t i = 1; i < c.size(); ++i) {
      c[i] = std::max(c[i], c[i - 1]);
    }
    return c;
  };
  const std::vector<std::size_t> cx = cuts(bx, len_x);
  const std::vector<std::size_t> cy = cuts(by, len_y);
  // Same boundary count on both sides by construction.
  const std::size_t segments = cx.size() - 1;
  intervals.reserve(segments);
  for (std::size_t k = 0; k < segments; ++k) {
    IntervalPair ip;
    ip.begin_x = cx[k];
    ip.end_x = std::max(cx[k + 1], cx[k]);
    ip.begin_y = cy[k];
    ip.end_y = std::max(cy[k + 1], cy[k]);
    intervals.push_back(ip);
  }
  return intervals;
}

}  // namespace align
}  // namespace sdtw
