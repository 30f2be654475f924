// Differential tests of the band-construction stages against straightforward
// reference implementations kept here: the matching loop that abandons each
// descriptor sum at the running second best, pruning over node-based
// ordered containers with std::stable_sort, and per-row linear interval
// scans with libm floor/ceil rounding. FindDominantPairs,
// PruneInconsistent, AdaptiveWidths, BuildConstraintBand and
// Sdtw::BuildBand must agree with them bit for bit on random inputs that
// include ties, mixed descriptor lengths, NaN descriptor entries, empty
// keypoint sets, degenerate and non-contiguous interval lists.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "align/consistency.h"
#include "align/matching.h"
#include "core/constraints.h"
#include "core/sdtw.h"
#include "data/generators.h"
#include "ts/random.h"
#include "ts/stats.h"
#include "ts/transforms.h"

namespace sdtw {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------------
// Reference implementations.

namespace ref {

bool PassesThresholds(const sift::Keypoint& a, const sift::Keypoint& b,
                      const align::MatchingOptions& options,
                      double max_shift) {
  if (std::abs(a.amplitude - b.amplitude) > options.tau_amplitude) {
    return false;
  }
  if (max_shift >= 0.0 && std::abs(a.position - b.position) > max_shift) {
    return false;
  }
  const double s1 = std::max(a.sigma, 1e-9);
  const double s2 = std::max(b.sigma, 1e-9);
  const double ratio = s1 > s2 ? s1 / s2 : s2 / s1;
  return ratio <= options.tau_scale;
}

double SquaredDistanceEarlyAbandon(const std::vector<double>& a,
                                   const std::vector<double>& b,
                                   double cutoff_sq) {
  if (a.size() != b.size()) return kInf;
  double sq = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sq += d * d;
    if (sq > cutoff_sq) return sq;
  }
  return sq;
}

bool BestTwo(const sift::Keypoint& a, const std::vector<sift::Keypoint>& ys,
             const align::MatchingOptions& options, double max_shift,
             std::size_t* best_idx, double* best_dist, double* second_dist) {
  double best_sq = kInf;
  double second_sq = kInf;
  bool found = false;
  for (std::size_t j = 0; j < ys.size(); ++j) {
    if (!PassesThresholds(a, ys[j], options, max_shift)) continue;
    const double sq =
        SquaredDistanceEarlyAbandon(a.descriptor, ys[j].descriptor, second_sq);
    if (sq < best_sq) {
      second_sq = best_sq;
      best_sq = sq;
      *best_idx = j;
      found = true;
    } else if (sq < second_sq) {
      second_sq = sq;
    }
  }
  *best_dist = std::sqrt(best_sq);
  *second_dist = std::sqrt(second_sq);
  return found;
}

std::vector<align::MatchPair> FindDominantPairs(
    const std::vector<sift::Keypoint>& kx,
    const std::vector<sift::Keypoint>& ky,
    const align::MatchingOptions& options, std::size_t len_x,
    std::size_t len_y) {
  const double max_shift =
      (options.tau_position > 0.0 && len_x > 0 && len_y > 0)
          ? options.tau_position * static_cast<double>(std::max(len_x, len_y))
          : -1.0;
  std::vector<align::MatchPair> pairs;
  for (std::size_t i = 0; i < kx.size(); ++i) {
    std::size_t best_j = 0;
    double best = 0.0, second = 0.0;
    if (!BestTwo(kx[i], ky, options, max_shift, &best_j, &best, &second)) {
      continue;
    }
    if (best * options.tau_distinct > second) continue;
    if (options.require_mutual) {
      std::size_t back_i = 0;
      double back_best = 0.0, back_second = 0.0;
      if (!BestTwo(ky[best_j], kx, options, max_shift, &back_i, &back_best,
                   &back_second) ||
          back_i != i) {
        continue;
      }
    }
    pairs.push_back(align::MatchPair{i, best_j, best});
  }
  return pairs;
}

void ClampScope(const sift::Keypoint& kp, std::size_t len, double* start,
                double* end) {
  const double maxi = len > 0 ? static_cast<double>(len - 1) : 0.0;
  *start = std::clamp(kp.position - kp.scope_radius(), 0.0, maxi);
  *end = std::clamp(kp.position + kp.scope_radius(), 0.0, maxi);
}

class BoundaryList {
 public:
  std::size_t RankOf(double v) const {
    std::size_t r = 0;
    for (double c : committed_) {
      if (c < v - 1e-9) ++r;
    }
    return r;
  }
  void Insert(double v) { committed_.insert(v); }

 private:
  std::multiset<double> committed_;
};

std::vector<align::AlignedPair> PruneInconsistent(
    const ts::TimeSeries& x, const ts::TimeSeries& y,
    const std::vector<sift::Keypoint>& kx,
    const std::vector<sift::Keypoint>& ky,
    const std::vector<align::MatchPair>& pairs,
    const align::ConsistencyOptions& options) {
  std::vector<align::AlignedPair> result;
  struct Candidate {
    align::MatchPair match;
    align::PairScores scores;
    double mu_sim = 0.0;
    double mu_comb = 0.0;
  };
  std::vector<Candidate> cands;
  double mu_desc_min = kInf;
  for (const align::MatchPair& p : pairs) {
    if (p.index_x >= kx.size() || p.index_y >= ky.size()) continue;
    Candidate c;
    c.match = p;
    c.scores = align::ScorePair(x, y, kx[p.index_x], ky[p.index_y],
                                p.descriptor_distance);
    mu_desc_min = std::min(mu_desc_min, c.scores.mu_desc);
    cands.push_back(c);
  }
  if (cands.empty()) return result;
  if (mu_desc_min <= 0.0) mu_desc_min = 1e-12;
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
  std::stable_sort(cands.begin(), cands.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.mu_comb > b.mu_comb;
                   });
  BoundaryList order_x, order_y;
  std::set<std::size_t> used_x, used_y;
  for (const Candidate& c : cands) {
    if (options.unique_features &&
        (used_x.count(c.match.index_x) || used_y.count(c.match.index_y))) {
      continue;
    }
    align::AlignedPair ap;
    ap.index_x = c.match.index_x;
    ap.index_y = c.match.index_y;
    ClampScope(kx[ap.index_x], x.size(), &ap.start_x, &ap.end_x);
    ClampScope(ky[ap.index_y], y.size(), &ap.start_y, &ap.end_y);
    ap.mu_align = c.scores.mu_align;
    ap.mu_sim = c.mu_sim;
    ap.mu_comb = c.mu_comb;
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
      used_x.insert(ap.index_x);
      used_y.insert(ap.index_y);
      result.push_back(ap);
    }
  }
  std::sort(result.begin(), result.end(),
            [](const align::AlignedPair& a, const align::AlignedPair& b) {
              return a.start_x < b.start_x;
            });
  return result;
}

std::size_t IntervalContaining(
    const std::vector<align::IntervalPair>& intervals, double col) {
  std::size_t best = 0;
  double best_dist = kInf;
  for (std::size_t k = 0; k < intervals.size(); ++k) {
    const double lo = static_cast<double>(intervals[k].begin_y);
    const double hi = static_cast<double>(intervals[k].end_y);
    if (col >= lo && col <= hi) return k;
    const double d = col < lo ? lo - col : col - hi;
    if (d < best_dist) {
      best_dist = d;
      best = k;
    }
  }
  return best;
}

std::vector<double> AdaptiveWidths(
    std::size_t n, std::size_t m,
    const std::vector<align::IntervalPair>& intervals,
    const std::vector<double>& core, std::size_t radius, double min_fraction,
    double max_fraction) {
  std::vector<double> widths(n, static_cast<double>(m));
  if (n == 0 || m == 0) return widths;
  const double min_w =
      min_fraction > 0.0 ? min_fraction * static_cast<double>(m) : 0.0;
  const double max_w = max_fraction > 0.0
                           ? max_fraction * static_cast<double>(m)
                           : static_cast<double>(m);
  for (std::size_t i = 0; i < n; ++i) {
    double w;
    if (intervals.empty()) {
      w = static_cast<double>(m);
    } else {
      const std::size_t k = IntervalContaining(intervals, core[i]);
      const std::size_t lo = k >= radius ? k - radius : 0;
      const std::size_t hi = std::min(intervals.size() - 1, k + radius);
      double sum = 0.0;
      for (std::size_t t = lo; t <= hi; ++t) {
        sum += static_cast<double>(intervals[t].width_y());
      }
      w = sum / static_cast<double>(hi - lo + 1);
    }
    widths[i] = std::clamp(w, std::max(min_w, 1.0), std::max(max_w, 1.0));
  }
  return widths;
}

dtw::Band AssembleBand(std::size_t n, std::size_t m,
                       const std::vector<double>& core,
                       const std::vector<double>& widths) {
  std::vector<dtw::BandRow> rows(n);
  const double last_col = static_cast<double>(m - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double half = std::ceil(widths[i] / 2.0);
    const double lo = std::clamp(core[i] - half, 0.0, last_col);
    const double hi = std::clamp(core[i] + half, 0.0, last_col);
    rows[i].lo = static_cast<std::size_t>(std::floor(lo));
    rows[i].hi = static_cast<std::size_t>(std::ceil(hi));
  }
  dtw::Band band = dtw::Band::FromRows(std::move(rows), m);
  band.MakeFeasible();
  return band;
}

dtw::Band BuildDirected(std::size_t n, std::size_t m,
                        const std::vector<align::IntervalPair>& intervals,
                        const core::ConstraintOptions& options) {
  using core::ConstraintType;
  switch (options.type) {
    case ConstraintType::kFixedCoreFixedWidth:
      return dtw::SakoeChibaBand(n, m, options.fixed_width_fraction);
    case ConstraintType::kFixedCoreAdaptiveWidth: {
      const std::vector<double> c = core::DiagonalCore(n, m);
      return AssembleBand(
          n, m, c,
          AdaptiveWidths(n, m, intervals, c, options.width_average_radius,
                         options.adaptive_width_min_fraction,
                         options.adaptive_width_max_fraction));
    }
    case ConstraintType::kAdaptiveCoreFixedWidth: {
      const std::vector<double> c = core::AdaptiveCore(n, m, intervals);
      const std::vector<double> widths(
          n, std::max(1.0, options.fixed_width_fraction *
                               static_cast<double>(m)));
      return AssembleBand(n, m, c, widths);
    }
    case ConstraintType::kAdaptiveCoreAdaptiveWidth: {
      const std::vector<double> c = core::AdaptiveCore(n, m, intervals);
      return AssembleBand(
          n, m, c,
          AdaptiveWidths(n, m, intervals, c, options.width_average_radius,
                         options.adaptive_width_min_fraction,
                         options.adaptive_width_max_fraction));
    }
  }
  return dtw::Band::Full(n, m);
}

dtw::Band BuildConstraintBand(
    std::size_t n, std::size_t m,
    const std::vector<align::IntervalPair>& intervals,
    const core::ConstraintOptions& options) {
  if (n == 0 || m == 0) return dtw::Band();
  dtw::Band band = BuildDirected(n, m, intervals, options);
  if (options.symmetric &&
      options.type != core::ConstraintType::kFixedCoreFixedWidth) {
    std::vector<align::IntervalPair> t;
    for (const align::IntervalPair& ip : intervals) {
      t.push_back({ip.begin_y, ip.end_y, ip.begin_x, ip.end_x});
    }
    dtw::Band yt = BuildDirected(m, n, t, options).Transpose();
    yt.MakeFeasible();
    band.UnionWith(yt);
    band.MakeFeasible();
  }
  return band;
}

// One direction of Sdtw::BuildBand from the reference stages.
dtw::Band Directed(const ts::TimeSeries& x,
                   const std::vector<sift::Keypoint>& fx,
                   const ts::TimeSeries& y,
                   const std::vector<sift::Keypoint>& fy,
                   const core::SdtwOptions& options) {
  if (options.constraint.type == core::ConstraintType::kFixedCoreFixedWidth) {
    return dtw::SakoeChibaBand(x.size(), y.size(),
                               options.constraint.fixed_width_fraction);
  }
  const auto pairs =
      ref::FindDominantPairs(fx, fy, options.matching, x.size(), y.size());
  const auto aligned =
      ref::PruneInconsistent(x, y, fx, fy, pairs, options.consistency);
  core::ConstraintOptions directed = options.constraint;
  directed.symmetric = false;
  return ref::BuildConstraintBand(
      x.size(), y.size(), align::BuildIntervals(x.size(), y.size(), aligned),
      directed);
}

dtw::Band BuildBand(const ts::TimeSeries& x,
                    const std::vector<sift::Keypoint>& fx,
                    const ts::TimeSeries& y,
                    const std::vector<sift::Keypoint>& fy,
                    const core::SdtwOptions& options) {
  dtw::Band band = Directed(x, fx, y, fy, options);
  if (!options.constraint.symmetric) return band;
  dtw::Band transposed = Directed(y, fy, x, fx, options).Transpose();
  transposed.MakeFeasible();
  band.UnionWith(transposed);
  band.MakeFeasible();
  return band;
}

}  // namespace ref

// ---------------------------------------------------------------------------
// Bitwise comparison helpers.

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void ExpectSamePairs(const std::vector<align::MatchPair>& got,
                     const std::vector<align::MatchPair>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index_x, want[i].index_x) << i;
    EXPECT_EQ(got[i].index_y, want[i].index_y) << i;
    EXPECT_EQ(Bits(got[i].descriptor_distance),
              Bits(want[i].descriptor_distance))
        << i;
  }
}

void ExpectSameAligned(const std::vector<align::AlignedPair>& got,
                       const std::vector<align::AlignedPair>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const align::AlignedPair& a = got[i];
    const align::AlignedPair& b = want[i];
    EXPECT_EQ(a.index_x, b.index_x) << i;
    EXPECT_EQ(a.index_y, b.index_y) << i;
    EXPECT_EQ(Bits(a.start_x), Bits(b.start_x)) << i;
    EXPECT_EQ(Bits(a.end_x), Bits(b.end_x)) << i;
    EXPECT_EQ(Bits(a.start_y), Bits(b.start_y)) << i;
    EXPECT_EQ(Bits(a.end_y), Bits(b.end_y)) << i;
    EXPECT_EQ(Bits(a.mu_align), Bits(b.mu_align)) << i;
    EXPECT_EQ(Bits(a.mu_sim), Bits(b.mu_sim)) << i;
    EXPECT_EQ(Bits(a.mu_comb), Bits(b.mu_comb)) << i;
  }
}

void ExpectSameValues(const std::vector<double>& got,
                      const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(Bits(got[i]), Bits(want[i])) << i;
  }
}

// ---------------------------------------------------------------------------
// Random inputs.

// Descriptor entries from a small grid, so exactly equal distances (and
// ties between candidates) are common.
std::vector<double> RandomDescriptor(ts::Rng& rng, std::size_t len,
                                     double nan_rate) {
  std::vector<double> d(len);
  for (double& v : d) {
    v = rng.Coin(nan_rate) ? kNaN
                           : 0.25 * static_cast<double>(rng.UniformInt(0, 4));
  }
  return d;
}

struct KeypointProfile {
  std::size_t max_count = 10;
  double nan_rate = 0.0;       // per descriptor entry
  double short_rate = 0.0;     // chance of a shorter descriptor
  double duplicate_rate = 0.2; // chance of copying an earlier keypoint
};

std::vector<sift::Keypoint> RandomKeypoints(ts::Rng& rng, std::size_t len,
                                            const KeypointProfile& p) {
  const std::size_t count =
      static_cast<std::size_t>(rng.UniformInt(0, p.max_count));
  std::vector<sift::Keypoint> kps;
  for (std::size_t i = 0; i < count; ++i) {
    if (!kps.empty() && rng.Coin(p.duplicate_rate)) {
      kps.push_back(kps[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(kps.size()) - 1))]);
      continue;
    }
    sift::Keypoint kp;
    kp.position = rng.Uniform(0.0, static_cast<double>(len - 1));
    kp.sigma = rng.Uniform(0.5, 6.0);
    kp.amplitude = 0.5 * static_cast<double>(rng.UniformInt(-3, 3));
    kp.descriptor =
        RandomDescriptor(rng, rng.Coin(p.short_rate) ? 4 : 8, p.nan_rate);
    kps.push_back(std::move(kp));
  }
  std::sort(kps.begin(), kps.end(),
            [](const sift::Keypoint& a, const sift::Keypoint& b) {
              return a.position < b.position;
            });
  return kps;
}

align::MatchingOptions RandomMatching(ts::Rng& rng) {
  align::MatchingOptions o;
  o.tau_amplitude = rng.Coin(0.1) ? 0.1 : rng.Uniform(0.3, 3.0);
  o.tau_scale = rng.Uniform(1.0, 4.0);
  o.tau_distinct = rng.Coin(0.2) ? 1.0 : rng.Uniform(1.0, 2.0);
  o.require_mutual = rng.Coin(0.5);
  o.tau_position = rng.Coin(0.3) ? 0.0 : rng.Uniform(0.1, 0.6);
  return o;
}

ts::TimeSeries RandomSeries(ts::Rng& rng, std::size_t len) {
  return ts::ZNormalize(data::patterns::RandomSmooth(len, 8, rng));
}

// ---------------------------------------------------------------------------
// Matching.

TEST(BandBuildDifferential, MatchingEqualsAbandoningReference) {
  ts::Rng rng(101);
  const KeypointProfile profiles[] = {
      {10, 0.0, 0.0, 0.3},   // clean, many exact ties
      {12, 0.0, 0.3, 0.2},   // mixed descriptor lengths
      {10, 0.05, 0.0, 0.2},  // NaN descriptor entries
      {10, 0.1, 0.3, 0.1},   // both
  };
  for (int trial = 0; trial < 1500; ++trial) {
    const KeypointProfile& p = profiles[trial % 4];
    const std::size_t len_x = static_cast<std::size_t>(rng.UniformInt(2, 90));
    const std::size_t len_y = static_cast<std::size_t>(rng.UniformInt(2, 90));
    const auto kx = RandomKeypoints(rng, len_x, p);
    const auto ky = RandomKeypoints(rng, len_y, p);
    const align::MatchingOptions o = RandomMatching(rng);
    const bool lengths = rng.Coin(0.7);
    const std::size_t lx = lengths ? len_x : 0;
    const std::size_t ly = lengths ? len_y : 0;
    SCOPED_TRACE(trial);
    ExpectSamePairs(align::FindDominantPairs(kx, ky, o, lx, ly),
                    ref::FindDominantPairs(kx, ky, o, lx, ly));
  }
}

TEST(BandBuildDifferential, EqualDistancesKeepTheFirstCandidate) {
  // Three Y candidates at the same distance from X's keypoint: the first in
  // index order is the best, the second equal one makes the match
  // ambiguous unless τ_d = 1.
  sift::Keypoint a;
  a.position = 10.0;
  a.sigma = 2.0;
  a.descriptor = {1.0, 0.0, 0.0, 0.0};
  std::vector<sift::Keypoint> ys(4, a);
  ys[0].descriptor = {0.0, 0.0, 0.0, 1.0};  // farther
  ys[1].descriptor = {1.0, 0.5, 0.0, 0.0};
  ys[2].descriptor = {1.0, 0.0, 0.5, 0.0};
  ys[3].descriptor = {1.0, 0.0, 0.0, 0.5};
  align::MatchingOptions o;
  o.tau_distinct = 1.0;
  const auto pairs = align::FindDominantPairs({a}, ys, o);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].index_y, 1u);
  EXPECT_EQ(pairs[0].descriptor_distance, 0.5);
  ExpectSamePairs(pairs, ref::FindDominantPairs({a}, ys, o, 0, 0));
  o.tau_distinct = 1.25;
  EXPECT_TRUE(align::FindDominantPairs({a}, ys, o).empty());
}

TEST(BandBuildDifferential, OnlyInfiniteOrNaNCandidatesGiveNoMatch) {
  // Every gated candidate is at +inf (length mismatch) or NaN: there is no
  // best candidate, so no pair — never a pair {i, 0, inf}.
  sift::Keypoint a;
  a.position = 5.0;
  a.sigma = 1.0;
  a.descriptor = {1.0, 2.0, 3.0, 4.0};
  sift::Keypoint longer = a;
  longer.descriptor.assign(8, 0.0);
  sift::Keypoint nan = a;
  nan.descriptor = {1.0, kNaN, 0.0, 0.0};
  for (const std::vector<sift::Keypoint>& ys :
       {std::vector<sift::Keypoint>{longer},
        std::vector<sift::Keypoint>{nan},
        std::vector<sift::Keypoint>{longer, nan, longer}}) {
    for (bool mutual : {false, true}) {
      align::MatchingOptions o;
      o.require_mutual = mutual;
      EXPECT_TRUE(align::FindDominantPairs({a}, ys, o).empty());
      EXPECT_TRUE(ref::FindDominantPairs({a}, ys, o, 0, 0).empty());
    }
  }
  // One finite candidate among them still matches.
  sift::Keypoint close = a;
  close.descriptor = {1.0, 2.0, 3.0, 4.5};
  const auto pairs = align::FindDominantPairs({a}, {longer, nan, close});
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].index_y, 2u);
  EXPECT_EQ(pairs[0].descriptor_distance, 0.5);
}

TEST(BandBuildDifferential, EmptyAndAllRejectedGiveNoMatch) {
  ts::Rng rng(7);
  const auto kps = RandomKeypoints(rng, 50, {12, 0.0, 0.0, 0.0});
  align::MatchingOptions o;
  EXPECT_TRUE(align::FindDominantPairs({}, kps, o, 50, 50).empty());
  EXPECT_TRUE(align::FindDominantPairs(kps, {}, o, 50, 50).empty());
  o.tau_amplitude = -1.0;  // every pair fails the amplitude test
  EXPECT_TRUE(align::FindDominantPairs(kps, kps, o, 50, 50).empty());
  o = {};
  o.tau_scale = 0.5;  // every ratio is >= 1
  EXPECT_TRUE(align::FindDominantPairs(kps, kps, o, 50, 50).empty());
}

// ---------------------------------------------------------------------------
// Pruning.

TEST(BandBuildDifferential, PruningEqualsOrderedContainerReference) {
  ts::Rng rng(202);
  for (int trial = 0; trial < 800; ++trial) {
    const std::size_t len_x = static_cast<std::size_t>(rng.UniformInt(2, 90));
    const std::size_t len_y = static_cast<std::size_t>(rng.UniformInt(2, 90));
    const ts::TimeSeries x = RandomSeries(rng, len_x);
    const ts::TimeSeries y = RandomSeries(rng, len_y);
    const KeypointProfile p{10, 0.0, 0.0, 0.3};
    const auto kx = RandomKeypoints(rng, len_x, p);
    const auto ky = RandomKeypoints(rng, len_y, p);
    std::vector<align::MatchPair> pairs;
    if (rng.Coin(0.5)) {
      pairs = align::FindDominantPairs(kx, ky, RandomMatching(rng), len_x,
                                       len_y);
    } else {
      // Arbitrary pairs: repeated features on either side, exact repeats
      // (equal µ_comb), and out-of-range indices (skipped).
      const std::size_t count =
          static_cast<std::size_t>(rng.UniformInt(0, 14));
      for (std::size_t k = 0; k < count; ++k) {
        if (!pairs.empty() && rng.Coin(0.25)) {
          pairs.push_back(pairs[static_cast<std::size_t>(rng.UniformInt(
              0, static_cast<std::int64_t>(pairs.size()) - 1))]);
          continue;
        }
        align::MatchPair mp;
        mp.index_x = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(kx.size())));
        mp.index_y = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(ky.size())));
        mp.descriptor_distance = 0.5 * static_cast<double>(rng.UniformInt(0, 3));
        pairs.push_back(mp);
      }
    }
    align::ConsistencyOptions co;
    co.unique_features = rng.Coin(0.6);
    SCOPED_TRACE(trial);
    ExpectSameAligned(align::PruneInconsistent(x, y, kx, ky, pairs, co),
                      ref::PruneInconsistent(x, y, kx, ky, pairs, co));
  }
}

TEST(BandBuildDifferential, EqualCombinedScoresKeepMatchingOrder) {
  // Two crossing pairs with equal scores conflict: the one listed first
  // commits, the other is dropped.
  const ts::TimeSeries x(std::vector<double>(40, 1.0));
  sift::Keypoint early, late;
  early.position = 10.0;
  late.position = 30.0;
  early.sigma = late.sigma = 1.0;
  early.descriptor = late.descriptor = {0.0};
  const std::vector<sift::Keypoint> kps = {early, late};
  for (bool unique : {true, false}) {
    align::ConsistencyOptions co;
    co.unique_features = unique;
    for (std::size_t first : {0u, 1u}) {
      const std::vector<align::MatchPair> pairs = {
          {first, 1 - first, 0.0}, {1 - first, first, 0.0}};
      const auto got = align::PruneInconsistent(x, x, kps, kps, pairs, co);
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(got[0].index_x, first);
      ExpectSameAligned(got,
                        ref::PruneInconsistent(x, x, kps, kps, pairs, co));
    }
  }
}

// ---------------------------------------------------------------------------
// Band construction.

// A contiguous partition with some degenerate (empty) intervals.
std::vector<align::IntervalPair> RandomPartition(ts::Rng& rng, std::size_t n,
                                                 std::size_t m) {
  const std::size_t cuts = static_cast<std::size_t>(rng.UniformInt(0, 8));
  std::vector<std::size_t> cx{0}, cy{0};
  for (std::size_t k = 0; k < cuts; ++k) {
    cx.push_back(static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(n - 1))));
    cy.push_back(static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(m - 1))));
    if (rng.Coin(0.2)) cy.back() = cy[cy.size() - 2];  // empty Y-interval
    if (rng.Coin(0.2)) cx.back() = cx[cx.size() - 2];  // empty X-interval
  }
  cx.push_back(n - 1);
  cy.push_back(m - 1);
  std::sort(cx.begin(), cx.end());
  std::sort(cy.begin(), cy.end());
  std::vector<align::IntervalPair> out;
  for (std::size_t k = 0; k + 1 < cx.size(); ++k) {
    out.push_back({cx[k], cx[k + 1], cy[k], cy[k + 1]});
  }
  return out;
}

// Gaps, overlaps, inverted ranges and shuffled order: not a partition.
std::vector<align::IntervalPair> RandomIntervalList(ts::Rng& rng,
                                                    std::size_t n,
                                                    std::size_t m) {
  const std::size_t count = static_cast<std::size_t>(rng.UniformInt(1, 6));
  std::vector<align::IntervalPair> out;
  for (std::size_t k = 0; k < count; ++k) {
    align::IntervalPair ip;
    ip.begin_x = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(n - 1)));
    ip.end_x = static_cast<std::size_t>(rng.UniformInt(
        static_cast<std::int64_t>(ip.begin_x), static_cast<std::int64_t>(n)));
    ip.begin_y = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(m - 1)));
    ip.end_y = static_cast<std::size_t>(rng.UniformInt(
        static_cast<std::int64_t>(ip.begin_y), static_cast<std::int64_t>(m)));
    if (rng.Coin(0.15)) std::swap(ip.begin_y, ip.end_y);
    out.push_back(ip);
  }
  return out;
}

core::ConstraintOptions RandomConstraint(ts::Rng& rng) {
  core::ConstraintOptions o;
  o.type = static_cast<core::ConstraintType>(rng.UniformInt(0, 3));
  o.fixed_width_fraction = rng.Uniform(0.0, 0.3);
  o.adaptive_width_min_fraction = rng.Coin(0.5) ? 0.0 : rng.Uniform(0.0, 0.3);
  o.adaptive_width_max_fraction = rng.Coin(0.5) ? 0.0 : rng.Uniform(0.2, 0.6);
  o.width_average_radius = static_cast<std::size_t>(rng.UniformInt(0, 2));
  o.symmetric = rng.Coin(0.4);
  return o;
}

TEST(BandBuildDifferential, BandsEqualLinearScanReference) {
  ts::Rng rng(303);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.UniformInt(1, 80));
    const std::size_t m = static_cast<std::size_t>(rng.UniformInt(1, 80));
    const bool partition = rng.Coin(0.7);
    const std::vector<align::IntervalPair> intervals =
        rng.Coin(0.05) ? std::vector<align::IntervalPair>{}
        : partition    ? RandomPartition(rng, n, m)
                       : RandomIntervalList(rng, n, m);
    const core::ConstraintOptions o = RandomConstraint(rng);
    SCOPED_TRACE(trial);
    EXPECT_EQ(core::BuildConstraintBand(n, m, intervals, o),
              ref::BuildConstraintBand(n, m, intervals, o));
  }
}

TEST(BandBuildDifferential, WidthsEqualLinearScanReference) {
  // Cores well outside the partition too: before its first column, past its
  // last (far enough that distances round to ties), and non-finite.
  ts::Rng rng(404);
  const double specials[] = {-3.0, -kInf, kInf, kNaN, 1e17, 1e300};
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.UniformInt(1, 60));
    const std::size_t m = static_cast<std::size_t>(rng.UniformInt(1, 60));
    std::vector<align::IntervalPair> intervals =
        rng.Coin(0.6) ? RandomPartition(rng, n, m)
                      : RandomIntervalList(rng, n, m);
    if (rng.Coin(0.2)) {
      // A partition that starts past column 0.
      const std::size_t shift = static_cast<std::size_t>(rng.UniformInt(1, 5));
      for (align::IntervalPair& ip : intervals) {
        ip.begin_y += shift;
        ip.end_y += shift;
      }
    }
    std::vector<double> c = rng.Coin(0.5) ? core::AdaptiveCore(n, m, intervals)
                                          : core::DiagonalCore(n, m);
    for (double& v : c) {
      if (rng.Coin(0.1)) v = rng.Uniform(-5.0, static_cast<double>(m) + 5.0);
      if (rng.Coin(0.03)) v = specials[rng.UniformInt(0, 5)];
    }
    const std::size_t radius = static_cast<std::size_t>(rng.UniformInt(0, 2));
    const double min_f = rng.Coin(0.5) ? 0.0 : 0.2;
    const double max_f = rng.Coin(0.5) ? 0.0 : 0.4;
    SCOPED_TRACE(trial);
    ExpectSameValues(
        core::AdaptiveWidths(n, m, intervals, c, radius, min_f, max_f),
        ref::AdaptiveWidths(n, m, intervals, c, radius, min_f, max_f));
  }
}

// ---------------------------------------------------------------------------
// The whole BuildBand on generated data sets.

TEST(BandBuildDifferential, BuildBandEqualsReferencePipeline) {
  for (const char* family : {"trace", "words", "gun"}) {
    data::GeneratorOptions g;
    g.num_series = 12;
    g.length = 96;
    g.seed = 5;
    const ts::Dataset ds = data::MakeByName(family, g);
    for (int variant = 0; variant < 5; ++variant) {
      core::SdtwOptions o;
      switch (variant) {
        case 1:
          o.constraint.symmetric = true;
          break;
        case 2:
          o.matching.require_mutual = true;
          break;
        case 3:
          o.constraint.type = core::ConstraintType::kFixedCoreAdaptiveWidth;
          o.constraint.adaptive_width_min_fraction = 0.2;
          break;
        case 4:
          o.constraint.type = core::ConstraintType::kAdaptiveCoreFixedWidth;
          o.constraint.width_average_radius = 1;
          o.consistency.unique_features = false;
          break;
        default:
          break;
      }
      const core::Sdtw engine(o);
      std::vector<std::vector<sift::Keypoint>> f;
      for (const ts::TimeSeries& s : ds) f.push_back(engine.ExtractFeatures(s));
      for (std::size_t i = 0; i < ds.size(); ++i) {
        for (std::size_t j = 0; j < ds.size(); ++j) {
          SCOPED_TRACE(testing::Message() << family << " variant " << variant
                                          << " pair " << i << "," << j);
          EXPECT_EQ(engine.BuildBand(ds[i], f[i], ds[j], f[j]),
                    ref::BuildBand(ds[i], f[i], ds[j], f[j], o));
        }
      }
    }
  }
}

}  // namespace
}  // namespace sdtw
