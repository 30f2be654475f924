#ifndef SDTW_DTW_LOWER_BOUNDS_H_
#define SDTW_DTW_LOWER_BOUNDS_H_

/// \file lower_bounds.h
/// \brief Cheap lower bounds on the DTW distance (LB_Kim, LB_Keogh).
///
/// These are the standard pruning primitives from the indexing literature
/// the paper builds on ([7] Keogh 2002, [16] Rakthanmanon et al. 2012). They
/// complement the band constraints: a retrieval loop can skip the DP
/// entirely when the lower bound already exceeds the best-so-far distance.
/// Both bounds are valid for the absolute cost and band-limited warping.

#include <cstddef>
#include <vector>

#include "ts/time_series.h"

namespace sdtw {
namespace dtw {

/// \brief Upper/lower envelope of a series under a warping window.
struct Envelope {
  std::vector<double> upper;
  std::vector<double> lower;
};

/// Builds the Keogh envelope of `s` for a symmetric warping radius `r`
/// (in samples): upper[i] = max(s[i-r..i+r]), lower[i] = min(s[i-r..i+r]).
/// Uses a monotonic-deque sliding window (O(n)). A full-span envelope
/// (r >= n-1) is constant at the global extrema; LbKeoghGlobal evaluates
/// against it from a SeriesStats without building it.
Envelope MakeEnvelope(const ts::TimeSeries& s, std::size_t r);

/// \brief O(1)-combinable summary of a series for LB_Kim: the first/last
/// values and the global extrema. Indexes cache one per series so the
/// cascade's stage-1 test costs O(1) per candidate instead of rescanning
/// the candidate series on every query. The extrema are also the
/// full-span envelope LbKeoghGlobal bounds against.
struct SeriesStats {
  double first = 0.0;
  double last = 0.0;
  double min = 0.0;
  double max = 0.0;
  bool valid = false;  ///< false for an empty series.
};

/// One O(n) pass over `s` producing its LB_Kim summary.
SeriesStats MakeSeriesStats(const ts::TimeSeries& s);

/// LB_Kim (4-point variant): cost of the first/last points plus the
/// min/max points. A constant-time bound, valid for the absolute cost.
double LbKim(const ts::TimeSeries& x, const ts::TimeSeries& y);

/// LB_Kim from precomputed summaries — identical value to
/// LbKim(x, y) with MakeSeriesStats(x), MakeSeriesStats(y), in O(1).
double LbKim(const SeriesStats& x, const SeriesStats& y);

/// LB_Keogh: sum over i of the distance from x[i] to the envelope of y.
/// Requires equal lengths (standard formulation); returns 0 otherwise
/// (a trivially valid bound).
double LbKeogh(const ts::TimeSeries& x, const Envelope& y_envelope);

/// LB_Keogh with cumulative-bound abandoning (the UCR-suite refinement):
/// accumulates the envelope distances left to right and stops as soon as
/// the running sum exceeds `abandon_above`, instead of always completing
/// the O(n) pass. The terms are non-negative and accumulated in the same
/// order as LbKeogh, so the running sum is monotone non-decreasing and the
/// returned partial sum is itself a valid lower bound; in particular the
/// decision `result > abandon_above` is identical to the full pass's
/// `LbKeogh(...) > abandon_above`, which is what keeps cascade prunes (and
/// therefore hit lists) unchanged. When the scan stops early, `*abandoned`
/// (if non-null) is set to true and the partial sum is returned; otherwise
/// `*abandoned` is set to false and the result equals LbKeogh(x, y_envelope)
/// exactly. Length mismatches return 0 with *abandoned == false, as the
/// full pass does.
double LbKeoghAbandoning(const ts::TimeSeries& x, const Envelope& y_envelope,
                         double abandon_above, bool* abandoned = nullptr);

/// LbKeoghAbandoning against the full-span envelope of a series y,
/// computed from its cached summary instead of a materialised envelope:
/// every element of that envelope is y's global max (upper) or min
/// (lower). Same terms, same order, same arithmetic, so for a y of x's
/// length the result and *abandoned are bitwise equal to
/// LbKeoghAbandoning(x, MakeEnvelope(y, y.size()), abandon_above,
/// abandoned). The summary carries no length: the caller must check that
/// x and y have equal lengths (LB_Keogh is undefined across lengths). An
/// invalid summary (empty y) gives the trivial bound 0.
///
/// Every warp path visits every row, so the result lower-bounds the
/// absolute-cost DTW of x and y under any band, the sDTW bands included.
double LbKeoghGlobal(const ts::TimeSeries& x, const SeriesStats& y,
                     double abandon_above, bool* abandoned = nullptr);

/// Convenience: builds the envelope of y with radius r and evaluates
/// LB_Keogh(x, env(y)).
double LbKeogh(const ts::TimeSeries& x, const ts::TimeSeries& y,
               std::size_t r);

}  // namespace dtw
}  // namespace sdtw

#endif  // SDTW_DTW_LOWER_BOUNDS_H_
