#include "core/constraints.h"

#include <algorithm>
#include <cmath>

namespace sdtw {
namespace core {

const char* ConstraintTypeName(ConstraintType type) {
  switch (type) {
    case ConstraintType::kFixedCoreFixedWidth:
      return "fc,fw";
    case ConstraintType::kFixedCoreAdaptiveWidth:
      return "fc,aw";
    case ConstraintType::kAdaptiveCoreFixedWidth:
      return "ac,fw";
    case ConstraintType::kAdaptiveCoreAdaptiveWidth:
      return "ac,aw";
  }
  return "?";
}

std::vector<double> DiagonalCore(std::size_t n, std::size_t m) {
  std::vector<double> core(n, 0.0);
  if (n == 0 || m == 0) return core;
  const double slope =
      n > 1 ? static_cast<double>(m - 1) / static_cast<double>(n - 1) : 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    core[i] = static_cast<double>(i) * slope;
  }
  return core;
}

std::vector<double> AdaptiveCore(
    std::size_t n, std::size_t m,
    const std::vector<align::IntervalPair>& intervals) {
  std::vector<double> core(n, 0.0);
  if (n == 0 || m == 0) return core;
  if (intervals.empty()) return DiagonalCore(n, m);

  for (const align::IntervalPair& ip : intervals) {
    const std::size_t bx = std::min(ip.begin_x, n - 1);
    const std::size_t ex = std::min(ip.end_x, n - 1);
    const std::size_t by = std::min(ip.begin_y, m - 1);
    const std::size_t ey = std::min(ip.end_y, m - 1);
    if (ex == bx) {
      // Empty/degenerate X-interval: a single X point stands for the whole
      // Y-interval; map it onto the interval midpoint so the band (after
      // widening) covers the stretch. The vertical gap is bridged by
      // MakeFeasible.
      core[ex] = (static_cast<double>(by) + static_cast<double>(ey)) / 2.0;
      continue;
    }
    const double span_x = static_cast<double>(ex - bx);
    const double span_y = static_cast<double>(ey) - static_cast<double>(by);
    for (std::size_t i = bx; i <= ex; ++i) {
      // §3.3.2: (j - st_Y) / (end_Y - st_Y) = (i - st_X) / (end_X - st_X).
      // When end_Y == st_Y the whole X-interval maps onto st_Y.
      const double frac = static_cast<double>(i - bx) / span_x;
      core[i] = static_cast<double>(by) + frac * span_y;
    }
  }
  // Anchor endpoints onto the corners.
  core[0] = 0.0;
  core[n - 1] = static_cast<double>(m - 1);
  return core;
}

namespace {

// Index of the interval whose Y-range contains the column `col` (closest
// when none contains it; the first of equals either way).
std::size_t IntervalContaining(
    const std::vector<align::IntervalPair>& intervals, double col) {
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
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

}  // namespace

std::vector<double> AdaptiveWidths(
    std::size_t n, std::size_t m,
    const std::vector<align::IntervalPair>& intervals,
    const std::vector<double>& core, std::size_t radius, double min_fraction,
    double max_fraction) {
  std::vector<double> widths(n, static_cast<double>(m));
  if (n == 0 || m == 0) return widths;
  const double min_w = min_fraction > 0.0
                           ? min_fraction * static_cast<double>(m)
                           : 0.0;
  const double max_w = max_fraction > 0.0
                           ? max_fraction * static_cast<double>(m)
                           : static_cast<double>(m);
  auto clamp_width = [&](double w) {
    return std::clamp(w, std::max(min_w, 1.0), std::max(max_w, 1.0));
  };
  if (intervals.empty()) {
    std::fill(widths.begin(), widths.end(),
              clamp_width(static_cast<double>(m)));
    return widths;
  }
  // Each interval's width, averaged over its r-neighbourhood (§3.3.1's
  // second refinement; r = 1 gives the paper's ac2 variant) and clamped.
  std::vector<double> interval_width(intervals.size());
  for (std::size_t k = 0; k < intervals.size(); ++k) {
    const std::size_t lo = k >= radius ? k - radius : 0;
    const std::size_t hi = std::min(intervals.size() - 1, k + radius);
    double sum = 0.0;
    for (std::size_t t = lo; t <= hi; ++t) {
      sum += static_cast<double>(intervals[t].width_y());
    }
    interval_width[k] = clamp_width(sum / static_cast<double>(hi - lo + 1));
  }
  for (std::size_t i = 0; i < n; ++i) {
    widths[i] = interval_width[IntervalContaining(intervals, core[i])];
  }
  return widths;
}

namespace {

// Assembles a band from per-row cores and total widths (±ceil(w/2) around
// the core, §3.3.1).
dtw::Band AssembleBand(std::size_t n, std::size_t m,
                       const std::vector<double>& core,
                       const std::vector<double>& widths) {
  std::vector<dtw::BandRow> rows(n);
  const double last_col = static_cast<double>(m - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double half = std::ceil(widths[i] / 2.0);
    const double lo = std::clamp(core[i] - half, 0.0, last_col);
    const double hi = std::clamp(core[i] + half, 0.0, last_col);
    // lo and hi are clamped to [0, m-1]: truncation is floor, and ceil is
    // truncation plus one when a fraction remains.
    rows[i].lo = static_cast<std::size_t>(lo);
    rows[i].hi = static_cast<std::size_t>(hi);
    if (static_cast<double>(rows[i].hi) < hi) ++rows[i].hi;
  }
  dtw::Band band = dtw::Band::FromRows(std::move(rows), m);
  band.MakeFeasible();
  return band;
}

// Transposes the interval partition (swap the roles of X and Y).
std::vector<align::IntervalPair> TransposeIntervals(
    const std::vector<align::IntervalPair>& intervals) {
  std::vector<align::IntervalPair> out;
  out.reserve(intervals.size());
  for (const align::IntervalPair& ip : intervals) {
    align::IntervalPair t;
    t.begin_x = ip.begin_y;
    t.end_x = ip.end_y;
    t.begin_y = ip.begin_x;
    t.end_y = ip.end_x;
    out.push_back(t);
  }
  return out;
}

dtw::Band BuildDirected(std::size_t n, std::size_t m,
                        const std::vector<align::IntervalPair>& intervals,
                        const ConstraintOptions& options) {
  switch (options.type) {
    case ConstraintType::kFixedCoreFixedWidth:
      return dtw::SakoeChibaBand(n, m, options.fixed_width_fraction);
    case ConstraintType::kFixedCoreAdaptiveWidth: {
      const std::vector<double> core = DiagonalCore(n, m);
      const std::vector<double> widths = AdaptiveWidths(
          n, m, intervals, core, options.width_average_radius,
          options.adaptive_width_min_fraction,
          options.adaptive_width_max_fraction);
      return AssembleBand(n, m, core, widths);
    }
    case ConstraintType::kAdaptiveCoreFixedWidth: {
      const std::vector<double> core = AdaptiveCore(n, m, intervals);
      const std::vector<double> widths(
          n, std::max(1.0, options.fixed_width_fraction *
                               static_cast<double>(m)));
      return AssembleBand(n, m, core, widths);
    }
    case ConstraintType::kAdaptiveCoreAdaptiveWidth: {
      const std::vector<double> core = AdaptiveCore(n, m, intervals);
      const std::vector<double> widths = AdaptiveWidths(
          n, m, intervals, core, options.width_average_radius,
          options.adaptive_width_min_fraction,
          options.adaptive_width_max_fraction);
      return AssembleBand(n, m, core, widths);
    }
  }
  return dtw::Band::Full(n, m);
}

}  // namespace

dtw::Band BuildConstraintBand(
    std::size_t n, std::size_t m,
    const std::vector<align::IntervalPair>& intervals,
    const ConstraintOptions& options) {
  if (n == 0 || m == 0) return dtw::Band();
  dtw::Band band = BuildDirected(n, m, intervals, options);
  if (options.symmetric &&
      options.type != ConstraintType::kFixedCoreFixedWidth) {
    // Y-driven band on the M×N grid, transposed back and unioned (§3.3.3).
    const std::vector<align::IntervalPair> t = TransposeIntervals(intervals);
    dtw::Band yband = BuildDirected(m, n, t, options);
    dtw::Band yt = yband.Transpose();
    yt.MakeFeasible();
    band.UnionWith(yt);
    band.MakeFeasible();
  }
  return band;
}

}  // namespace core
}  // namespace sdtw
