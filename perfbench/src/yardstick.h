#ifndef PERFBENCH_YARDSTICK_H_
#define PERFBENCH_YARDSTICK_H_
/// \file yardstick.h
/// \brief The host-speed yardstick, and times rescaled to a reference host.
///
/// The shared host this benchmark runs on changes speed by tens of percent
/// over seconds to minutes — a whole sDTW matrix took 0.41 s at one time
/// and 0.51 to 0.80 s twenty minutes later, with no steal time and no
/// other load in the machine — so two sets of runs of the same code
/// disagree by more than any useful bound. The yardstick is a fixed piece
/// of work that belongs to the benchmark, not the library: the textbook
/// DTW recurrence over 64 independent pairs at once, which the compiler
/// vectorises, so like the library's DP kernels it is bound by vector
/// throughput and slows down with them when the host does. It runs right
/// before and after every timed unit, and the unit's time is rescaled to
/// what it would have been on a host where the yardstick fills one cell
/// in kReferenceCellSeconds. No change to the library moves the yardstick,
/// so a faster library shows in full in the rescaled time.

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "retrieval/scratch.h"

namespace perfbench {

/// Yardstick seconds per cell on the reference host: roughly what it
/// takes on the 4-vCPU Xeon (AVX-512) VM the bounds were set on.
inline constexpr double kReferenceCellSeconds = 0.4e-9;

/// Runs the yardstick once on the calling thread (about 30 ms on the
/// reference host) and returns its seconds per cell.
double YardstickCellSeconds();

/// Runs the yardstick on every worker of `executor` at once and returns
/// the mean of their seconds per cell: the speed of the threads that do a
/// retrieval workload's work.
double YardstickCellSeconds(sdtw::retrieval::BatchExecutor& executor);

/// `seconds`, measured while the yardstick ran at `cell_s` per cell,
/// rescaled to the reference host.
inline double AtReferenceSpeed(double seconds, double cell_s) {
  return seconds * kReferenceCellSeconds / cell_s;
}

/// \brief Brackets a run's timed units with yardstick readings — Y U Y U
/// Y … — and rescales each unit by the mean of the two readings around it.
class Rescaler {
 public:
  /// `read` runs the yardstick; the first reading is taken here.
  explicit Rescaler(std::function<double()> read) : read_(std::move(read)) {
    readings_.push_back(read_());
  }

  /// A unit that just ended after `wall_s` seconds: reads the yardstick
  /// again and returns the unit's seconds on the reference host.
  double Rescale(double wall_s) {
    const double before = readings_.back();
    readings_.push_back(read_());
    return AtReferenceSpeed(wall_s, 0.5 * (before + readings_.back()));
  }

  /// The latest reading, for work timed right after it.
  double last() const { return readings_.back(); }
  const std::vector<double>& readings() const { return readings_; }

 private:
  std::function<double()> read_;
  std::vector<double> readings_;
};

}  // namespace perfbench

#endif  // PERFBENCH_YARDSTICK_H_
