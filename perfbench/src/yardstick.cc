#include "yardstick.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

constexpr std::size_t kLength = 256;
constexpr std::size_t kLanes = 64;
// One reading: kChunks timed chunks of kRepeatsPerChunk runs of LanesDtw.
constexpr std::size_t kChunks = 7;
constexpr std::size_t kRepeatsPerChunk = 3;

// The yardstick's inputs, the same in every run: lane l compares a chirp
// and a sine, each rotated by an amount of its own. Laid out [i][lane].
struct Inputs {
  std::vector<double> x = std::vector<double>(kLength * kLanes);
  std::vector<double> y = std::vector<double>(kLength * kLanes);
};

const Inputs& FixedInputs() {
  static const Inputs inputs = [] {
    constexpr double kPi = 3.14159265358979323846;
    std::array<double, kLength> chirp{}, sine{};
    for (std::size_t i = 0; i < kLength; ++i) {
      const double t = static_cast<double>(i) / kLength;
      chirp[i] = std::sin(12.0 * kPi * t * t) + 0.1 * t;
      sine[i] = std::sin(9.0 * kPi * (t + 0.05)) - 0.2 * t;
    }
    Inputs in;
    for (std::size_t i = 0; i < kLength; ++i) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        in.x[i * kLanes + l] = chirp[(i + l) % kLength];
        in.y[i * kLanes + l] = sine[(i + 3 * l) % kLength];
      }
    }
    return in;
  }();
  return inputs;
}

// The textbook DTW recurrence with absolute cost, kLanes pairs at once:
// the lanes are independent, so the inner loop vectorises.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
__attribute__((target_clones("avx512f", "avx2", "default")))
#endif
double LanesDtw(const double* x, const double* y, double* prev,
                double* cur) {
  for (std::size_t l = 0; l < kLanes; ++l) prev[l] = 0.0;
  for (std::size_t j = 1; j <= kLength; ++j) {
    for (std::size_t l = 0; l < kLanes; ++l) prev[j * kLanes + l] = HUGE_VAL;
  }
  for (std::size_t i = 1; i <= kLength; ++i) {
    for (std::size_t l = 0; l < kLanes; ++l) cur[l] = HUGE_VAL;
    for (std::size_t j = 1; j <= kLength; ++j) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        const double diag = prev[(j - 1) * kLanes + l];
        const double up = prev[j * kLanes + l];
        const double left = cur[(j - 1) * kLanes + l];
        double best = diag < up ? diag : up;
        best = best < left ? best : left;
        const double d = x[(i - 1) * kLanes + l] - y[(j - 1) * kLanes + l];
        cur[j * kLanes + l] = (d < 0.0 ? -d : d) + best;
      }
    }
    std::swap(prev, cur);
  }
  double sum = 0.0;
  for (std::size_t l = 0; l < kLanes; ++l) sum += prev[kLength * kLanes + l];
  return sum;
}

}  // namespace

double YardstickCellSeconds() {
  const Inputs& in = FixedInputs();
  std::vector<double> prev((kLength + 1) * kLanes), cur((kLength + 1) * kLanes);
  std::array<double, kChunks> chunk_s{};
  volatile double sink = 0.0;
  for (double& s : chunk_s) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < kRepeatsPerChunk; ++r) {
      sink = sink + LanesDtw(in.x.data(), in.y.data(), prev.data(),
                             cur.data());
    }
    s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
  // The median chunk: a chunk the thread spent partly descheduled says
  // nothing about the host's speed.
  std::nth_element(chunk_s.begin(), chunk_s.begin() + kChunks / 2,
                   chunk_s.end());
  return chunk_s[kChunks / 2] /
         static_cast<double>(kRepeatsPerChunk * kLanes * kLength * kLength);
}

double YardstickCellSeconds(sdtw::retrieval::BatchExecutor& executor) {
  // Each worker adds its reading in femtoseconds per cell, an integer, so
  // the sum does not depend on the order the workers finish in.
  std::atomic<long long> sum_fs{0};
  executor.Execute([&](sdtw::retrieval::ScratchArena&) {
    sum_fs += std::llround(1e15 * YardstickCellSeconds());
  });
  return 1e-15 * static_cast<double>(sum_fs.load()) /
         static_cast<double>(executor.num_workers());
}

}  // namespace perfbench
