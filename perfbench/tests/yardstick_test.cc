#include "yardstick.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <functional>
#include <vector>

#include "retrieval/scratch.h"

namespace perfbench {
namespace {

TEST(AtReferenceSpeed, ScalesByYardstickSpeed) {
  EXPECT_DOUBLE_EQ(AtReferenceSpeed(1.0, kReferenceCellSeconds), 1.0);
  // A host running the yardstick at half speed ran the unit at half speed.
  EXPECT_DOUBLE_EQ(AtReferenceSpeed(1.0, 2.0 * kReferenceCellSeconds), 0.5);
}

TEST(Rescaler, EachUnitUsesTheMeanOfTheReadingsAroundIt) {
  const std::vector<double> readings = {1.0, 3.0, 2.0};
  std::size_t next = 0;
  Rescaler speed([&] { return kReferenceCellSeconds * readings[next++]; });
  EXPECT_EQ(speed.last(), kReferenceCellSeconds * 1.0);
  EXPECT_DOUBLE_EQ(speed.Rescale(4.0), 4.0 / 2.0);   // readings 1 and 3
  EXPECT_DOUBLE_EQ(speed.Rescale(5.0), 5.0 / 2.5);   // readings 3 and 2
  EXPECT_EQ(speed.last(), kReferenceCellSeconds * 2.0);
  EXPECT_EQ(speed.readings().size(), 3u);
}

// Runs the job once per worker, one after another.
class SerialExecutor final : public sdtw::retrieval::BatchExecutor {
 public:
  explicit SerialExecutor(std::size_t workers) : arenas_(workers) {}
  std::size_t num_workers() const override { return arenas_.size(); }
  void Execute(const std::function<void(sdtw::retrieval::ScratchArena&)>& fn)
      override {
    for (auto& arena : arenas_) fn(arena);
  }

 private:
  std::vector<sdtw::retrieval::ScratchArena> arenas_;
};

TEST(YardstickCellSeconds, ReadsAPositiveSpeedOnAThreadAndOnAnExecutor) {
  const double one = YardstickCellSeconds();
  EXPECT_TRUE(std::isfinite(one));
  EXPECT_GT(one, 0.0);
  SerialExecutor executor(2);
  const double mean = YardstickCellSeconds(executor);
  EXPECT_TRUE(std::isfinite(mean));
  EXPECT_GT(mean, 0.0);
}

}  // namespace
}  // namespace perfbench
