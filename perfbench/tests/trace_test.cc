#include "trace.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

Span At(const char* name, std::int64_t start, std::int64_t end,
        SpanId parent = kNoSpan) {
  return Span{name, start, end, parent, 0};
}

TEST(SelfTimes, LeafSpanOwnsItsWholeDuration) {
  EXPECT_EQ(SelfTimes({At("a", 10, 25)}), std::vector<std::int64_t>{15});
}

TEST(SelfTimes, SubtractsTheUnionOfOverlappingChildren) {
  // Children [10,30] and [20,50] overlap (union 40) and [60,70] adds 10:
  // the parent's 100 ns keep 50 of self time.
  const std::vector<Span> spans = {At("p", 0, 100), At("c", 10, 30, 0),
                                   At("c", 20, 50, 0), At("c", 60, 70, 0)};
  const std::vector<std::int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 10);
}

TEST(SelfTimes, ClipsChildrenToTheParent) {
  // A worker span that outlives its phase only covers the shared part.
  const std::vector<Span> spans = {At("p", 100, 200), At("c", 50, 120, 0),
                                   At("c", 180, 260, 0)};
  EXPECT_EQ(SelfTimes(spans)[0], 100 - 20 - 20);
}

TEST(SelfTimes, GrandchildrenCountOnlyAgainstTheirParent) {
  const std::vector<Span> spans = {At("root", 0, 100), At("mid", 0, 60, 0),
                                   At("leaf", 10, 50, 1)};
  const std::vector<std::int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 40);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 40);
}

TEST(Summarize, TotalsAndSelfPerName) {
  const std::vector<Span> spans = {At("pair", 0, 1000), At("dp", 0, 600, 0),
                                   At("pair", 1000, 3000),
                                   At("dp", 1500, 2500, 2)};
  const auto summary = Summarize(spans);
  EXPECT_EQ(summary.at("pair").count, 2u);
  EXPECT_DOUBLE_EQ(summary.at("pair").total_s, 3000e-9);
  EXPECT_DOUBLE_EQ(summary.at("pair").self_s, 1400e-9);
  EXPECT_DOUBLE_EQ(summary.at("dp").self_s, 1600e-9);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer off(false);
  const SpanId id = off.Begin("x");
  EXPECT_EQ(id, kNoSpan);
  off.End(id);
  EXPECT_EQ(off.Record("y", 0, 1), kNoSpan);
  EXPECT_TRUE(off.spans().empty());
}

TEST(Tracer, ScopedSpansNestWithParentAndRequest) {
  Tracer on(true);
  {
    const ScopedSpan outer(on, "outer", kNoSpan, 7);
    const ScopedSpan inner(on, "inner", outer.id(), 7);
  }
  const std::vector<Span> spans = on.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].request, 7u);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
}

}  // namespace
}  // namespace perfbench
