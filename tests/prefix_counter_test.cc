#include <gtest/gtest.h>

#include "aseq/counter_set.h"
#include "aseq/prefix_counter.h"

namespace aseq {
namespace {

// --------------------------------------------------------------------------
// PrefixCounter: Lemma 1 recurrence
// --------------------------------------------------------------------------

TEST(PrefixCounterTest, SingleSequence) {
  PrefixCounter pc(3, AggFunc::kCount, 0);
  EXPECT_EQ(pc.Tail().count, 0u);
  pc.ApplyPositive(1);
  pc.ApplyPositive(2);
  pc.ApplyPositive(3);
  EXPECT_EQ(pc.count_at(1), 1u);
  EXPECT_EQ(pc.count_at(2), 1u);
  EXPECT_EQ(pc.Tail().count, 1u);
}

TEST(PrefixCounterTest, PaperFigure4Example) {
  // Fig. 4: pattern (A, B, C, D). Build the column state (3, 2, 1, 1) via
  // the arrival sequence a b c d b a a.
  PrefixCounter pc(4, AggFunc::kCount, 0);
  pc.ApplyPositive(1);  // a
  pc.ApplyPositive(2);  // b
  pc.ApplyPositive(3);  // c
  pc.ApplyPositive(4);  // d
  pc.ApplyPositive(2);  // b
  pc.ApplyPositive(1);  // a
  pc.ApplyPositive(1);  // a
  EXPECT_EQ(pc.count_at(1), 3u);
  EXPECT_EQ(pc.count_at(2), 2u);
  EXPECT_EQ(pc.count_at(3), 1u);
  EXPECT_EQ(pc.count_at(4), 1u);
  // "When event instance b arrives ... add the existing counts of (A) = 3
  //  and (A, B) = 2 to get the new count of (A, B) = 5."
  pc.ApplyPositive(2);
  EXPECT_EQ(pc.count_at(2), 5u);
  EXPECT_EQ(pc.count_at(1), 3u);  // all other prefixes unchanged
  EXPECT_EQ(pc.count_at(3), 1u);
  // "Similarly, when the instance d arrives ... (A,B,C,D) = 1 + 1 = 2."
  pc.ApplyPositive(4);
  EXPECT_EQ(pc.count_at(4), 2u);
}

TEST(PrefixCounterTest, RecountingRuleResetsOnlyTheAdjacentPrefix) {
  // Fig. 7: pattern (A, B, !C, D) — prefix counter over positives (A, B, D).
  // Arrival order: a1 a2 b1 c1 b2 d1 => 2 matches (a1,b2,d1), (a2,b2,d1).
  PrefixCounter pc(3, AggFunc::kCount, 0);
  pc.ApplyPositive(1);  // a1
  pc.ApplyPositive(1);  // a2
  pc.ApplyPositive(2);  // b1 -> (A,B) = 2
  EXPECT_EQ(pc.count_at(2), 2u);
  pc.ResetPrefix(2);  // c1 invalidates the Longest Positive Prefix Sequences
  EXPECT_EQ(pc.count_at(1), 2u);  // (A) kept
  EXPECT_EQ(pc.count_at(2), 0u);  // (A,B) cleared
  EXPECT_EQ(pc.count_at(3), 0u);  // (A,B,D) kept (still 0 here)
  pc.ApplyPositive(2);            // b2 -> (A,B) = 2 again
  pc.ApplyPositive(3);            // d1
  EXPECT_EQ(pc.Tail().count, 2u);
}

TEST(PrefixCounterTest, DuplicateTypeDescendingUpdateOrder) {
  // Pattern (A, A): each arrival applies position 2 then position 1.
  PrefixCounter pc(2, AggFunc::kCount, 0);
  for (int i = 0; i < 4; ++i) {
    pc.ApplyPositive(2);
    pc.ApplyPositive(1);
  }
  // Matches = pairs (a_i, a_j), i<j = C(4,2) = 6.
  EXPECT_EQ(pc.Tail().count, 6u);
}

TEST(PrefixCounterTest, LengthOne) {
  PrefixCounter pc(1, AggFunc::kCount, 0);
  pc.ApplyPositive(1);
  pc.ApplyPositive(1);
  EXPECT_EQ(pc.Tail().count, 2u);
}

TEST(PrefixCounterTest, ToStringRendersCounts) {
  PrefixCounter pc(2, AggFunc::kCount, 0);
  pc.ApplyPositive(1);
  EXPECT_EQ(pc.ToString(), "[1 0]");
}

// --------------------------------------------------------------------------
// Weighted counting (SUM/AVG, Sec. 5)
// --------------------------------------------------------------------------

TEST(PrefixCounterTest, SumTracksWeightedMatches) {
  // Pattern (A, B, C), SUM over B.w (carrier position 2).
  PrefixCounter pc(3, AggFunc::kSum, 2);
  pc.ApplyPositive(1);        // a1
  pc.ApplyPositive(1);        // a2
  pc.ApplyPositive(2, 10.0);  // b1: extends 2 prefixes -> wsum = 20
  pc.ApplyPositive(2, 5.0);   // b2: extends 2 prefixes -> wsum = 30
  pc.ApplyPositive(3);        // c1: all 4 (A,B) matches complete
  AggAccum acc = pc.Tail();
  EXPECT_EQ(acc.count, 4u);
  // Matches: (a1,b1,c1)=10 (a2,b1,c1)=10 (a1,b2,c1)=5 (a2,b2,c1)=5.
  EXPECT_DOUBLE_EQ(acc.sum.Finalize(), 30.0);
  EXPECT_DOUBLE_EQ(acc.Finalize(AggFunc::kSum).AsDouble(), 30.0);
}

TEST(PrefixCounterTest, SumNonUniformExtension) {
  // The case where the paper's proportional-scaling sketch would be
  // inexact: prefixes extend to different numbers of full matches.
  // Pattern (A, B), SUM over A.v.
  PrefixCounter pc(2, AggFunc::kSum, 1);
  pc.ApplyPositive(1, 100.0);  // a1
  pc.ApplyPositive(2);         // b1: match (a1,b1) -> sum 100
  pc.ApplyPositive(1, 1.0);    // a2
  pc.ApplyPositive(2);         // b2: matches (a1,b2), (a2,b2) -> +101
  AggAccum acc = pc.Tail();
  EXPECT_EQ(acc.count, 3u);
  // a1 participates twice, a2 once.
  EXPECT_DOUBLE_EQ(acc.sum.Finalize(), 201.0);
}

TEST(PrefixCounterTest, AvgFinalize) {
  PrefixCounter pc(2, AggFunc::kAvg, 1);
  pc.ApplyPositive(1, 4.0);
  pc.ApplyPositive(1, 8.0);
  pc.ApplyPositive(2);
  AggAccum acc = pc.Tail();
  EXPECT_EQ(acc.count, 2u);
  EXPECT_DOUBLE_EQ(acc.Finalize(AggFunc::kAvg).AsDouble(), 6.0);
  // AVG over the empty match set is null.
  PrefixCounter empty(2, AggFunc::kAvg, 1);
  EXPECT_TRUE(empty.Tail().Finalize(AggFunc::kAvg).is_null());
}

TEST(PrefixCounterTest, SumResetByNegation) {
  // Pattern (A, !X, B), SUM over A.v.
  PrefixCounter pc(2, AggFunc::kSum, 1);
  pc.ApplyPositive(1, 7.0);
  pc.ResetPrefix(1);           // X arrives: (A) invalidated, weight too
  pc.ApplyPositive(2);         // b: no matches
  EXPECT_EQ(pc.Tail().count, 0u);
  EXPECT_DOUBLE_EQ(pc.Tail().sum.Finalize(), 0.0);
  pc.ApplyPositive(1, 3.0);    // a2 after the negation
  pc.ApplyPositive(2);         // b2: match (a2, b2)
  EXPECT_EQ(pc.Tail().count, 1u);
  EXPECT_DOUBLE_EQ(pc.Tail().sum.Finalize(), 3.0);
}

// --------------------------------------------------------------------------
// Extremal counting (MIN/MAX, Sec. 5)
// --------------------------------------------------------------------------

TEST(PrefixCounterTest, MaxOverMatches) {
  // Pattern (A, B, C), MAX over B.w.
  PrefixCounter pc(3, AggFunc::kMax, 2);
  EXPECT_FALSE(pc.Tail().has_ext);
  pc.ApplyPositive(2, 99.0);  // b with no (A) prefix: participates in nothing
  pc.ApplyPositive(1);        // a1
  pc.ApplyPositive(2, 10.0);  // b1
  pc.ApplyPositive(2, 30.0);  // b2
  pc.ApplyPositive(3);        // c1
  AggAccum acc = pc.Tail();
  ASSERT_TRUE(acc.has_ext);
  EXPECT_DOUBLE_EQ(acc.ext, 30.0);  // the orphan 99 never formed a match
  EXPECT_DOUBLE_EQ(acc.Finalize(AggFunc::kMax).AsDouble(), 30.0);
}

TEST(PrefixCounterTest, MinOverMatches) {
  PrefixCounter pc(2, AggFunc::kMin, 2);
  pc.ApplyPositive(1);
  pc.ApplyPositive(2, 5.0);
  pc.ApplyPositive(2, 3.0);
  pc.ApplyPositive(2, 9.0);
  AggAccum acc = pc.Tail();
  ASSERT_TRUE(acc.has_ext);
  EXPECT_DOUBLE_EQ(acc.ext, 3.0);
  EXPECT_TRUE(PrefixCounter(2, AggFunc::kMin, 2)
                  .Tail()
                  .Finalize(AggFunc::kMin)
                  .is_null());
}

TEST(PrefixCounterTest, MaxResetByNegation) {
  // Pattern (A, B, !X, C), MAX over B.w; positives (A, B, C).
  PrefixCounter pc(3, AggFunc::kMax, 2);
  pc.ApplyPositive(1);
  pc.ApplyPositive(2, 50.0);
  pc.ResetPrefix(2);          // X: (A,B) matches invalidated
  pc.ApplyPositive(2, 20.0);  // new b after the negation
  pc.ApplyPositive(3);        // c
  AggAccum acc = pc.Tail();
  ASSERT_TRUE(acc.has_ext);
  EXPECT_DOUBLE_EQ(acc.ext, 20.0);  // 50 died with the reset
}

// --------------------------------------------------------------------------
// AggAccum merging
// --------------------------------------------------------------------------

TEST(AggAccumTest, MergeExtKeepsExtremum) {
  AggAccum max;
  max.MergeExt(7, AggFunc::kMax);
  max.MergeExt(4, AggFunc::kMax);
  EXPECT_TRUE(max.has_ext);
  EXPECT_DOUBLE_EQ(max.ext, 7.0);
  AggAccum min;
  min.MergeExt(7, AggFunc::kMin);
  min.MergeExt(4, AggFunc::kMin);
  EXPECT_DOUBLE_EQ(min.ext, 4.0);
  EXPECT_DOUBLE_EQ(min.Finalize(AggFunc::kMin).AsDouble(), 4.0);
}

TEST(AggAccumTest, FinalizeCount) {
  AggAccum acc;
  acc.count = 9;
  EXPECT_EQ(acc.Finalize(AggFunc::kCount).AsInt64(), 9);
  EXPECT_DOUBLE_EQ(AggAccum{}.Finalize(AggFunc::kSum).AsDouble(), 0.0);
}

// --------------------------------------------------------------------------
// CounterSet: DPC (unbounded) vs SEM (windowed)
// --------------------------------------------------------------------------

TEST(CounterSetTest, UnboundedModeUsesOneCounter) {
  EngineStats stats;
  CounterSet set(3, AggFunc::kCount, 0, 0, &stats);
  uint64_t total = 0;
  const TotalSink sink{&total};
  Event a(0, 10);
  set.OnStart(a, 0, sink);
  set.OnStart(a, 0, sink);
  set.ApplyUpdate(2, 0, sink);
  set.ApplyUpdate(3, 0, sink);
  EXPECT_EQ(set.num_counters(), 1u);
  EXPECT_EQ(total, 2u);
  set.Purge(1000000, sink);  // no-op without a window
  EXPECT_EQ(total, 2u);
  EXPECT_EQ(stats.objects.peak(), 1);
}

TEST(CounterSetTest, WindowedModeCreatesPerStartCounters) {
  EngineStats stats;
  CounterSet set(2, AggFunc::kCount, 0, 100, &stats);
  uint64_t total = 0;
  const TotalSink sink{&total};
  Event a1(0, 10);
  Event a2(0, 50);
  set.OnStart(a1, 0, sink);
  set.OnStart(a2, 0, sink);
  EXPECT_EQ(set.num_counters(), 2u);
  set.ApplyUpdate(2, 0, sink);
  EXPECT_EQ(total, 2u);
  // a1 expires at 110.
  set.Purge(109, sink);
  EXPECT_EQ(set.num_counters(), 2u);
  set.Purge(110, sink);
  EXPECT_EQ(set.num_counters(), 1u);
  EXPECT_EQ(total, 1u);
  set.Purge(150, sink);
  EXPECT_EQ(set.num_counters(), 0u);
  EXPECT_EQ(total, 0u);
  EXPECT_EQ(stats.objects.peak(), 2);
  EXPECT_EQ(stats.objects.current(), 0);
}

TEST(CounterSetTest, ResetPrefixHitsEveryCounter) {
  EngineStats stats;
  CounterSet set(3, AggFunc::kCount, 0, 1000, &stats);
  uint64_t total = 0;
  const TotalSink sink{&total};
  Event a1(0, 1), a2(0, 2);
  set.OnStart(a1, 0, sink);
  set.OnStart(a2, 0, sink);
  set.ApplyUpdate(2, 0, sink);
  set.ResetPrefix(2);
  set.ApplyUpdate(3, 0, sink);
  EXPECT_EQ(total, 0u);
  set.ApplyUpdate(2, 0, sink);
  set.ApplyUpdate(3, 0, sink);
  EXPECT_EQ(total, 2u);
}

// The sink's exact sum tracks the live tails through updates and purges,
// and equals a fresh rebuild from the tail cells.
TEST(CounterSetTest, SinkSumMatchesTailRebuild) {
  CounterSet set(2, AggFunc::kSum, 1, 100, nullptr);
  uint64_t total = 0;
  ExactSum sum;
  const TotalSink sink{&total, &sum};
  set.OnStart(Event(0, 10), 0.1, sink);
  set.OnStart(Event(0, 50), 0.2, sink);
  set.ApplyUpdate(2, 0, sink);  // (a1,b) = 0.1, (a2,b) = 0.2
  set.ApplyUpdate(2, 0, sink);  // twice each
  EXPECT_EQ(total, 4u);
  ExactSum rebuilt;
  set.AddTailSums(&rebuilt);
  EXPECT_EQ(sum, rebuilt);
  set.Purge(110, sink);  // a1 expires
  EXPECT_EQ(total, 2u);
  EXPECT_EQ(sum.Finalize(), 0.4);
  rebuilt = ExactSum();
  set.AddTailSums(&rebuilt);
  EXPECT_EQ(sum, rebuilt);
}

TEST(CounterSetTest, WorkUnitsScaleWithLiveCounters) {
  EngineStats stats;
  CounterSet set(2, AggFunc::kCount, 0, 1000, &stats);
  Event a(0, 1);
  set.OnStart(a);
  set.OnStart(a);
  uint64_t before = stats.work_units;
  set.ApplyUpdate(2);
  EXPECT_EQ(stats.work_units - before, 2u);
}

}  // namespace
}  // namespace aseq
