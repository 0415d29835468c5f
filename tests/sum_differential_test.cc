// Differential test of the O(1) SUM/AVG triggers. HpcEngine answers every
// SUM/AVG trigger from running per-group (or global) totals that partition
// mutations update incrementally. Each trigger output is checked,
// bit-for-bit, against a fresh full rescan: the engine state is
// checkpointed into a new engine, whose restore rebuilds every exact sum
// from the prefix-counter cells (the integer counts it carries verbatim),
// and that engine is polled for the trigger's group. The same streams then
// run sharded (2 and 4 shards); the outputs must stay bit-exact with the
// serial run.
//
// Streams have many groups, windows spanning most of the stream, negation,
// and multi-part keys (GROUP BY plus an equivalence class), with signed
// carrier values so the float results depend on summation order.

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "aseq/aseq_engine.h"
#include "ckpt/ckpt.h"
#include "engine/runtime.h"
#include "exec/execution_policy.h"
#include "exec/shard_router.h"
#include "stream/generator.h"
#include "tests/test_util.h"

namespace aseq {
namespace {

using testing_util::MustCompile;

struct Stream {
  Schema schema;
  std::vector<Event> events;
};

std::unique_ptr<Stream> MakeStream(uint64_t seed, size_t n, int64_t groups) {
  auto s = std::make_unique<Stream>();
  StreamConfig config;
  config.seed = seed;
  config.num_events = n;
  config.max_gap_ms = 3;
  config.types = {{"A", 1.0}, {"B", 1.0}, {"C", 1.0}, {"X", 0.2}};
  config.attrs = {AttrSpec::IntUniform("g", 0, groups - 1),
                  AttrSpec::IntUniform("k", 0, 2),
                  AttrSpec::DoubleUniform("v", -1000.0, 1000.0)};
  s->events = StreamGenerator(config, &s->schema).Generate();
  AssignSeqNums(&s->events);
  return s;
}

bool SameBits(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() == ValueType::kDouble) {
    return std::bit_cast<uint64_t>(a.AsDouble()) ==
           std::bit_cast<uint64_t>(b.AsDouble());
  }
  return a.Equals(b);
}

std::unique_ptr<QueryEngine> MustCreate(const CompiledQuery& cq) {
  auto engine = CreateAseqEngine(cq);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

/// The trigger's value recomputed from scratch: restore a copy of
/// `engine` (which rebuilds all exact sums from the counter cells) and
/// poll it for `output`'s group at the trigger time.
Value Rescan(const CompiledQuery& cq, const QueryEngine& engine,
             const Output& output) {
  ckpt::Writer writer;
  EXPECT_TRUE(engine.Checkpoint(&writer).ok());
  std::unique_ptr<QueryEngine> fresh = MustCreate(cq);
  ckpt::Reader reader(writer.buffer());
  EXPECT_TRUE(fresh->Restore(&reader).ok());
  for (const Output& polled : fresh->Poll(output.ts)) {
    if (!output.group.has_value() || polled.group->Equals(*output.group)) {
      return polled.value;
    }
  }
  // The group has no live partition: the empty aggregate.
  return AggAccum().Finalize(cq.agg().func);
}

void CheckDifferential(const std::string& query, size_t n, int64_t groups) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    auto s = MakeStream(seed, n, groups);
    CompiledQuery cq = MustCompile(&s->schema, query);
    const std::string context = query + " seed=" + std::to_string(seed);

    // Serial per-event run, every output checked against a rescan.
    std::unique_ptr<QueryEngine> engine = MustCreate(cq);
    std::vector<Output> serial;
    std::vector<Output> scratch;
    size_t nonzero = 0;
    for (const Event& e : s->events) {
      scratch.clear();
      engine->OnEvent(e, &scratch);
      for (const Output& out : scratch) {
        const Value expected = Rescan(cq, *engine, out);
        ASSERT_TRUE(SameBits(out.value, expected))
            << context << " @ts=" << out.ts << ": running total "
            << out.value.ToString() << " vs rescan " << expected.ToString();
        if (!out.value.is_null() && out.value.AsDouble() != 0.0) ++nonzero;
      }
      serial.insert(serial.end(), scratch.begin(), scratch.end());
    }
    ASSERT_GT(nonzero, serial.size() / 4) << context << ": vacuous workload";

    // Every grouped case shards; without GROUP BY the global total cannot.
    const bool shardable = exec::PlanSharding(cq).shardable;
    ASSERT_EQ(shardable, cq.partition_spec().per_group_output) << context;
    if (!shardable) continue;
    for (size_t shards : {2u, 4u}) {
      RunOptions options;
      options.num_shards = shards;
      options.batch_size = 64;
      std::string reason;
      auto policy = exec::MakePolicy(
          cq, [&cq] { return CreateAseqEngine(cq); }, options, &reason);
      ASSERT_TRUE(policy.ok()) << context;
      ASSERT_EQ((*policy)->num_shards(), shards) << context << ": " << reason;
      RunResult sharded = (*policy)->RunEvents(s->events);
      ASSERT_EQ(sharded.outputs.size(), serial.size()) << context;
      for (size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(sharded.outputs[i].seq, serial[i].seq) << context;
        ASSERT_TRUE(SameBits(sharded.outputs[i].value, serial[i].value))
            << context << " shards=" << shards << " output#" << i << ": "
            << sharded.outputs[i].value.ToString() << " vs "
            << serial[i].value.ToString();
      }
    }
  }
}

TEST(SumDifferentialTest, GroupedSumMultiPartLongWindow) {
  CheckDifferential(
      "PATTERN SEQ(A, B, C) WHERE A.k = B.k = C.k GROUP BY g "
      "AGG SUM(B.v) WITHIN 5s",
      2500, /*groups=*/40);
}

TEST(SumDifferentialTest, GroupedAvgNegation) {
  CheckDifferential(
      "PATTERN SEQ(A, !X, B, C) GROUP BY g AGG AVG(C.v) WITHIN 3s", 2500,
      /*groups=*/200);
}

TEST(SumDifferentialTest, GroupedSumNegationMultiPartShortWindow) {
  // A window of ~500 events: partitions expire and restart throughout.
  CheckDifferential(
      "PATTERN SEQ(A, B, !X, C) WHERE A.k = B.k = C.k GROUP BY g "
      "AGG SUM(A.v) WITHIN 1s",
      2500, /*groups=*/20);
}

TEST(SumDifferentialTest, GlobalSumAcrossPartitions) {
  // Equivalence only: every trigger reads the one global running total
  // over all partitions.
  CheckDifferential(
      "PATTERN SEQ(A, B) WHERE A.k = B.k AGG SUM(A.v) WITHIN 5s", 1500,
      /*groups=*/200);
}

TEST(SumDifferentialTest, GroupedAvgUnbounded) {
  CheckDifferential("PATTERN SEQ(A, B) GROUP BY g AGG AVG(B.v)", 1500,
                    /*groups=*/200);
}

}  // namespace
}  // namespace aseq
