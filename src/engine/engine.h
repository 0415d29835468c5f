#ifndef ASEQ_ENGINE_ENGINE_H_
#define ASEQ_ENGINE_ENGINE_H_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/event.h"
#include "common/status.h"
#include "common/value.h"
#include "metrics/metrics.h"

namespace aseq {

namespace ckpt {
class Writer;
class Reader;
}  // namespace ckpt

/// \brief One aggregation result delivered by an engine.
struct Output {
  /// Arrival time of the TRIG event that produced the result (or the poll
  /// time for polled snapshots).
  Timestamp ts = 0;
  /// Sequence number of the producing event.
  SeqNum seq = 0;
  /// GROUP BY key; empty for ungrouped queries.
  std::optional<Value> group;
  /// The aggregate value: int64 for COUNT, double for SUM/AVG/MIN/MAX.
  /// Null when the match set is empty and the aggregate is undefined
  /// (AVG/MIN/MAX of nothing).
  Value value;
  /// The producing engine's sticky EngineStats::overflow at output time: a
  /// match count saturated, so `value` may be a lower bound, not exact.
  bool overflow = false;

  std::string ToString() const;
};

/// \brief Single-query evaluation engine interface.
///
/// Implemented by the A-Seq engine (HpcEngine: DPC / SEM / HPC by query
/// shape) and by the stack-based baseline. The window slides on every
/// arrival (the paper's window semantics), so OnEvent both expires state
/// and processes the event; TRIG arrivals append results to `out`.
class QueryEngine {
 public:
  virtual ~QueryEngine() = default;

  /// Processes one event in arrival order; appends any results to `out`
  /// (left untouched otherwise). Events must have non-decreasing
  /// timestamps and strictly increasing sequence numbers.
  virtual void OnEvent(const Event& e, std::vector<Output>* out) = 0;

  /// Processes a batch of events in arrival order. Exactly equivalent to
  /// calling OnEvent once per event — byte-identical Output sequences and
  /// identical EngineStats (modulo the batch counters) — but engines
  /// override it to amortize per-event overheads: window-expiry checks,
  /// role/hash lookups, and (HpcEngine) software-prefetched partition
  /// probes. The default implementation is the per-event loop.
  virtual void OnBatch(std::span<const Event> batch,
                       std::vector<Output>* out) {
    if (batch.empty()) return;
    for (const Event& e : batch) OnEvent(e, out);
    if (EngineStats* stats = mutable_stats()) stats->NoteBatch(batch.size());
  }

  /// Reports the current aggregation value(s) as of time `now` (expired
  /// state excluded), without consuming an event — SEM step (4): "if an
  /// output result were to be required at this time". Grouped queries
  /// report one Output per group with a non-zero/defined value.
  virtual std::vector<Output> Poll(Timestamp now) = 0;

  /// Execution statistics (object accounting per DESIGN.md).
  virtual const EngineStats& stats() const = 0;

  /// Sticky engine failure, or OK. An engine that exhausts a resource
  /// budget (the match-materializing baselines) latches
  /// ResourceExhausted here and ignores further events; the drivers stop
  /// the run and report it in RunResultBase::fault_status.
  virtual Status status() const { return Status::OK(); }

  /// Serializes the engine's complete dynamic state — everything that is
  /// not rebuilt by constructing the engine for the same query — so that
  /// Restore() on a freshly constructed twin reproduces byte-identical
  /// outputs and stats for the remainder of the stream. Engines write only
  /// fixed-width, length-prefixed primitives through the Writer (see
  /// docs/internals.md §10 for the per-engine payloads).
  virtual Status Checkpoint(ckpt::Writer* writer) const {
    (void)writer;
    return Status::Unsupported(name() + " does not support checkpointing");
  }

  /// Inverse of Checkpoint: loads the serialized state into this engine.
  /// Must be called on a freshly constructed engine for the same query; a
  /// malformed payload fails with a descriptive Status (the engine is then
  /// in an unspecified state and must be discarded, but no UB occurs).
  virtual Status Restore(ckpt::Reader* reader) {
    (void)reader;
    return Status::Unsupported(name() + " does not support checkpointing");
  }

  /// Human-readable engine name ("A-Seq(SEM)", "StackBased", ...).
  virtual std::string name() const = 0;

 protected:
  /// Hook for the default OnBatch to record batch counters. Engines that
  /// own an EngineStats return it here; wrappers that merely forward
  /// stats() to an inner engine leave it null so the inner engine's own
  /// OnBatch (or fallback loop) does the accounting exactly once.
  virtual EngineStats* mutable_stats() { return nullptr; }
};

/// \brief Optional capability interface for engines — of either hierarchy
/// (QueryEngine or MultiQueryEngine) — whose grouped state can be
/// hash-partitioned by GROUP BY key across independent twin instances (see
/// exec::ShardedExecutorT). Engines opt in by also deriving from this and
/// answer per instance through shardable(); the policy builder probes with
/// one dynamic_cast plus that call (AsShardable) and falls back to serial
/// execution when either says no (wrappers and baselines never shard).
///
/// A shardable engine promises that events whose group key values differ
/// touch disjoint state *except* for window expiry: a trigger event purges
/// expired state across every partition of the engines owning the
/// triggered queries, not only its own key's. SyncPurgeTo replicates
/// exactly that cross-partition purge — no output, no work-unit charge,
/// only object expiry — so a shard that observes a purge marker for a
/// trigger it does not own ends up byte-identical to its slice of the
/// serial engine.
class ShardableEngine {
 public:
  virtual ~ShardableEngine() = default;

  /// True when this instance actually supports partitioned execution (a
  /// partitioned query; a workload whose queries all do). Engines
  /// implement the interface unconditionally and answer per instance.
  virtual bool shardable() const = 0;

  /// Applies the cross-partition purges that the trigger event at `now`
  /// performs on state the trigger's own key does not cover.
  /// `trigger_queries` names the triggered workload query indexes
  /// (ascending); a single-query engine ignores it.
  virtual void SyncPurgeTo(Timestamp now,
                           std::span<const size_t> trigger_queries) = 0;

  /// True when this engine's object counter advances once per event (a
  /// single Add of the combined delta, as the wrapper engines do), so its
  /// window_peak never carries a real intra-event maximum. The sharded
  /// executor then merges boundary totals only — a per-shard mid-event
  /// high would be a point the serial engine never observed. Engines that
  /// count objects at add/remove granularity keep the default.
  virtual bool objects_sampled_at_boundaries() const { return false; }

  /// Mutable stats access for the executor's per-event object-peak
  /// windows (ObjectCounter::BeginPeakWindow) — the merge needs mid-event
  /// maxima, which const stats() cannot expose.
  virtual EngineStats* shard_mutable_stats() = 0;
};

/// The engine's shardable interface when it implements one and agrees to
/// shard, else null: the one probe every caller uses.
template <class EngineT>
ShardableEngine* AsShardable(EngineT* engine) {
  auto* shardable = dynamic_cast<ShardableEngine*>(engine);
  return shardable != nullptr && shardable->shardable() ? shardable : nullptr;
}

/// \brief An Output attributed to one query of a multi-query workload.
struct MultiOutput {
  size_t query_index = 0;
  Output output;
};

/// \brief Multi-query evaluation engine interface (Sec. 4): processes every
/// workload query against the shared stream in one pass.
class MultiQueryEngine {
 public:
  virtual ~MultiQueryEngine() = default;

  /// Processes one event for all queries; appends results to `out`.
  virtual void OnEvent(const Event& e, std::vector<MultiOutput>* out) = 0;

  /// Batched counterpart of OnEvent with the same exact-equivalence
  /// contract as QueryEngine::OnBatch. Default: per-event loop.
  virtual void OnBatch(std::span<const Event> batch,
                       std::vector<MultiOutput>* out) {
    if (batch.empty()) return;
    for (const Event& e : batch) OnEvent(e, out);
    if (EngineStats* stats = mutable_stats()) stats->NoteBatch(batch.size());
  }

  /// Reports the current aggregation value(s) of every query as of time
  /// `now` without consuming an event (see QueryEngine::Poll). Outputs are
  /// ordered by query index, grouped queries reporting one Output per live
  /// group. Engines without a poll surface report nothing.
  virtual std::vector<MultiOutput> Poll(Timestamp now) {
    (void)now;
    return {};
  }

  /// Per-workload statistics.
  virtual const EngineStats& stats() const = 0;

  /// Sticky engine failure, or OK (see QueryEngine::status): the first
  /// non-OK status among the member engines for the wrappers that hold
  /// single-query engines.
  virtual Status status() const { return Status::OK(); }

  /// See QueryEngine::Checkpoint / QueryEngine::Restore.
  virtual Status Checkpoint(ckpt::Writer* writer) const {
    (void)writer;
    return Status::Unsupported(name() + " does not support checkpointing");
  }
  virtual Status Restore(ckpt::Reader* reader) {
    (void)reader;
    return Status::Unsupported(name() + " does not support checkpointing");
  }

  virtual std::string name() const = 0;

 protected:
  /// See QueryEngine::mutable_stats.
  virtual EngineStats* mutable_stats() { return nullptr; }
};

}  // namespace aseq

#endif  // ASEQ_ENGINE_ENGINE_H_
