#ifndef ASEQ_EXEC_SHARD_ROUTER_H_
#define ASEQ_EXEC_SHARD_ROUTER_H_

#include <span>
#include <string>
#include <vector>

#include "ckpt/ckpt.h"
#include "common/event.h"
#include "common/status.h"
#include "container/key_interner.h"
#include "plan/admission.h"
#include "query/compiled_query.h"

namespace aseq {
namespace exec {

/// \brief Whether a query's state can be split by GROUP BY key across
/// independent engine twins with byte-identical outputs and stats.
struct ShardPlan {
  bool shardable = false;
  /// Why not, phrased for the CLI's fallback log (empty when shardable).
  std::string reason;
};

/// The fallback matrix (docs/internals.md §11). A query shards iff:
///  - it is partitioned with per-group output (GROUP BY): each group's
///    partitions then share one GROUP BY key value, so hash-routing on
///    that value keeps all state a trigger reads on one shard;
///  - every negated role is constrained by the GROUP BY part (always true
///    for GROUP BY queries — the group part covers every element — but
///    checked, not assumed), so negative instances cannot invalidate
///    partitions on other shards.
/// Every aggregate merges a group's partitions order-insensitively (integer
/// counts, exact SUM/AVG sums, MIN/MAX), so the aggregate never blocks
/// sharding. Everything else — ungrouped queries, equivalence-only
/// partitioning, join predicates — falls back to serial with the reason
/// logged.
ShardPlan PlanSharding(const CompiledQuery& query);

/// \brief Routes events to shards with the engine's own compiled admission
/// program (src/plan/), so an event always lands on the shard whose engine
/// twin owns its GROUP BY key — and trigger events are recognized with
/// exactly the condition HpcEngine stages them under (a qualifying positive
/// role at the final position whose partition key extracts).
class ShardRouter {
 public:
  ShardRouter(const CompiledQuery& query, size_t num_shards);

  struct Route {
    /// Owner shard. Events that stage no probe (type not in the pattern,
    /// failed local predicates, missing key attribute) touch no partition
    /// state on any shard; they spread round-robin by seq for balanced
    /// event accounting.
    size_t shard = 0;
    /// True when the event completes the pattern: the serial engine then
    /// purges expired state across *every* partition, so the executor
    /// must send purge markers to the non-owner shards.
    bool trigger = false;
    /// True when the event staged a probe and its GROUP BY key extracted;
    /// key_id then holds the router's dense id for that key. The shed
    /// overload policy drops whole partitions by key_id — events without
    /// a key touch no partition state and are never shed.
    bool has_key = false;
    uint32_t key_id = 0;
    /// Fault injection (point router.route, kind overload): the executor
    /// treats this event as if the owner shard's queue had hit its
    /// high-watermark, engaging the overload policy deterministically.
    bool inject_overload = false;
  };

  /// `e` must carry its final seq number. Single-event path — tests and
  /// shed-oracle replicas use it; the executor's hot path is RouteBatch.
  Route RouteEvent(const Event& e);

  /// \brief Routes a whole borrowed batch in one pass: a vectorized
  /// admission prefilter over the event-type column, one BatchAdmitter
  /// pass for the surviving events, then per-event route assembly. Events
  /// must carry their final seq numbers. The fault point `router.route`
  /// still fires once per *event* (offset semantics are part of the fault
  /// specs' contract), and interning order stays event order, so routes
  /// are identical to per-event RouteEvent calls. The returned span is
  /// valid until the next RouteBatch/RouteEvent call.
  std::span<const Route> RouteBatch(std::span<const Event> batch);

  /// \brief Router state round-trip for sharded snapshots.
  ///
  /// Shard ownership is `interned id % num_shards`, and ids are assigned
  /// in first-routed order — so the interner table is part of the sharded
  /// run's durable state. A restored run must replay the stream suffix
  /// through a router holding the checkpointed table, or previously-seen
  /// keys would re-intern under fresh ids and land on the wrong shards.
  /// The payload is the interner's values in id order.
  void Checkpoint(ckpt::Writer* writer) const;
  Status Restore(ckpt::Reader* reader);

 private:
  const CompiledQuery* query_;
  size_t num_shards_;
  size_t length_;
  size_t group_part_;
  /// Compiled admission program — the *same* lowering the shard engines
  /// run, so "stages a probe" means exactly the same thing on both sides.
  /// Borrows query_'s predicate storage (the query outlives the router).
  plan::AdmissionProgram program_;
  /// Admission scratch. The batch interning pass is NOT used (AdmitBatch
  /// runs with a null interner): the router interns only the GROUP BY part
  /// value, below, and its id order is durable state.
  plan::BatchAdmitter admitter_;
  /// Per-batch type-relevance bitmask (RouteBatch only).
  plan::BatchPrefilter prefilter_;
  /// RouteBatch scratch, clear-not-shrink.
  std::vector<Route> routes_;
  /// GROUP BY values → dense ids, in first-routed order. Independent of
  /// any engine-side interner: routing only needs its *own* ids to be
  /// stable, and shard engines never see them.
  container::KeyInterner interner_;
};

/// \brief Whether a *workload's* combined state can be split by GROUP BY
/// key across independent multi-query engine twins, bit-exact.
struct MultiShardPlan {
  bool shardable = false;
  /// Why not, phrased for the CLI's fallback log (empty when shardable).
  std::string reason;
};

/// A workload shards iff every query shards on its own (PlanSharding) AND
/// every query groups by the same attribute: a multi-query event lands on
/// exactly one shard, so all queries' partition keys must derive from the
/// same event attribute — otherwise one query's partitions for a key would
/// scatter across shards chosen by another query's key.
MultiShardPlan PlanMultiSharding(std::span<const CompiledQuery> queries);

/// \brief Multi-query router: one compiled admission program per workload
/// query over one shared key interner. An event's owner shard is fixed by
/// the (common) GROUP BY attribute value; the route also carries which
/// queries the event completes, so purge markers replay exactly the
/// per-query purges the serial multi-engine would perform at that trigger.
class MultiShardRouter {
 public:
  MultiShardRouter(std::span<const CompiledQuery> queries, size_t num_shards);

  struct Route {
    /// Owner shard (seq round-robin when no query stages a probe).
    size_t shard = 0;
    /// True when some query staged a probe and the GROUP BY key extracted;
    /// key_id then holds the router's dense id for that key.
    bool has_key = false;
    uint32_t key_id = 0;
    /// Fault injection (point router.route, kind overload).
    bool inject_overload = false;
    /// Ascending workload indexes of the windowed queries this event
    /// completes — the serial engine purges those queries' expired state
    /// at this event, so non-owner shards get a marker carrying the set.
    /// Unbounded queries never appear (nothing of theirs expires).
    std::vector<size_t> trigger_queries;
  };

  /// `e` must carry its final seq number. The returned reference is
  /// invalidated by the next RouteEvent call (the route's trigger vector
  /// is reused scratch). Single-event path; the executor uses RouteBatch.
  const Route& RouteEvent(const Event& e);

  /// \brief Batched routing: per-event `router.route` fault hits in seq
  /// order first, then one prefiltered BatchAdmitter pass per workload
  /// query — a query with no relevant event in the batch is skipped
  /// entirely. Interning is query-major over the batch (all of query 0's
  /// records, then query 1's, ...): a different — but equally
  /// deterministic — first-seen id order than the event-major single-event
  /// path, self-consistent within a run and across its checkpoints, and
  /// irrelevant to outputs (any deterministic placement merges back
  /// bit-exact). The returned span is valid until the next RouteBatch
  /// call.
  std::span<const Route> RouteBatch(std::span<const Event> batch);

  /// Same contract as ShardRouter::Checkpoint/Restore: the shared
  /// interner's values in id order are the router's durable state.
  void Checkpoint(ckpt::Writer* writer) const;
  Status Restore(ckpt::Reader* reader);

 private:
  struct PerQuery {
    size_t length = 0;
    size_t group_part = 0;
    bool windowed = false;
    /// Borrows the query's predicate storage (the workload outlives the
    /// router — MakeMultiPolicy guarantees it).
    plan::AdmissionProgram program;
  };

  size_t num_shards_;
  std::vector<PerQuery> queries_;
  plan::BatchAdmitter admitter_;
  plan::BatchPrefilter prefilter_;
  container::KeyInterner interner_;
  Route route_;  // reused across calls (clear-not-shrink)
  std::vector<Route> routes_;  // RouteBatch scratch, clear-not-shrink
};

}  // namespace exec
}  // namespace aseq

#endif  // ASEQ_EXEC_SHARD_ROUTER_H_
