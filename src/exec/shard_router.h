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

/// \brief Whether a query's (or a workload's) state can be split by GROUP
/// BY key across independent engine twins with byte-identical outputs and
/// stats.
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

/// A workload shards iff every query shards on its own (PlanSharding) AND
/// every query groups by the same attribute: a multi-query event lands on
/// exactly one shard, so all queries' partition keys must derive from the
/// same event attribute — otherwise one query's partitions for a key would
/// scatter across shards chosen by another query's key.
ShardPlan PlanMultiSharding(std::span<const CompiledQuery> queries);
using MultiShardPlan = ShardPlan;

/// \brief Routes events to shards with the engines' own compiled admission
/// programs (src/plan/), one per query over one shared key interner, so an
/// event always lands on the shard whose engine twin owns its GROUP BY key
/// — and trigger events are recognized with exactly the condition the
/// engines stage them under (a qualifying positive role at the final
/// position whose partition key extracts).
///
/// One router serves a single query (a span of one) and a workload: every
/// query keys on the same attribute (PlanMultiSharding), so an event's
/// owner shard is fixed by that one value, and the route also carries
/// which queries the event completes, so purge markers replay exactly the
/// per-query purges the serial engine performs at that trigger.
class ShardRouter {
 public:
  /// `queries` must outlive the router (the admission programs borrow
  /// their predicate storage).
  ShardRouter(std::span<const CompiledQuery> queries, size_t num_shards);
  ShardRouter(const CompiledQuery& query, size_t num_shards)
      : ShardRouter(std::span<const CompiledQuery>(&query, 1), num_shards) {}

  struct Route {
    /// Owner shard. Events that stage no probe (type not in any pattern,
    /// failed local predicates, missing key attribute) touch no partition
    /// state on any shard; they spread round-robin by seq for balanced
    /// event accounting.
    size_t shard = 0;
    /// True when the event completes any query's pattern.
    bool trigger = false;
    /// True when some query staged a probe and its GROUP BY key extracted;
    /// key_id then holds the router's dense id for that key. The shed
    /// overload policy drops whole partitions by key_id — events without
    /// a key touch no partition state and are never shed.
    bool has_key = false;
    uint32_t key_id = 0;
    /// Fault injection (point router.route, kind overload): the executor
    /// treats this event as if the owner shard's queue had hit its
    /// high-watermark, engaging the overload policy deterministically.
    bool inject_overload = false;
    /// Ascending indexes of the *windowed* queries this event completes —
    /// the serial engine purges those queries' expired state across every
    /// partition at this event, so non-owner shards get a purge marker.
    /// Unbounded queries never appear (nothing of theirs expires).
    std::vector<size_t> trigger_queries;
  };

  /// `e` must carry its final seq number. The returned reference is
  /// invalidated by the next RouteEvent call (the route is reused
  /// scratch). Single-event path — tests and shed-oracle replicas use it;
  /// the executor's hot path is RouteBatch.
  const Route& RouteEvent(const Event& e);

  /// \brief Routes a whole borrowed batch: per-event `router.route` fault
  /// hits in seq order first (offset semantics are part of the fault
  /// specs' contract), then per query one vectorized admission prefilter
  /// over the event-type column and one BatchAdmitter pass for the
  /// surviving events — a query with no relevant event in the batch is
  /// skipped entirely. Events must carry their final seq numbers.
  ///
  /// Interning is query-major over the batch (all of query 0's records,
  /// then query 1's, ...): for one query that is RouteEvent's event order,
  /// so routes are identical; for a workload it is a different — but
  /// equally deterministic — first-seen id order, self-consistent within a
  /// run and across its checkpoints, and irrelevant to outputs (any
  /// deterministic placement merges back bit-exact). The returned span is
  /// valid until the next RouteBatch call.
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
  struct PerQuery {
    size_t length = 0;
    size_t group_part = 0;
    bool windowed = false;
    /// Compiled admission program — the *same* lowering the shard engines
    /// run, so "stages a probe" means exactly the same thing on both
    /// sides.
    plan::AdmissionProgram program;
  };

  /// Resets `route` and applies the per-event `router.route` fault hit.
  void BeginRoute(const Event& e, bool armed, Route* route);
  /// Folds query `qi`'s admission records for one event into `route`.
  void AddRecords(size_t qi, std::span<const plan::AdmissionRecord> records,
                  Route* route);

  size_t num_shards_;
  std::vector<PerQuery> queries_;
  /// Admission scratch. The batch interning pass is NOT used (AdmitBatch
  /// runs with a null interner): the router interns only the GROUP BY part
  /// value, and its id order is durable state.
  plan::BatchAdmitter admitter_;
  /// Per-batch type-relevance bitmask (RouteBatch only).
  plan::BatchPrefilter prefilter_;
  /// GROUP BY values → dense ids, in first-routed order. Independent of
  /// any engine-side interner: routing only needs its *own* ids to be
  /// stable, and shard engines never see them.
  container::KeyInterner interner_;
  Route route_;                // RouteEvent scratch, clear-not-shrink
  std::vector<Route> routes_;  // RouteBatch scratch, clear-not-shrink
};

/// The workload router is the same router over more than one query.
using MultiShardRouter = ShardRouter;

}  // namespace exec
}  // namespace aseq

#endif  // ASEQ_EXEC_SHARD_ROUTER_H_
