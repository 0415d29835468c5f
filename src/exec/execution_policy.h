#ifndef ASEQ_EXEC_EXECUTION_POLICY_H_
#define ASEQ_EXEC_EXECUTION_POLICY_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "engine/runtime.h"
#include "exec/shard_router.h"
#include "query/compiled_query.h"
#include "stream/stream_source.h"

namespace aseq {
namespace exec {

// ---- Engine kinds. ----
//
// The execution layer is written once, against an engine-kind traits
// struct: a single query (QueryKind) and a workload of queries sharing
// one stream (WorkloadKind) differ only in the bindings below — the
// engine and output types plus the few calls that genuinely differ:
//   - OutputSeq            the output's global event seq (merge key)
//   - PlanSharding         whether the query/workload shards, and why not
//   - kMarkerNamesQueries  what a purge marker carries
// Both engine hierarchies shard through the one ShardableEngine interface
// (AsShardable probes it), and snapshots need no binding:
// ckpt::SaveEngineSnapshot and friends are generic over the engine type.

/// One query: QueryEngine twins, scalar Output.
struct QueryKind {
  using Engine = QueryEngine;
  using OutputT = Output;
  using RunResultT = RunResult;

  /// The purge covers the whole engine, so markers name no queries.
  static constexpr bool kMarkerNamesQueries = false;

  static SeqNum OutputSeq(const OutputT& o) { return o.seq; }
  /// `queries` holds exactly the one query.
  static ShardPlan PlanSharding(std::span<const CompiledQuery> queries) {
    return exec::PlanSharding(queries.front());
  }
};

/// A workload: MultiQueryEngine twins over every query, query-tagged
/// MultiOutput.
struct WorkloadKind {
  using Engine = MultiQueryEngine;
  using OutputT = MultiOutput;
  using RunResultT = MultiRunResult;

  /// Markers carry the windowed queries the trigger completed, so engines
  /// with per-query clocks purge exactly the serial set.
  static constexpr bool kMarkerNamesQueries = true;

  static SeqNum OutputSeq(const OutputT& o) { return o.output.seq; }
  static ShardPlan PlanSharding(std::span<const CompiledQuery> queries) {
    return PlanMultiSharding(queries);
  }
};

/// Builds one engine instance for the query or workload being executed.
/// The sharded policy calls this once per shard — every call must return
/// an identically configured, freshly constructed engine.
template <class EngineT>
using EngineFactoryT = std::function<Result<std::unique_ptr<EngineT>>()>;
using EngineFactory = EngineFactoryT<QueryEngine>;
using MultiEngineFactory = EngineFactoryT<MultiQueryEngine>;

/// \brief How a run drives its engine(s): serial on the calling thread, or
/// hash-partitioned across per-shard engine twins on worker threads.
///
/// Whatever the policy, the contract is exact serial equivalence: outputs
/// in global sequence order (ties broken by each event's own emission
/// order) and EngineStats byte-identical to the serial run (modulo the
/// batch counters, exactly as OnBatch vs OnEvent).
template <class Kind>
class ExecutionPolicyT {
 public:
  using Engine = typename Kind::Engine;
  using RunResultT = typename Kind::RunResultT;

  virtual ~ExecutionPolicyT() = default;

  /// Policy + engine description, e.g. "A-Seq(HPC)" (serial) or
  /// "Sharded[Hybrid]" (sharded).
  virtual std::string name() const = 0;
  virtual size_t num_shards() const = 0;

  /// Runs the whole source / the pre-built events through the policy.
  virtual RunResultT Run(StreamSource* source) = 0;
  virtual RunResultT RunEvents(const std::vector<Event>& events) = 0;

  /// The logical engine's stats: the engine's own for serial, the exact
  /// merged view for sharded.
  virtual const EngineStats& stats() const = 0;

  /// Per-shard stats of the last run (size num_shards; refreshed at the
  /// end of each run).
  virtual std::span<const EngineStats> shard_stats() const = 0;

  /// Per-shard busy seconds of the last run — wall time spent executing
  /// events inside each shard. max(shard_busy_seconds) is the critical
  /// path, the hardware-independent scaling metric the shard-sweep benches
  /// report alongside wall clock.
  virtual std::span<const double> shard_busy_seconds() const = 0;

  /// Restores engine state from a snapshot (an engine snapshot for
  /// serial, the multi-shard container for sharded) and aims subsequent
  /// runs at the recorded stream offset: `*stream_offset` is returned and
  /// the policy's start_offset is updated, so the caller feeds only the
  /// trace tail.
  virtual Status Restore(const std::string& path, uint64_t* stream_offset) = 0;

  /// The engine driven on the calling thread, or null for sharded
  /// policies (per-shard engines are internal).
  virtual Engine* serial_engine() { return nullptr; }
};

using ExecutionPolicy = ExecutionPolicyT<QueryKind>;
using MultiExecutionPolicy = ExecutionPolicyT<WorkloadKind>;

/// Builds the policy for `options.num_shards`: the sharded executor when
/// more than one shard is requested, Kind::PlanSharding accepts `queries`
/// and the engine opts in (AsShardable) — else the serial executor.
/// When sharding was requested but refused, `*fallback_reason` (optional)
/// receives why; the answer is then still exact, just serial — a sharded
/// policy is never allowed to be wrong. `queries` must outlive the policy
/// (the router borrows their predicate storage). Instantiated for
/// QueryKind and WorkloadKind.
template <class Kind>
Result<std::unique_ptr<ExecutionPolicyT<Kind>>> MakePolicyT(
    std::span<const CompiledQuery> queries,
    const EngineFactoryT<typename Kind::Engine>& factory,
    const RunOptions& options, std::string* fallback_reason);

/// The one-query policy.
inline Result<std::unique_ptr<ExecutionPolicy>> MakePolicy(
    const CompiledQuery& query, const EngineFactory& factory,
    const RunOptions& options, std::string* fallback_reason = nullptr) {
  return MakePolicyT<QueryKind>({&query, 1}, factory, options,
                                fallback_reason);
}

/// The workload policy: shards only when every query shards and all group
/// by one shared attribute (PlanMultiSharding).
inline Result<std::unique_ptr<MultiExecutionPolicy>> MakeMultiPolicy(
    std::span<const CompiledQuery> queries, const MultiEngineFactory& factory,
    const RunOptions& options, std::string* fallback_reason = nullptr) {
  return MakePolicyT<WorkloadKind>(queries, factory, options,
                                   fallback_reason);
}

}  // namespace exec
}  // namespace aseq

#endif  // ASEQ_EXEC_EXECUTION_POLICY_H_
