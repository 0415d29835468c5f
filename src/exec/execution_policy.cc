#include "exec/execution_policy.h"

#include <utility>

#include "exec/serial_executor.h"
#include "exec/sharded_executor.h"
#include "exec/shard_router.h"

namespace aseq {
namespace exec {

template <class Kind>
Result<std::unique_ptr<ExecutionPolicyT<Kind>>> MakePolicyT(
    std::span<const CompiledQuery> queries,
    const EngineFactoryT<typename Kind::Engine>& factory,
    const RunOptions& options, std::string* fallback_reason) {
  using Engine = typename Kind::Engine;
  using Policy = ExecutionPolicyT<Kind>;
  if (fallback_reason != nullptr) fallback_reason->clear();
  ASEQ_ASSIGN_OR_RETURN(std::unique_ptr<Engine> first, factory());
  const size_t shards = options.num_shards == 0 ? 1 : options.num_shards;
  if (shards == 1) {
    return std::unique_ptr<Policy>(
        new SerialExecutorT<Kind>(options, std::move(first)));
  }

  std::string reason = Kind::PlanSharding(queries).reason;
  if (reason.empty() && AsShardable(first.get()) == nullptr) {
    // The queries shard, but this engine configuration does not — a
    // baseline engine, or a wrapper (reordering, change detection) whose
    // buffering is inherently cross-key-sequential.
    reason = "engine '" + first->name() + "' does not support sharding";
  }
  if (!reason.empty()) {
    if (fallback_reason != nullptr) *fallback_reason = reason;
    return std::unique_ptr<Policy>(
        new SerialExecutorT<Kind>(options, std::move(first)));
  }

  std::vector<std::unique_ptr<Engine>> engines;
  engines.reserve(shards);
  engines.push_back(std::move(first));
  for (size_t i = 1; i < shards; ++i) {
    ASEQ_ASSIGN_OR_RETURN(std::unique_ptr<Engine> twin, factory());
    if (AsShardable(twin.get()) == nullptr) {
      return Status::InvalidArgument(
          "engine factory is not deterministic: shard 0 supports sharding "
          "but shard " +
          std::to_string(i) + " ('" + twin->name() + "') does not");
    }
    engines.push_back(std::move(twin));
  }
  bool any_window = false;
  for (const CompiledQuery& q : queries) any_window |= q.has_window();
  return std::unique_ptr<Policy>(new ShardedExecutorT<Kind>(
      options, std::move(engines), ShardRouter(queries, shards),
      /*send_markers=*/any_window, factory));
}

template Result<std::unique_ptr<ExecutionPolicy>> MakePolicyT<QueryKind>(
    std::span<const CompiledQuery>, const EngineFactory&, const RunOptions&,
    std::string*);
template Result<std::unique_ptr<MultiExecutionPolicy>>
MakePolicyT<WorkloadKind>(std::span<const CompiledQuery>,
                          const MultiEngineFactory&, const RunOptions&,
                          std::string*);

}  // namespace exec
}  // namespace aseq
