#ifndef ASEQ_EXEC_SHARDED_EXECUTOR_H_
#define ASEQ_EXEC_SHARDED_EXECUTOR_H_

#include "exec/execution_policy.h"
#include "exec/shard_router.h"
#include "exec/sharded_executor_impl.h"

namespace aseq {
namespace exec {

// The partition-parallel policy for one query (docs/internals.md §11) and
// for a workload sharing a GROUP BY attribute (§15): one executor, bound
// to an engine kind. These are its only two instantiations, compiled once
// in sharded_executor.cc.
extern template class ShardedExecutorT<QueryKind>;
extern template class ShardedExecutorT<WorkloadKind>;

}  // namespace exec
}  // namespace aseq

#endif  // ASEQ_EXEC_SHARDED_EXECUTOR_H_
