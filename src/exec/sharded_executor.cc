#include "exec/sharded_executor.h"

namespace aseq {
namespace exec {

// The executor body lives in exec/sharded_executor_impl.h as a template
// over the engine kind; these are the only two instantiations, kept here
// so every other translation unit links against them instead of
// re-instantiating ~1k lines of coordinator code.
template class ShardedExecutorT<QueryKind>;
template class ShardedExecutorT<WorkloadKind>;

}  // namespace exec
}  // namespace aseq
