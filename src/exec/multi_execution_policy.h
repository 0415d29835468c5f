#ifndef ASEQ_EXEC_MULTI_EXECUTION_POLICY_H_
#define ASEQ_EXEC_MULTI_EXECUTION_POLICY_H_

// Forwarding header: the workload policy (MultiExecutionPolicy,
// MultiEngineFactory, MakeMultiPolicy) is the WorkloadKind binding of the
// one execution policy in exec/execution_policy.h.
#include "exec/execution_policy.h"

#endif  // ASEQ_EXEC_MULTI_EXECUTION_POLICY_H_
