#include "exec/shard_router.h"

#include <cassert>
#include <cstdlib>

#include "fault/fault.h"

namespace aseq {
namespace exec {

ShardPlan PlanSharding(const CompiledQuery& query) {
  ShardPlan plan;
  if (query.has_join_predicates()) {
    plan.reason =
        "query has join predicates: only match-constructing engines "
        "support them, and those do not shard";
    return plan;
  }
  if (!query.partitioned()) {
    plan.reason =
        "query has no GROUP BY or equivalence partitioning: all events "
        "share one counter set";
    return plan;
  }
  const PartitionSpec& spec = query.partition_spec();
  if (!spec.per_group_output) {
    plan.reason =
        "query partitions by equivalence only (no GROUP BY): triggers "
        "aggregate across every partition, which sharding would split";
    return plan;
  }
  assert(spec.group_part >= 0);
  const PartitionSpec::Part& group =
      spec.parts[static_cast<size_t>(spec.group_part)];
  for (const auto& [type, roles] : query.roles()) {
    (void)type;
    for (const Role& role : roles) {
      if (!role.negated) continue;
      if (role.elem_index >= group.covers_elem.size() ||
          !group.covers_elem[role.elem_index]) {
        plan.reason =
            "a negated element is not constrained by the GROUP BY "
            "attribute: negative instances would invalidate partitions "
            "across shards";
        return plan;
      }
    }
  }
  plan.shardable = true;
  return plan;
}

ShardPlan PlanMultiSharding(std::span<const CompiledQuery> queries) {
  ShardPlan plan;
  if (queries.empty()) {
    plan.reason = "workload is empty: nothing to shard";
    return plan;
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    ShardPlan single = PlanSharding(queries[i]);
    if (!single.shardable) {
      plan.reason = "query " + std::to_string(i) + ": " + single.reason;
      return plan;
    }
  }
  // One event lands on exactly one shard, so every query's key must derive
  // from the same event attribute; otherwise query A's hash placement
  // would scatter query B's partitions for one B-key across shards.
  const PartitionSpec& first = queries[0].partition_spec();
  const AttrId group_attr =
      first.parts[static_cast<size_t>(first.group_part)].attr;
  for (size_t i = 1; i < queries.size(); ++i) {
    const PartitionSpec& spec = queries[i].partition_spec();
    if (spec.parts[static_cast<size_t>(spec.group_part)].attr != group_attr) {
      plan.reason =
          "queries group by different attributes ('" +
          first.parts[static_cast<size_t>(first.group_part)].attr_name +
          "' vs '" +
          spec.parts[static_cast<size_t>(spec.group_part)].attr_name +
          "' in query " + std::to_string(i) +
          "): one event cannot land on every query's owner shard at once";
      return plan;
    }
  }
  plan.shardable = true;
  return plan;
}

ShardRouter::ShardRouter(std::span<const CompiledQuery> queries,
                         size_t num_shards)
    : num_shards_(num_shards) {
  assert(num_shards_ > 0);
  queries_.reserve(queries.size());
  for (const CompiledQuery& q : queries) {
    assert(q.partition_spec().per_group_output);
    queries_.push_back(
        PerQuery{q.num_positive(),
                 static_cast<size_t>(q.partition_spec().group_part),
                 q.has_window(), plan::AdmissionProgram(q)});
  }
}

void ShardRouter::BeginRoute(const Event& e, bool armed, Route* route) {
  route->trigger = false;
  route->has_key = false;
  route->key_id = 0;
  route->inject_overload = false;
  route->trigger_queries.clear();
  if (armed) {
    // Per *event*, not per batch: fault-spec offsets count routed events.
    if (auto fired =
            fault::Injector::Global().Hit(fault::Point::kRouterRoute)) {
      if (fired->kind == fault::Kind::kCrash) {
        // Coordinator death: the process is gone; recovery is the
        // restore-from-snapshot path, exercised by the CI fault smoke.
        std::_Exit(fault::kCrashExitCode);
      }
      if (fired->kind == fault::Kind::kOverload) route->inject_overload = true;
    }
  }
  route->shard = static_cast<size_t>(e.seq() % num_shards_);
}

void ShardRouter::AddRecords(size_t qi,
                             std::span<const plan::AdmissionRecord> records,
                             Route* route) {
  const PerQuery& pq = queries_[qi];
  for (const plan::AdmissionRecord& rec : records) {
    if (!route->has_key) {
      // Every role of every query extracts the same GROUP BY value (it
      // comes from the event's own attribute; sharding requires the group
      // part to cover every element and one shared attribute), so the
      // event's first staged record fixes the owner shard. Interning gives
      // a dense id per distinct key, so `id % num_shards` spreads keys
      // round-robin in first-seen order — immune to hash clustering — at
      // the cost of making the table part of the checkpointed router
      // state (see Checkpoint).
      route->has_key = true;
      route->key_id = interner_.InternHashed(rec.part_hashes[pq.group_part],
                                             *rec.part_vals[pq.group_part]);
      route->shard = route->key_id % num_shards_;
    }
    const Role& role = rec.role->role;
    if (!role.negated && role.position == pq.length) {
      route->trigger = true;
      if (pq.windowed) route->trigger_queries.push_back(qi);
      break;  // key already fixed (every staged record extracts it)
    }
  }
}

const ShardRouter::Route& ShardRouter::RouteEvent(const Event& e) {
  BeginRoute(e, fault::Injector::Global().armed(), &route_);
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    // Exactly the engines' staging condition: a record exists iff the
    // local predicates pass and the partition key extracts. No interner is
    // passed — the router speaks its *own* id space (AddRecords).
    admitter_.AdmitBatch(queries_[qi].program, std::span<const Event>(&e, 1),
                         /*interner=*/nullptr, /*stats=*/nullptr);
    AddRecords(qi, admitter_.RecordsFor(0), &route_);
  }
  return route_;
}

std::span<const ShardRouter::Route> ShardRouter::RouteBatch(
    std::span<const Event> batch) {
  // Reset the route scratch in place (trigger vectors keep their capacity).
  routes_.resize(batch.size());
  const bool armed = fault::Injector::Global().armed();
  for (size_t i = 0; i < batch.size(); ++i) {
    BeginRoute(batch[i], armed, &routes_[i]);
  }
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    const plan::AdmissionProgram& program = queries_[qi].program;
    // Whole-query early-out: a batch with no event of any type the query
    // plays is invisible to it — skip its admission pass entirely.
    if (prefilter_.Scan(program, batch) == 0) continue;
    admitter_.AdmitBatch(program, batch, /*interner=*/nullptr,
                         /*stats=*/nullptr, &prefilter_);
    for (size_t i = 0; i < batch.size(); ++i) {
      AddRecords(qi, admitter_.RecordsFor(i), &routes_[i]);
    }
  }
  return routes_;
}

void ShardRouter::Checkpoint(ckpt::Writer* writer) const {
  writer->WriteU64(interner_.size());
  for (const Value& v : interner_.values()) ckpt::WriteValue(writer, v);
}

Status ShardRouter::Restore(ckpt::Reader* reader) {
  uint64_t n = 0;
  ASEQ_RETURN_NOT_OK(reader->ReadCount(&n, 1, "router interned values"));
  std::vector<Value> values;
  values.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Value v;
    ASEQ_RETURN_NOT_OK(ckpt::ReadValue(reader, &v));
    values.push_back(std::move(v));
  }
  if (!interner_.RestoreFromValues(std::move(values))) {
    return Status::ParseError(
        "snapshot corrupt: duplicate value in router interner table");
  }
  return Status::OK();
}

}  // namespace exec
}  // namespace aseq
