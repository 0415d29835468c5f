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

ShardRouter::ShardRouter(const CompiledQuery& query, size_t num_shards)
    : query_(&query),
      num_shards_(num_shards),
      length_(query.num_positive()),
      group_part_(static_cast<size_t>(query.partition_spec().group_part)),
      program_(query) {
  assert(num_shards_ > 0);
  assert(query.partition_spec().per_group_output);
}

ShardRouter::Route ShardRouter::RouteEvent(const Event& e) {
  Route route;
  if (fault::Injector::Global().armed()) {
    if (auto fired = fault::Injector::Global().Hit(fault::Point::kRouterRoute)) {
      if (fired->kind == fault::Kind::kCrash) {
        // Coordinator death: the process is gone; recovery is the
        // restore-from-snapshot path, exercised by the CI fault smoke.
        std::_Exit(fault::kCrashExitCode);
      }
      if (fired->kind == fault::Kind::kOverload) route.inject_overload = true;
    }
  }
  route.shard = static_cast<size_t>(e.seq() % num_shards_);
  // Exactly HpcEngine's staging condition: a record exists iff the local
  // predicates pass and the partition key extracts. No interner is passed —
  // the router speaks its *own* id space, interned below.
  admitter_.AdmitBatch(program_, std::span<const Event>(&e, 1),
                       /*interner=*/nullptr, /*stats=*/nullptr);
  bool has_key = false;
  for (const plan::AdmissionRecord& rec : admitter_.RecordsFor(0)) {
    if (!has_key) {
      has_key = true;
      route.has_key = true;
      // Every role extracts the same GROUP BY part value (it comes from
      // the event's own attribute; sharding requires the group part to
      // cover every element), so the first staged record fixes the owner
      // shard. Interning gives a dense id per distinct key, so
      // `id % num_shards` spreads keys round-robin in first-seen order —
      // immune to hash clustering — at the cost of making the table part
      // of the checkpointed router state (see Checkpoint).
      route.key_id = interner_.InternHashed(rec.part_hashes[group_part_],
                                            *rec.part_vals[group_part_]);
      route.shard = route.key_id % num_shards_;
    }
    const Role& role = rec.role->role;
    if (!role.negated && role.position == length_) {
      route.trigger = true;
      break;  // shard already fixed; nothing left to learn
    }
  }
  return route;
}

std::span<const ShardRouter::Route> ShardRouter::RouteBatch(
    std::span<const Event> batch) {
  routes_.assign(batch.size(), Route{});
  // One columnar relevance pass + one admission pass for the whole batch
  // (the prefilter skips the role-table walk for events the query cannot
  // see), instead of a BatchAdmitter call per event.
  prefilter_.Scan(program_, batch);
  admitter_.AdmitBatch(program_, batch, /*interner=*/nullptr,
                       /*stats=*/nullptr, &prefilter_);
  const bool armed = fault::Injector::Global().armed();
  for (size_t i = 0; i < batch.size(); ++i) {
    Route& route = routes_[i];
    if (armed) {
      // Per *event*, not per batch: fault-spec offsets count routed events.
      if (auto fired =
              fault::Injector::Global().Hit(fault::Point::kRouterRoute)) {
        if (fired->kind == fault::Kind::kCrash) {
          std::_Exit(fault::kCrashExitCode);
        }
        if (fired->kind == fault::Kind::kOverload) route.inject_overload = true;
      }
    }
    route.shard = static_cast<size_t>(batch[i].seq() % num_shards_);
    for (const plan::AdmissionRecord& rec : admitter_.RecordsFor(i)) {
      if (!route.has_key) {
        route.has_key = true;
        // Interning runs in event order across the batch — identical id
        // assignment to the per-event path (see RouteEvent).
        route.key_id = interner_.InternHashed(rec.part_hashes[group_part_],
                                              *rec.part_vals[group_part_]);
        route.shard = route.key_id % num_shards_;
      }
      const Role& role = rec.role->role;
      if (!role.negated && role.position == length_) {
        route.trigger = true;
        break;
      }
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

MultiShardPlan PlanMultiSharding(std::span<const CompiledQuery> queries) {
  MultiShardPlan plan;
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

MultiShardRouter::MultiShardRouter(std::span<const CompiledQuery> queries,
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

const MultiShardRouter::Route& MultiShardRouter::RouteEvent(const Event& e) {
  Route& route = route_;
  route.has_key = false;
  route.key_id = 0;
  route.inject_overload = false;
  route.trigger_queries.clear();
  if (fault::Injector::Global().armed()) {
    if (auto fired = fault::Injector::Global().Hit(fault::Point::kRouterRoute)) {
      if (fired->kind == fault::Kind::kCrash) {
        std::_Exit(fault::kCrashExitCode);
      }
      if (fired->kind == fault::Kind::kOverload) route.inject_overload = true;
    }
  }
  route.shard = static_cast<size_t>(e.seq() % num_shards_);
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    PerQuery& pq = queries_[qi];
    admitter_.AdmitBatch(pq.program, std::span<const Event>(&e, 1),
                         /*interner=*/nullptr, /*stats=*/nullptr);
    bool triggered = false;
    for (const plan::AdmissionRecord& rec : admitter_.RecordsFor(0)) {
      if (!route.has_key) {
        // Every query keys on the same attribute (PlanMultiSharding), so
        // the first staged record of the event — whichever query it came
        // from — fixes the one owner shard, and the part hash is a pure
        // function of the value (ValueHash), identical across programs.
        route.has_key = true;
        route.key_id = interner_.InternHashed(rec.part_hashes[pq.group_part],
                                              *rec.part_vals[pq.group_part]);
        route.shard = route.key_id % num_shards_;
      }
      const Role& role = rec.role->role;
      if (!role.negated && role.position == pq.length) {
        triggered = true;
        break;  // key already fixed (every staged record extracts it)
      }
    }
    if (triggered && pq.windowed) route.trigger_queries.push_back(qi);
  }
  return route_;
}

std::span<const MultiShardRouter::Route> MultiShardRouter::RouteBatch(
    std::span<const Event> batch) {
  // Reset the route scratch in place (trigger vectors keep their capacity).
  routes_.resize(batch.size());
  const bool armed = fault::Injector::Global().armed();
  for (size_t i = 0; i < batch.size(); ++i) {
    Route& route = routes_[i];
    route.has_key = false;
    route.key_id = 0;
    route.inject_overload = false;
    route.trigger_queries.clear();
    if (armed) {
      // Per *event*, in seq order, before any admission — fault-spec
      // offsets count routed events exactly as the per-event path did.
      if (auto fired =
              fault::Injector::Global().Hit(fault::Point::kRouterRoute)) {
        if (fired->kind == fault::Kind::kCrash) {
          std::_Exit(fault::kCrashExitCode);
        }
        if (fired->kind == fault::Kind::kOverload) route.inject_overload = true;
      }
    }
    route.shard = static_cast<size_t>(batch[i].seq() % num_shards_);
  }
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    PerQuery& pq = queries_[qi];
    // Whole-query early-out: a batch with no event of any type the query
    // plays is invisible to it — skip its admission pass entirely.
    if (prefilter_.Scan(pq.program, batch) == 0) continue;
    admitter_.AdmitBatch(pq.program, batch, /*interner=*/nullptr,
                         /*stats=*/nullptr, &prefilter_);
    for (size_t i = 0; i < batch.size(); ++i) {
      Route& route = routes_[i];
      bool triggered = false;
      for (const plan::AdmissionRecord& rec : admitter_.RecordsFor(i)) {
        if (!route.has_key) {
          // Every query keys on the same attribute (PlanMultiSharding), so
          // whichever query stages the event's first record fixes the one
          // owner shard. Batched interning is query-major — a different
          // deterministic first-seen order than RouteEvent's event-major
          // one (see the header comment), equally valid for placement.
          route.has_key = true;
          route.key_id = interner_.InternHashed(rec.part_hashes[pq.group_part],
                                                *rec.part_vals[pq.group_part]);
          route.shard = route.key_id % num_shards_;
        }
        const Role& role = rec.role->role;
        if (!role.negated && role.position == pq.length) {
          triggered = true;
          break;  // key already fixed (every staged record extracts it)
        }
      }
      if (triggered && pq.windowed) route.trigger_queries.push_back(qi);
    }
  }
  return routes_;
}

void MultiShardRouter::Checkpoint(ckpt::Writer* writer) const {
  writer->WriteU64(interner_.size());
  for (const Value& v : interner_.values()) ckpt::WriteValue(writer, v);
}

Status MultiShardRouter::Restore(ckpt::Reader* reader) {
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
