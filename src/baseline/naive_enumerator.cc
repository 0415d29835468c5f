#include "baseline/naive_enumerator.h"

#include <map>

#include "aseq/aggregate.h"
#include "plan/admission.h"

namespace aseq {

namespace {

struct MatchOperand {
  const CompiledQuery* query;
  const std::vector<const Event*>* match;
  const std::vector<int>* elem_to_pos;

  const Value& Get(const Operand& op) const {
    static const Value kNull;
    if (!op.is_attr_ref()) return op.literal;
    int pos = (*elem_to_pos)[op.elem_index];
    if (pos < 0) return kNull;
    return (*match)[pos]->GetAttr(op.attr);
  }
};

}  // namespace

Result<std::vector<Output>> NaiveEnumerator::Aggregate(
    const std::vector<Event>& events, size_t upto, Timestamp now) const {
  const size_t L = query_.num_positive();
  const auto& elems = query_.pattern().elements();

  // Positive element index per position; negation roles.
  std::vector<size_t> pos_elem;
  std::vector<Role> neg_roles;
  for (size_t i = 0; i < elems.size(); ++i) {
    if (elems[i].negated) {
      const std::vector<Role>* roles = query_.FindRoles(elems[i].type);
      for (const Role& r : *roles) {
        if (r.negated && r.elem_index == i) neg_roles.push_back(r);
      }
    } else {
      pos_elem.push_back(i);
    }
  }
  std::vector<int> elem_to_pos(elems.size(), -1);
  for (size_t p = 0; p < pos_elem.size(); ++p) {
    elem_to_pos[pos_elem[p]] = static_cast<int>(p);
  }

  // Admission runs through the compiled program — the oracle exercises the
  // same lowering the engines execute, and the differential fuzz suite pins
  // the program against the interpreted QualifiesFor/PartitionKeyFor pair.
  const plan::AdmissionProgram program(query_);
  plan::AdmissionRecord rec;

  // Candidate instances per position.
  std::vector<std::vector<const Event*>> candidates(L);
  for (size_t i = 0; i <= upto && i < events.size(); ++i) {
    const Event& e = events[i];
    for (size_t p = 0; p < L; ++p) {
      if (e.type() != elems[pos_elem[p]].type) continue;
      const plan::RoleProgram* rp = program.FindRole(e.type(), pos_elem[p]);
      if (rp == nullptr || !program.AdmitRole(e, *rp, &rec, nullptr)) {
        continue;
      }
      candidates[p].push_back(&e);
    }
  }

  const PartitionSpec& spec = query_.partition_spec();
  std::map<Value, AggAccum, ValueTotalLess> groups;
  std::vector<const Event*> match(L, nullptr);

  // Checks a fully chosen match; accumulates if valid.
  auto check_and_accumulate = [&]() {
    // Window: the match is live iff its START has not expired.
    if (query_.has_window() &&
        match[0]->ts() + query_.window_ms() <= now) {
      return;
    }
    // Partition agreement across all positive elements.
    for (const PartitionSpec::Part& part : spec.parts) {
      const Value& v0 = match[0]->GetAttr(part.attr);
      for (size_t p = 1; p < L; ++p) {
        if (!match[p]->GetAttr(part.attr).Equals(v0)) return;
      }
    }
    // Negation post-check.
    for (const Role& role : neg_roles) {
      const SeqNum lo = match[role.position - 1]->seq();
      const SeqNum hi = match[role.position]->seq();
      for (size_t i = 0; i <= upto && i < events.size(); ++i) {
        const Event& x = events[i];
        if (x.seq() <= lo) continue;
        if (x.seq() >= hi) break;
        if (x.type() != elems[role.elem_index].type) continue;
        const plan::RoleProgram* nrp =
            program.FindRole(x.type(), role.elem_index);
        if (nrp == nullptr || !program.AdmitRole(x, *nrp, &rec, nullptr)) {
          continue;
        }
        PartitionKey key;
        std::vector<bool> covered;
        program.MaterializeKey(rec, &key, &covered);
        bool applies = true;
        for (size_t p = 0; p < spec.parts.size(); ++p) {
          if (covered[p] &&
              !key.parts[p].Equals(match[0]->GetAttr(spec.parts[p].attr))) {
            applies = false;
            break;
          }
        }
        if (applies) return;  // invalidated
      }
    }
    // Join predicates.
    MatchOperand ctx{&query_, &match, &elem_to_pos};
    for (const Comparison& cmp : query_.join_predicates()) {
      if (!EvalCmp(cmp.op, ctx.Get(cmp.lhs), ctx.Get(cmp.rhs))) return;
    }
    // Accumulate.
    Value group;  // null when ungrouped
    if (spec.per_group_output) {
      group = match[0]->GetAttr(spec.parts[spec.group_part].attr);
    }
    AggAccum& acc = groups[group];
    CountAdd(&acc.count, 1);
    if (query_.agg_positive_pos() >= 0) {
      double v = match[query_.agg_positive_pos()]
                     ->GetAttr(query_.agg().attr)
                     .ToDouble();
      acc.sum.Add(v);
      acc.MergeExt(v, query_.agg().func);
    }
  };

  // Recursive enumeration with strictly increasing seq numbers.
  uint64_t visited = 0;
  auto recurse = [&](auto&& self, size_t p, SeqNum min_seq) -> void {
    if (p == L) {
      ++visited;
      check_and_accumulate();
      return;
    }
    for (const Event* e : candidates[p]) {
      if (visited > kMaxMatches) return;
      if (e->seq() < min_seq) continue;
      match[p] = e;
      self(self, p + 1, e->seq() + 1);
    }
  };
  recurse(recurse, 0, 0);
  if (visited > kMaxMatches) {
    return Status::ResourceExhausted(
        "naive enumerator: match budget of " + std::to_string(kMaxMatches) +
        " candidate matches exhausted");
  }

  std::vector<Output> outputs;
  if (!spec.per_group_output) {
    Output output;
    output.ts = now;
    output.value = groups.count(Value())
                       ? groups[Value()].Finalize(query_.agg().func)
                       : AggAccum{}.Finalize(query_.agg().func);
    outputs.push_back(std::move(output));
    return outputs;
  }
  for (const auto& [group, acc] : groups) {
    Output output;
    output.ts = now;
    output.group = group;
    output.value = acc.Finalize(query_.agg().func);
    outputs.push_back(std::move(output));
  }
  return outputs;
}

Result<uint64_t> NaiveEnumerator::CountMatches(
    const std::vector<Event>& events, size_t upto, Timestamp now) const {
  auto outputs = Aggregate(events, upto, now);
  if (!outputs.ok()) return outputs.status();
  uint64_t total = 0;
  for (const Output& output : *outputs) {
    if (query_.agg().func == AggFunc::kCount &&
        output.value.type() == ValueType::kInt64) {
      total += static_cast<uint64_t>(output.value.AsInt64());
    }
  }
  return total;
}

}  // namespace aseq
