#ifndef ASEQ_BASELINE_NAIVE_ENUMERATOR_H_
#define ASEQ_BASELINE_NAIVE_ENUMERATOR_H_

#include <vector>

#include "engine/engine.h"
#include "query/compiled_query.h"

namespace aseq {

/// \brief Brute-force ground-truth oracle.
///
/// Enumerates every sequence match of the query over a stream prefix by
/// exhaustive search — O(|E|^n) — and aggregates the matches directly. Used
/// by the property-based tests to validate every engine (A-Seq DPC/SEM/HPC,
/// the stack baseline, and the multi-query engines) on small randomized
/// streams. Implements the exact query semantics the engines target:
///
///  * sequence order is arrival order (strictly increasing seq numbers);
///  * a match is live at time `now` iff its START instance has not expired
///    (start.ts + window > now) — Lemma 3 semantics;
///  * a negated-type instance invalidates a match iff it qualifies for the
///    negated element, arrived strictly between the two adjacent positive
///    match events, and agrees with the match on every partition-key part
///    that constrains the negated element;
///  * all positive elements agree on every partition-key part;
///  * local predicates filter instances; join predicates filter matches.
///
/// The search is bounded by a match budget: once it has visited that many
/// complete candidate matches, Aggregate fails with ResourceExhausted
/// instead of running for hours.
class NaiveEnumerator {
 public:
  /// Budget of complete candidate matches per Aggregate call.
  static constexpr uint64_t kMaxMatches = uint64_t{1} << 26;

  explicit NaiveEnumerator(CompiledQuery query) : query_(std::move(query)) {}

  /// Aggregates over events[0..upto] (inclusive; events must carry assigned
  /// seq numbers) at time `now`. Grouped queries return one Output per group
  /// that has at least one live match; ungrouped queries return exactly one
  /// Output. Outputs are ordered by group for determinism.
  Result<std::vector<Output>> Aggregate(const std::vector<Event>& events,
                                        size_t upto, Timestamp now) const;

  /// Total number of live matches (convenience for tests).
  Result<uint64_t> CountMatches(const std::vector<Event>& events, size_t upto,
                                Timestamp now) const;

  const CompiledQuery& query() const { return query_; }

 private:
  CompiledQuery query_;
};

}  // namespace aseq

#endif  // ASEQ_BASELINE_NAIVE_ENUMERATOR_H_
