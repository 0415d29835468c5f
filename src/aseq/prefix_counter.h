#ifndef ASEQ_ASEQ_PREFIX_COUNTER_H_
#define ASEQ_ASEQ_PREFIX_COUNTER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "aseq/aggregate.h"
#include "common/status.h"
#include "query/aggregate_spec.h"

namespace aseq {

namespace ckpt {
class Writer;
class Reader;
}  // namespace ckpt

/// \brief The PreCntr structure (Sec. 3.1): one cell per prefix pattern.
///
/// For a pattern with L positive event types, cell m (1-based) holds the
/// aggregate state over all matches of the length-m prefix pattern
/// constructed so far. The count recurrence is Lemma 1:
///
///   count(p_m) += count(p_{m-1})   when an instance of E_m arrives,
///
/// with the virtual `count(p_0) = 1` (so a START arrival increments cell 1;
/// in per-start SEM counters the constructor applies that first increment).
///
/// For SUM/AVG/MIN/MAX (Sec. 5) the counter carries parallel per-prefix
/// fields for cells at/after the carrier position `carrier_pos1` (the
/// positive position whose attribute is aggregated):
///
///   wsum(p_c)  += count(p_{c-1}) * v      (carrier arrival with value v)
///   wsum(p_m)  += wsum(p_{m-1})           (m > c)
///   ext(p_c)    = min/max(ext(p_c), v)    if count(p_{c-1}) > 0
///   ext(p_m)    = min/max(ext(p_m), ext(p_{m-1}))
///
/// These are the exact generalizations of Lemma 1 to the weighted and
/// extremal cases (see DESIGN.md §4 for how this relates to the paper's
/// sketch). The negation Recounting Rule (Lemma 6) resets one cell — count,
/// wsum, and ext together.
///
/// Count cells use checked additions that saturate at kCountMax. The wsum
/// cells stay plain doubles: each cell's history is fixed by its own
/// partition's event subsequence, so it is identical in serial, sharded
/// and restored runs; only sums *across* cells need the exact accumulator.
class PrefixCounter {
 public:
  /// \param length      number of positive pattern elements L (>= 1)
  /// \param func        aggregation function
  /// \param carrier_pos1 1-based positive position whose attribute is
  ///        aggregated; 0 for COUNT.
  PrefixCounter(size_t length, AggFunc func, size_t carrier_pos1);

  /// Applies a positive arrival at 1-based position `pos`. `value` is the
  /// aggregated attribute value, used only when pos == carrier position.
  /// Returns false when the count cell saturated at kCountMax (it never
  /// wraps); the caller raises the sticky overflow flag.
  bool ApplyPositive(size_t pos, double value = 0);

  /// Recounting Rule: a qualifying negated instance arrived whose gap is
  /// `gap` positive elements from the start — reset the prefix of that
  /// length (1 <= gap < L).
  void ResetPrefix(size_t gap);

  /// Aggregate state of the full pattern (cell L).
  AggAccum Tail() const { return At(length_); }

  /// Aggregate state of the length-m prefix (1 <= m <= L).
  AggAccum At(size_t m) const;

  /// The length-m prefix's weighted sum (0 before the carrier position, or
  /// without a SUM/AVG carrier).
  double wsum_at(size_t m) const {
    return !wsum_.empty() && m >= carrier_ ? wsum_[m] : 0.0;
  }

  /// The length-m prefix's extremum, when one is defined (MIN/MAX only).
  bool has_ext_at(size_t m) const {
    return !ext_.empty() && m >= carrier_ && ext_valid_[m] != 0;
  }
  double ext_at(size_t m) const { return ext_[m]; }

  /// Count cell accessor (tests and the multi-query engines).
  uint64_t count_at(size_t m) const { return counts_[m]; }

  size_t length() const { return length_; }
  AggFunc func() const { return func_; }

  /// Serializes the cells (counts, wsum, ext/ext_valid as configured).
  void Checkpoint(ckpt::Writer* w) const;

  /// Restores the cells into a counter constructed with the same
  /// (length, func, carrier); fails on any shape mismatch.
  Status Restore(ckpt::Reader* r);

  /// Debug rendering: "[3 5 2 1]".
  std::string ToString() const;

 private:
  size_t length_;
  AggFunc func_;
  size_t carrier_;  // 1-based; 0 = none (COUNT)
  // Index 1..L used; index 0 is the virtual empty-prefix cell (count 1).
  std::vector<uint64_t> counts_;
  std::vector<double> wsum_;           // SUM/AVG only
  std::vector<double> ext_;            // MIN/MAX only
  std::vector<uint8_t> ext_valid_;     // MIN/MAX only
};

}  // namespace aseq

#endif  // ASEQ_ASEQ_PREFIX_COUNTER_H_
