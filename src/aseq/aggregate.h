#ifndef ASEQ_ASEQ_AGGREGATE_H_
#define ASEQ_ASEQ_AGGREGATE_H_

#include <cstdint>
#include <limits>

#include "aseq/exact_sum.h"
#include "common/value.h"
#include "query/aggregate_spec.h"

namespace aseq {

/// Largest match count the engines represent: COUNT outputs are int64, so
/// counts saturate here instead of ever wrapping (see CountAdd).
inline constexpr uint64_t kCountMax =
    static_cast<uint64_t>(std::numeric_limits<int64_t>::max());

/// Checked count addition: `*acc += v`, saturating at kCountMax. Returns
/// false when it saturated — the caller raises the sticky overflow flag.
inline bool CountAdd(uint64_t* acc, uint64_t v) {
  uint64_t r;
  if (__builtin_add_overflow(*acc, v, &r) || r > kCountMax) {
    *acc = kCountMax;
    return false;
  }
  *acc = r;
  return true;
}

/// Checked `*acc += a * b` for the multi-query engines that combine counts
/// multiplicatively (Chop-Connect), saturating at kCountMax. Returns false
/// when it saturated.
inline bool CountAddProduct(uint64_t* acc, uint64_t a, uint64_t b) {
  uint64_t p;
  if (__builtin_mul_overflow(a, b, &p)) {
    *acc = kCountMax;
    return false;
  }
  return CountAdd(acc, p);
}

/// Checked count retraction: `*acc -= v`, clamping at 0. It can only clamp
/// after an earlier saturation lost track of the true total.
inline bool CountSub(uint64_t* acc, uint64_t v) {
  if (__builtin_sub_overflow(*acc, v, acc)) {
    *acc = 0;
    return false;
  }
  return true;
}

/// True for the aggregates whose running totals can be retracted exactly
/// (COUNT, and SUM/AVG through ExactSum); MIN/MAX are not invertible.
inline bool Invertible(AggFunc func) {
  return func == AggFunc::kCount || func == AggFunc::kSum ||
         func == AggFunc::kAvg;
}

/// True for the aggregates that carry a sum.
inline bool HasSum(AggFunc func) {
  return func == AggFunc::kSum || func == AggFunc::kAvg;
}

/// Final output value of an invertible aggregate from its totals:
///   COUNT -> int64; SUM -> double (0.0 over the empty match set);
///   AVG -> double, or null over the empty match set.
/// `sum` may be null (no sum carried, or an absent group): it reads as 0.
inline Value FinalizeTotals(AggFunc func, uint64_t count,
                            const ExactSum* sum) {
  switch (func) {
    case AggFunc::kCount:
      return Value(static_cast<int64_t>(count));
    case AggFunc::kSum:
      return Value(sum != nullptr ? sum->Finalize() : 0.0);
    case AggFunc::kAvg:
      if (count == 0) return Value();
      return Value((sum != nullptr ? sum->Finalize() : 0.0) /
                   static_cast<double>(count));
    case AggFunc::kMin:
    case AggFunc::kMax:
      break;
  }
  return Value();
}

/// \brief A combinable partial aggregate over a set of sequence matches.
///
/// The A-Seq engines never materialize matches; each prefix counter carries
/// the pieces needed for the final aggregate (Sec. 5):
///   * `count` — number of matches (COUNT, and the divisor of AVG);
///   * `sum`   — exact sum of the carrier attribute over matches (SUM/AVG),
///               order-independent so merges in any order agree bit-for-bit;
///   * `ext`   — min/max of the carrier attribute over matches (MIN/MAX),
///               valid only when `has_ext`.
///
/// Accumulators collect a match set's aggregate (PrefixCounter::Tail, the
/// baselines; the A-Seq engines fold only MIN/MAX extrema into one, through
/// CounterSet::MergeExtInto) and finalize into an output Value.
struct AggAccum {
  uint64_t count = 0;
  ExactSum sum;
  bool has_ext = false;
  double ext = 0;

  /// Folds one extremum candidate into `ext` under MIN/MAX `func`.
  void MergeExt(double v, AggFunc func) {
    if (!has_ext) {
      has_ext = true;
      ext = v;
    } else if (func == AggFunc::kMin ? (v < ext) : (v > ext)) {
      ext = v;
    }
  }

  /// Final output value:
  ///   COUNT -> int64; SUM -> double (0.0 over the empty match set);
  ///   AVG/MIN/MAX -> double, or null over the empty match set.
  Value Finalize(AggFunc func) const {
    if (Invertible(func)) return FinalizeTotals(func, count, &sum);
    if (!has_ext) return Value();
    return Value(ext);
  }
};

}  // namespace aseq

#endif  // ASEQ_ASEQ_AGGREGATE_H_
