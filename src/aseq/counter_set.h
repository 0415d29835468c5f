#ifndef ASEQ_ASEQ_COUNTER_SET_H_
#define ASEQ_ASEQ_COUNTER_SET_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <optional>

#include "aseq/prefix_counter.h"
#include "common/event.h"
#include "common/status.h"
#include "metrics/metrics.h"

namespace aseq {

namespace ckpt {
class Writer;
class Reader;
}  // namespace ckpt

/// \brief The owner's running full-match totals.
///
/// A CounterSet keeps no total of its own: every change to one of its tail
/// (full-pattern) cells it applies to the sink as it happens — the match
/// count, and for SUM/AVG the exact sum of the tail wsums — so the owner
/// (HpcEngine's per-group or global totals) reads its answer in O(1) and
/// never snapshots or diffs an accumulator.
/// Null fields are not tracked (an empty sink for MIN/MAX).
struct TotalSink {
  uint64_t* count = nullptr;
  ExactSum* sum = nullptr;  // SUM/AVG only
};

/// \brief The live prefix-counter state of one (sub)stream.
///
/// Two modes, matching Sec. 3.1 vs Sec. 3.2:
///
///  * **Unbounded (DPC)** — `window_ms == 0`: a single PreCntr; START
///    arrivals increment cell 1 (Fig. 3). Nothing ever expires.
///  * **Windowed (SEM)** — `window_ms > 0`: one PreCntr per live START
///    instance, marked with its expiration timestamp
///    `exp = arrival + window` (Fig. 5). Cell 1 of a per-start counter is
///    its own start (count 1) and UPD/negation arrivals touch every live
///    counter. Expired counters are purged from the front (starts expire in
///    arrival order), pre-isolating each start's influence so no per-match
///    bookkeeping is ever needed (Lemma 3/4).
///
/// Either way the tail (full-pattern) cells only change on a tail-position
/// arrival (Lemma 1: cell L grows by cell L-1, which is the start itself
/// when L == 1) and when a counter is purged; ResetPrefix never touches
/// them (negation may not trail the pattern). Those are exactly the calls
/// that take a TotalSink.
///
/// Object accounting: one live object per PreCntr, as the paper measures
/// memory (Sec. 6.1). Work accounting: one unit per counter-cell update.
/// A count that saturates at kCountMax raises `EngineStats::overflow`.
class CounterSet {
 public:
  /// \param stats optional sink for work/object accounting (may be null).
  CounterSet(size_t length, AggFunc func, size_t carrier_pos1,
             Timestamp window_ms, EngineStats* stats);
  ~CounterSet();

  CounterSet(CounterSet&&) noexcept;
  CounterSet& operator=(CounterSet&&) = delete;
  CounterSet(const CounterSet&) = delete;
  CounterSet& operator=(const CounterSet&) = delete;

  /// Purges counters whose start has expired at `now` (exp <= now),
  /// retracting their tails from `sink`.
  void Purge(Timestamp now, TotalSink sink = {});

  /// START arrival: creates a per-start counter (SEM) or increments cell 1
  /// (DPC). `value` is the carrier attribute value when the carrier is
  /// position 1.
  void OnStart(const Event& e, double value = 0, TotalSink sink = {});

  /// UPD/TRIG arrival at 1-based position `pos` >= 2: updates every live
  /// counter.
  void ApplyUpdate(size_t pos, double value = 0, TotalSink sink = {});

  /// Qualifying negated arrival: Recounting Rule on every live counter.
  void ResetPrefix(size_t gap);

  /// Folds every live tail's extremum into `acc` (MIN/MAX; a no-op for the
  /// invertible aggregates, whose totals live in the owner's sink). Call
  /// after Purge(now).
  void MergeExtInto(AggAccum* acc) const;

  /// Adds every live tail wsum to `sum` (SUM/AVG): the owner's restore
  /// rebuild of its exact sums.
  void AddTailSums(ExactSum* sum) const;

  /// Number of live per-start counters (1 in unbounded mode once any START
  /// arrived).
  size_t num_counters() const;

  bool windowed() const { return window_ms_ > 0; }
  Timestamp window_ms() const { return window_ms_; }

  /// Earliest expiration among live counters, or Timestamp max when nothing
  /// can expire (unbounded mode, or no live counters). Purge(now) is a
  /// no-op for any `now < next_expiry()` — HpcEngine's window clock
  /// schedules its partition revisits by it.
  Timestamp next_expiry() const {
    if (window_ms_ <= 0 || entries_.empty()) {
      return std::numeric_limits<Timestamp>::max();
    }
    return entries_.front().exp;
  }

  /// Serializes the live counters (per-start entries or the single DPC
  /// counter).
  void Checkpoint(ckpt::Writer* w) const;

  /// Restores into a freshly constructed set with the same shape. Fills the
  /// structures directly *without* object accounting — the owning engine
  /// restores its EngineStats wholesale afterwards, which already includes
  /// these objects (and the destructor's removal stays balanced).
  Status Restore(ckpt::Reader* r);

 private:
  struct Entry {
    Timestamp exp;
    PrefixCounter counter;
  };

  /// Applies a positive arrival at `pos` to `counter`, folding a tail
  /// change into `sink`.
  void Apply(PrefixCounter& counter, size_t pos, double value,
             TotalSink sink);

  /// Retracts `counter`'s tail from `sink`.
  void Retract(const PrefixCounter& counter, TotalSink sink);

  /// Restore() helper for the windowed per-start entries.
  Status RestoreEntries(ckpt::Reader* r);

  void NoteOverflow() {
    if (stats_ != nullptr) stats_->overflow = true;
  }

  size_t length_;
  AggFunc func_;
  size_t carrier_;
  Timestamp window_ms_;
  EngineStats* stats_;

  // Windowed mode: per-start counters in arrival (== expiry) order.
  std::deque<Entry> entries_;
  // Unbounded mode: the single global counter.
  std::optional<PrefixCounter> single_;
};

}  // namespace aseq

#endif  // ASEQ_ASEQ_COUNTER_SET_H_
