#ifndef ASEQ_STATE_WINDOW_CLOCK_H_
#define ASEQ_STATE_WINDOW_CLOCK_H_

#include <cstdint>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "ckpt/ckpt.h"
#include "common/event.h"
#include "common/status.h"
#include "container/key_interner.h"

namespace aseq {
namespace state {

/// \brief Lazy per-partition expiry schedule: the amortized-O(expired)
/// purge driver behind HpcEngine's O(1) COUNT/SUM/AVG triggers.
///
/// Each entry names a partition (by interned key, carried by value with its
/// pinned hash) and the earliest time something inside it expires.
/// Advancing the clock pops every due entry and hands it to a revisit
/// callback, which purges the partition and answers with its *next*
/// earliest expiration — or "never" (max()), dropping the entry. Stale
/// entries (the partition was purged further by a direct hit, or erased
/// entirely) resolve naturally: the revisit sees the real state and
/// reschedules or drops.
///
/// The heap is checkpointed verbatim in array order: the pop order of
/// equal deadlines depends on the internal layout, and revisit-driven
/// purge-then-erase order feeds the slab freelist — observable through
/// later slot assignment (see ckpt::HeapContainer).
class WindowClock {
 public:
  static constexpr Timestamp kNever = std::numeric_limits<Timestamp>::max();

  struct Entry {
    Timestamp exp = 0;
    uint64_t hash = 0;
    container::InternedKey key;
  };

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  /// Schedules a revisit of `key`'s partition at `exp` (kNever = no-op).
  void Schedule(Timestamp exp, uint64_t hash,
                const container::InternedKey& key) {
    if (exp == kNever) return;
    heap_.push(Entry{exp, hash, key});
  }

  /// Pops every entry due at `now`, invoking `revisit(entry)` for each.
  /// The callback purges the named partition and returns its next
  /// earliest expiration; kNever drops the entry, anything else
  /// reschedules it.
  template <typename RevisitFn>
  void AdvanceTo(Timestamp now, RevisitFn&& revisit) {
    while (!heap_.empty() && heap_.top().exp <= now) {
      Entry top = heap_.top();
      heap_.pop();
      const Timestamp next = revisit(top);
      if (next == kNever) continue;
      top.exp = next;
      heap_.push(std::move(top));
    }
  }

  void Clear() { heap_ = {}; }

  /// Heap round-trip, verbatim array order (see class comment).
  void Checkpoint(ckpt::Writer* writer) const;
  /// `interner_size` bounds the key ids a valid entry can carry.
  Status Restore(ckpt::Reader* reader, uint32_t interner_size);

 private:
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.exp > b.exp;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
};

}  // namespace state
}  // namespace aseq

#endif  // ASEQ_STATE_WINDOW_CLOCK_H_
