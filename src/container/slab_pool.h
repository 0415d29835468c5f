#ifndef ASEQ_CONTAINER_SLAB_POOL_H_
#define ASEQ_CONTAINER_SLAB_POOL_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace aseq {
namespace container {

/// \brief Slot-indexed object pool backed by fixed-size slabs.
///
/// Objects live at stable addresses in chunked blocks (no reallocation
/// ever moves an element) and are addressed by a dense uint32_t slot
/// index. Freed slots go onto a LIFO freelist and are reused before the
/// high-water mark `end()` grows, so a steady-state churn workload stays
/// compact and slot-order iteration stays cheap.
///
/// The slab is the engine's *iteration authority*: everything observable
/// through iteration order (per-group Poll output order, erase order in
/// sweeps) follows ascending slot order, and slot assignment is a pure
/// function of the operation history (freelist LIFO, else append).
/// Checkpoints therefore serialize the exact geometry — each entry's slot,
/// the freelist in stack order, and the high-water mark — and a restore
/// reproduces it with ResetGeometry + EmplaceAt + RestoreFreelist, making
/// post-restore behavior byte-identical to the uninterrupted run. (The hash
/// index over the slab has no such obligation and is rebuilt fresh.)
///
/// The high-water mark never shrinks: a sweep is O(end), not O(live).
/// Erase-heavy phases leave dead slots that later inserts reclaim
/// LIFO-first; ScanTotal-style sweeps already erase-and-reuse, keeping
/// end near the live peak.
template <typename T, size_t kBlockSlots = 64>
class SlabPool {
 public:
  SlabPool() = default;
  ~SlabPool() { Clear(); }

  SlabPool(SlabPool&&) noexcept = default;
  SlabPool& operator=(SlabPool&&) noexcept = default;
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  /// Live objects.
  size_t size() const { return size_; }
  /// High-water slot bound: every live slot is < end(). Iterate with
  /// `for (uint32_t s = 0; s < pool.end(); ++s) if (pool.live(s)) ...`.
  uint32_t end() const { return end_; }
  bool live(uint32_t slot) const { return live_[slot] != 0; }

  T& at(uint32_t slot) {
    assert(slot < end_ && live_[slot]);
    return *Ptr(slot);
  }
  const T& at(uint32_t slot) const {
    assert(slot < end_ && live_[slot]);
    return *const_cast<SlabPool*>(this)->Ptr(slot);
  }

  /// Constructs a new object in the most recently freed slot (LIFO), or in
  /// a fresh slot at the high-water mark. Returns the slot index.
  template <typename... Args>
  uint32_t Emplace(Args&&... args) {
    uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = end_++;
      if (slot % kBlockSlots == 0) blocks_.push_back(NewBlock());
      live_.push_back(0);
    }
    new (RawPtr(slot)) T(std::forward<Args>(args)...);
    live_[slot] = 1;
    ++size_;
    return slot;
  }

  /// Destroys the object at `slot` and pushes the slot onto the freelist.
  void Free(uint32_t slot) {
    assert(slot < end_ && live_[slot]);
    Ptr(slot)->~T();
    live_[slot] = 0;
    --size_;
    free_.push_back(slot);
  }

  /// Freelist in stack order (back() is reused next). For checkpointing.
  const std::vector<uint32_t>& freelist() const { return free_; }

  /// Destroys every live object and resets to the empty pool.
  void Clear() {
    for (uint32_t s = 0; s < end_; ++s) {
      if (live_[s]) Ptr(s)->~T();
    }
    blocks_.clear();
    live_.clear();
    free_.clear();
    end_ = 0;
    size_ = 0;
  }

  // ---- Restore path: rebuild an exact checkpointed geometry. ----

  /// Clear + pre-extend to `end` all-dead slots with an empty freelist.
  /// Follow with EmplaceAt for each live entry and RestoreFreelist.
  void ResetGeometry(uint32_t end) {
    Clear();
    end_ = end;
    live_.assign(end, 0);
    const size_t nblocks = (static_cast<size_t>(end) + kBlockSlots - 1) /
                           kBlockSlots;
    blocks_.reserve(nblocks);
    for (size_t b = 0; b < nblocks; ++b) blocks_.push_back(NewBlock());
  }

  /// Constructs an object in a specific (dead, < end) slot.
  template <typename... Args>
  T& EmplaceAt(uint32_t slot, Args&&... args) {
    assert(slot < end_ && !live_[slot]);
    T* obj = new (RawPtr(slot)) T(std::forward<Args>(args)...);
    live_[slot] = 1;
    ++size_;
    return *obj;
  }

  /// Overwrites the freelist verbatim (stack order as checkpointed). The
  /// caller has validated that the slots are dead and < end.
  void RestoreFreelist(std::vector<uint32_t> freelist) {
    free_ = std::move(freelist);
  }

 private:
  struct Block {
    alignas(T) unsigned char bytes[sizeof(T) * kBlockSlots];
  };

  static std::unique_ptr<Block> NewBlock() {
    return std::make_unique<Block>();
  }

  void* RawPtr(uint32_t slot) {
    return blocks_[slot / kBlockSlots]->bytes +
           sizeof(T) * (slot % kBlockSlots);
  }
  T* Ptr(uint32_t slot) {
    return std::launder(reinterpret_cast<T*>(RawPtr(slot)));
  }

  std::vector<std::unique_ptr<Block>> blocks_;
  std::vector<uint8_t> live_;
  std::vector<uint32_t> free_;
  uint32_t end_ = 0;
  size_t size_ = 0;
};

}  // namespace container
}  // namespace aseq

#endif  // ASEQ_CONTAINER_SLAB_POOL_H_
