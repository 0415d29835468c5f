#ifndef ASEQ_ASEQ_ASEQ_ENGINE_H_
#define ASEQ_ASEQ_ASEQ_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "aseq/counter_set.h"
#include "common/status.h"
#include "container/key_interner.h"
#include "engine/engine.h"
#include "plan/admission.h"
#include "query/compiled_query.h"
#include "state/partition_store.h"
#include "state/window_clock.h"

namespace aseq {

/// \brief The single-query A-Seq engine: Hashed Prefix Counters (Sec. 3.4)
/// for equivalence predicates and GROUP BY, and their degenerate case, an
/// unpartitioned query, as one global partition — Dynamic Prefix Counting
/// (Sec. 3.1) for unbounded windows, Start Event Marking (Sec. 3.2) for
/// sliding ones. Negation follows the Recounting Rule (Sec. 3.3) and local
/// predicates are pushed in front. No sequence match is ever constructed:
/// each event updates O(1) cells in each live prefix counter it reaches.
///
/// Each distinct partition key owns a CounterSet; positive instances route
/// to their partition, negated instances invalidate the partitions matching
/// on the key parts that constrain them. An unpartitioned query's key has
/// zero parts (every id kNoId), so every instance routes to the one global
/// partition through the store's direct-mapped slot array, and the global
/// (`per_group_ == false`) totals serve its triggers. Every add into a
/// partition comes after purging it as of the event's timestamp, so the
/// live-object peaks are those of the paper's single counter set.
///
/// Execution is staged through the compiled admission layer (src/plan/):
/// plan::BatchAdmitter::AdmitBatch qualifies, extracts, and *interns*
/// every partition key of a batch up front (each distinct key Value maps
/// to a dense uint32_t id, so a staged key is a fixed-size id array — no
/// Value copies or allocations), PrefetchIndex/PrefetchPartitions issue
/// DRAMHiT-style software prefetches for the flat-table slots the batch
/// will probe, and ExecuteEvent replays the staged records in arrival
/// order. OnEvent stages a one-event batch through the same path, so both
/// paths share one code path and stay exactly equivalent.
///
/// State lives in the partition-state spine (src/state/): a
/// state::PartitionStore of Partition entries (interned keys, slab slots
/// as the observable iteration order, dense single-part index) and a
/// state::WindowClock driving lazy window expiry.
///
/// Invertible aggregates (COUNT, SUM, AVG) keep running per-group (or
/// global) totals — a checked count plus an ExactSum — that every
/// partition mutation updates through a TotalSink, so a trigger reads its
/// answer in O(1). The exact sum is order-independent, so the totals are
/// bit-identical however partitions are scanned, sharded or restored.
/// MIN/MAX are not invertible and still scan every partition at trigger
/// time (ScanTotal). Poll's per-group output order and partial-negation
/// scans walk ascending slot order, and checkpoints carry the exact slab
/// geometry so restores reproduce it byte-for-byte.
///
/// Each partition key owns disjoint state, so the executor can split the
/// partition store of a partitioned query across N twin instances by
/// GROUP BY key (the grouped sharing engines shard the same way). The only
/// cross-partition coupling is window expiry at trigger time, which
/// ShardableEngine::SyncPurgeTo replicates on the shards that do not own
/// the trigger.
class HpcEngine : public QueryEngine, public ShardableEngine {
 public:
  explicit HpcEngine(CompiledQuery query);

  void OnEvent(const Event& e, std::vector<Output>* out) override;
  void OnBatch(std::span<const Event> batch, std::vector<Output>* out) override;
  std::vector<Output> Poll(Timestamp now) override;
  const EngineStats& stats() const override { return stats_; }
  /// Serializes the interner table (values in id order), the partition
  /// slab — entries in canonical interned-id key order, each with its slot
  /// index, plus the freelist and high-water mark, pinning the slab's
  /// observable iteration order exactly — the running counts, and the
  /// expiry heap verbatim in array order (equal-deadline pops must replay
  /// identically after a restore; see ckpt::HeapContainer). Neither the
  /// FlatMap index nor the exact sums are serialized: Restore() rebuilds
  /// both from the restored partitions.
  Status Checkpoint(ckpt::Writer* writer) const override;
  Status Restore(ckpt::Reader* reader) override;
  /// The algorithm the query's shape selects: A-Seq(HPC) when partitioned,
  /// else A-Seq(SEM) with a window and A-Seq(DPC) without.
  std::string name() const override {
    if (query_.partitioned()) return "A-Seq(HPC)";
    return query_.has_window() ? "A-Seq(SEM)" : "A-Seq(DPC)";
  }

  const CompiledQuery& query() const { return query_; }

  size_t num_partitions() const { return store_.size(); }

  /// ShardableEngine: only a partitioned query's state splits by key.
  bool shardable() const override { return query_.partitioned(); }
  /// Replays the cross-partition purge a trigger at `now` performs —
  /// AdvanceExpiry for invertible aggregates, ScanTotal's purge-and-erase
  /// sweep (without the aggregation) for MIN/MAX. One query: the trigger
  /// set is always this engine's, so `trigger_queries` is ignored.
  void SyncPurgeTo(Timestamp now,
                   std::span<const size_t> trigger_queries) override;
  EngineStats* shard_mutable_stats() override { return &stats_; }

 protected:
  EngineStats* mutable_stats() override { return &stats_; }

 private:
  /// One partition: its interned key (plus the key's hash, pinned at
  /// creation so erase/expiry paths never rehash) and its counter state.
  /// Slab-allocated; the CounterSet's deque storage is the only per-
  /// partition heap allocation left.
  struct Partition {
    container::InternedKey key;
    uint64_t hash = 0;
    CounterSet counters;

    Partition(const container::InternedKey& k, uint64_t h, size_t length,
              AggFunc func, size_t carrier_pos1, Timestamp window_ms,
              EngineStats* stats)
        : key(k),
          hash(h),
          counters(length, func, carrier_pos1, window_ms, stats) {}
  };

  /// "No partition" sentinel in the dense slot index (see src/state/).
  static constexpr uint32_t kNoSlot = state::kNoSlot;

  /// Dense-index position for an interned id (see state::DenseIdx): used
  /// here for the group total arrays, which are indexed the same way the
  /// store's single-part slot array is.
  static constexpr uint32_t DenseIdx(uint32_t id) {
    return state::DenseIdx(id);
  }

  /// Prefetch pass after admission: warms the partition-index (and
  /// group-count) slots each staged record will probe. The interner slots
  /// were already prefetched during admission's extraction pass.
  void PrefetchIndex() const;

  /// Resolves each staged record against the partition index and issues
  /// software prefetches for the slab lines ExecuteEvent will touch (read
  /// intent, high temporal locality). Purely a cache warmer: results are
  /// deliberately not reused, since executing earlier batch events can
  /// create or erase partitions and stale slots must never be trusted.
  void PrefetchPartitions() const;

  /// Replays one event's staged admission records against the partition
  /// store.
  void ExecuteEvent(const Event& e,
                    std::span<const plan::AdmissionRecord> records,
                    std::vector<Output>* out);

  /// Merges the tail extrema (MIN/MAX) of partitions whose group id equals
  /// `gid`; with `match_group == false`, of every partition. Walks the
  /// slab in slot order, purging as it goes and erasing partitions left
  /// empty.
  AggAccum ScanTotal(Timestamp now, bool match_group, uint32_t gid);

  /// Final value of an invertible aggregate from the running totals of
  /// group `gid` (or the global totals when ungrouped).
  Value RunningTotal(uint32_t gid) const;

  /// Removes the partition at `slot` from the index and the slab.
  void ErasePartition(uint32_t slot);

  /// True when triggers read the O(1) running totals (COUNT/SUM/AVG)
  /// instead of scanning every partition (MIN/MAX).
  bool invertible() const { return Invertible(query_.agg().func); }

  /// The running totals `part` folds its changes into (invertible
  /// aggregates; an empty sink otherwise), growing the group arrays when
  /// the group id is new.
  TotalSink SinkFor(const Partition& part) {
    if (!invertible()) return {};
    if (!per_group_) {
      return {&running_count_, has_sum_ ? &running_sum_ : nullptr};
    }
    const uint32_t idx = DenseIdx(part.key.ids[group_part_]);
    if (idx >= group_counts_.size()) {
      // Interned ids are dense, so the interner size bounds every group id
      // the engine can ever hand us right now.
      const size_t n = store_.interner().size() + 1;
      group_counts_.resize(n, 0);
      if (has_sum_) group_sums_.resize(n);
    }
    return {&group_counts_[idx], has_sum_ ? &group_sums_[idx] : nullptr};
  }

  /// Pushes `part`'s next expiration onto the clock (windowed mode,
  /// invertible aggregates; a no-op when nothing can expire).
  void EnqueueExpiry(const Partition& part);

  /// Purges every partition whose earliest expiration is due at `now`,
  /// keeping the running totals exact; erases partitions left empty. The
  /// lazy heap makes this amortized O(expired counters), so invertible
  /// triggers are O(1) instead of O(partitions).
  void AdvanceExpiry(Timestamp now);

  /// Refreshes the transient EngineStats::ht_* probe/occupancy gauges
  /// from the flat tables (index + group counts + interner).
  void UpdateHtStats();

  CompiledQuery query_;
  EngineStats stats_;
  size_t length_;
  size_t carrier_pos1_;
  size_t num_parts_;
  uint64_t full_mask_;    // covered_mask value meaning "every part"
  bool per_group_;        // GROUP BY present
  size_t group_part_;     // index of the GROUP BY part (0 if none)
  // Zero- or one-part key: dense direct-mapped store index (a zero-part
  // key is all kNoId, so the global partition sits in its reserved slot).
  bool single_part_;
  /// The partition-state spine (src/state/): interner + index + slab.
  state::PartitionStore<Partition> store_;
  /// Compiled admission program (src/plan/): dense role dispatch, typed
  /// local-predicate opcodes, fused carrier load + key extraction.
  /// Borrows query_'s predicate storage — declared after it.
  plan::AdmissionProgram program_;
  /// Batched admission scratch, reused (clear-not-shrink) across batches.
  plan::BatchAdmitter admitter_;
  bool has_sum_;          // SUM/AVG: the totals carry an ExactSum
  // Invertible aggregates: running full-match totals (global, or per group
  // id) and the window clock that keeps them exact under lazy purging.
  // Group totals live in flat arrays indexed by DenseIdx(gid) — interned
  // group ids are dense, so a trigger reads its total with one array
  // access, and a zero total means "no full matches". The sums are kept
  // only for SUM/AVG.
  uint64_t running_count_ = 0;
  ExactSum running_sum_;
  std::vector<uint64_t> group_counts_;
  std::vector<ExactSum> group_sums_;
  state::WindowClock clock_;
};

/// \brief Builds the A-Seq engine (an HpcEngine) for an analyzed query.
///
/// Fails with Unsupported if the query carries join predicates (A-Seq
/// pushes only local and equivalence predicates into counting; use the
/// stack-based baseline for general joins), or if a partitioned query's
/// composite key is wider than container::kMaxKeyParts (the flat store
/// carries keys as fixed-size interned-id arrays).
Result<std::unique_ptr<QueryEngine>> CreateAseqEngine(
    const CompiledQuery& query);

}  // namespace aseq

#endif  // ASEQ_ASEQ_ASEQ_ENGINE_H_
