#ifndef ASEQ_CKPT_SNAPSHOT_H_
#define ASEQ_CKPT_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "ckpt/ckpt.h"
#include "common/status.h"
#include "engine/engine.h"

namespace aseq {
namespace ckpt {

/// Snapshot file layout (all integers little-endian):
///
///   [8]  magic "ASEQCKPT"
///   [4]  u32 format version (kSnapshotFormatVersion)
///   [8]  u64 body length B
///   [B]  body: engine name (length-prefixed) + u64 stream offset +
///        the engine's Checkpoint() payload
///   [8]  u64 FNV-1a checksum of the body
///
/// Writes are atomic: the file is written to `<path>.tmp` and renamed over
/// `path`, so a crash mid-write can never leave a half-written snapshot
/// under the published name.
///
/// Version history:
///   1  node-based partition map (bucket-count + insertion-order payload)
///   2  flat partition store: interner table + slab geometry + verbatim
///      expiry heap; sharded containers additionally carry router state
///   3  exact SUM/AVG totals: SUM/AVG engines checkpoint their window
///      clock, running totals are rebuilt on restore instead of stored,
///      and engine stats carry the sticky count-overflow flag
///   4  one A-Seq engine: an unpartitioned query checkpoints the HPC
///      payload (its one global partition); the stack baseline stores
///      exact group sums and no hash-table bucket count
inline constexpr uint32_t kSnapshotFormatVersion = 4;
inline constexpr char kSnapshotMagic[] = "ASEQCKPT";  // 8 bytes, no NUL

/// Header fields recovered before the engine payload is touched.
struct SnapshotInfo {
  std::string engine_name;
  /// Number of stream events the engine had consumed when the snapshot was
  /// taken; resuming replays the trace from this offset.
  uint64_t stream_offset = 0;
};

/// FNV-1a 64-bit over `data` (the body checksum).
uint64_t Fnv1a64(std::string_view data);

/// Writes a complete snapshot file atomically (temp file + rename).
Status WriteSnapshotFile(const std::string& path,
                         const std::string& engine_name,
                         uint64_t stream_offset, std::string_view payload);

/// Process-wide observer invoked with (path, stream_offset) after every
/// successful WriteSnapshotFile — i.e. after the rename published the
/// snapshot. The telemetry layer registers one to flush the metrics
/// emitter and stamp a trace instant at each durability point, so the
/// observability files on disk always cover at least as much of the run
/// as the newest checkpoint. Pass an empty function to clear. Not
/// thread-safe against concurrent snapshot writes: register before the
/// run starts (the CLI does this during flag setup).
void SetSnapshotWriteObserver(
    std::function<void(const std::string&, uint64_t)> observer);

/// Reads and validates a snapshot file: magic, version, body length, and
/// checksum. On success `*info` holds the header and `*payload` the engine
/// payload bytes. Corrupt, truncated, or version-skewed files fail with a
/// descriptive ParseError/IoError and never touch an engine.
Status ReadSnapshotFile(const std::string& path, SnapshotInfo* info,
                        std::string* payload);

/// Reads a snapshot taken by the engine named `engine_name` and returns its
/// payload and stream offset. Fails — before any engine is touched — on
/// any ReadSnapshotFile error and on an engine-name mismatch.
Status ReadEngineSnapshot(const std::string& path,
                          const std::string& engine_name, std::string* payload,
                          uint64_t* stream_offset);

/// Checkpoints `engine` (plus the stream offset) into a snapshot file.
/// `EngineT` is any engine with Checkpoint()/name() — a QueryEngine or a
/// MultiQueryEngine; the file format does not distinguish them (the
/// engine name does).
template <class EngineT>
Status SaveEngineSnapshot(const std::string& path, const EngineT& engine,
                          uint64_t stream_offset) {
  Writer payload;
  ASEQ_RETURN_NOT_OK(engine.Checkpoint(&payload));
  return WriteSnapshotFile(path, engine.name(), stream_offset,
                           payload.buffer());
}

/// Restores a snapshot into a freshly constructed engine for the same
/// query or workload. Fails without modifying `engine` if the file is
/// invalid or was taken by a different engine (name mismatch).
template <class EngineT>
Status RestoreEngineSnapshot(const std::string& path, EngineT* engine,
                             uint64_t* stream_offset) {
  std::string payload;
  uint64_t offset = 0;
  ASEQ_RETURN_NOT_OK(
      ReadEngineSnapshot(path, engine->name(), &payload, &offset));
  Reader reader(payload);
  ASEQ_RETURN_NOT_OK(engine->Restore(&reader));
  ASEQ_RETURN_NOT_OK(reader.ExpectEnd());
  *stream_offset = offset;
  return Status::OK();
}

/// \brief Multi-shard snapshot container (sharded execution).
///
/// Same outer file format as every snapshot; the engine name is
/// "Sharded[<inner engine name>]" so restoring a sharded container into a
/// serial engine (or vice versa) fails the existing name check up front.
/// The payload packs every shard under the one body checksum:
///
///   [4]  u32 shard count N
///   [..] merged EngineStats — the exact cross-shard merged view at the
///        checkpoint (the restored run seeds its peak-object merge from
///        it; per-shard stats live inside each shard payload)
///   [..] u64 length prefix + the router's Checkpoint() payload (the
///        router's key-interner table, whose dense ids decide shard
///        ownership; restoring it makes the replayed suffix route every
///        key to the shard that already owns it)
///   N x  u64 length prefix + the shard engine's Checkpoint() payload
///
/// Restore validates the shard count against the engines supplied, so a
/// run restored with a different --shards N fails with a clear message
/// instead of scrambling partition ownership. `EngineT` is QueryEngine or
/// MultiQueryEngine (instantiated for both); the engine name in the header
/// keeps the two container families from restoring into each other — a
/// workload engine's name never equals a single-query engine's.
template <class EngineT>
Status SaveShardedSnapshot(const std::string& path,
                           std::span<const EngineT* const> shards,
                           uint64_t stream_offset, const EngineStats& merged,
                           std::string_view router_state);
template <class EngineT>
Status RestoreShardedSnapshot(const std::string& path,
                              std::span<EngineT* const> shards,
                              uint64_t* stream_offset, EngineStats* merged,
                              std::string* router_state);

/// Canonical snapshot filename for a stream offset: `<dir>/ckpt-<offset
/// zero-padded to 20>.aseqckpt` — zero-padding makes lexicographic order
/// equal numeric order, so "latest" is the last name in a sorted listing.
std::string SnapshotPathForOffset(const std::string& dir, uint64_t offset);

}  // namespace ckpt
}  // namespace aseq

#endif  // ASEQ_CKPT_SNAPSHOT_H_
