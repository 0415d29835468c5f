#ifndef ASEQ_EXEC_SERIAL_EXECUTOR_H_
#define ASEQ_EXEC_SERIAL_EXECUTOR_H_

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ckpt/snapshot.h"
#include "exec/execution_policy.h"
#include "obs/telemetry.h"

namespace aseq {
namespace exec {

/// Batch refills shared by the serial and sharded executors: each call
/// yields the next batch as a mutable view (empty = exhausted), which the
/// run loop stamps with sequence numbers in place.
///
/// Refill by borrowing from a StreamSource.
struct StreamRefill {
  StreamSource* source;
  size_t batch_size;
  std::span<Event> operator()() const {
    return source->BorrowBatch(batch_size);
  }
};

/// Refill by slicing a caller-owned (const) event vector: the slice is
/// staged through `batch` because the loop stamps sequence numbers.
struct EventsRefill {
  const std::vector<Event>* events;
  std::vector<Event>* batch;
  size_t batch_size;
  size_t pos = 0;
  std::span<Event> operator()() {
    const size_t n = std::min(batch_size, events->size() - pos);
    batch->assign(events->begin() + static_cast<ptrdiff_t>(pos),
                  events->begin() + static_cast<ptrdiff_t>(pos + n));
    pos += n;
    return {batch->data(), n};
  }
};

/// Writes one snapshot at stream `offset` through `save(path, offset)` and
/// accounts it (checkpoints_written, the telemetry counter,
/// last_checkpoint_offset); a failure is latched in
/// `result->checkpoint_status`. Every checkpoint site of the serial and
/// sharded executors goes through here.
template <typename SaveFn>
void WriteCheckpoint(const RunOptions& options, uint64_t offset,
                     RunResultBase* result, SaveFn&& save) {
  Status s = save(ckpt::SnapshotPathForOffset(options.checkpoint_dir, offset),
                  offset);
  if (!s.ok()) {
    result->checkpoint_status = std::move(s);
    return;
  }
  ++result->checkpoints_written;
  if (options.telemetry != nullptr) {
    options.telemetry->coord().checkpoints.Add(1);
  }
  result->last_checkpoint_offset = offset;
}

/// \brief The single-threaded policy: owns one engine (of either kind) and
/// drives it on the calling thread through the serial core.
///
/// The serial core is one batched loop: refill `buffers->batch` from the
/// source (or a slice of the event vector), assign sequence numbers, feed
/// OnBatch, collect outputs, and checkpoint at due batch boundaries. The
/// static RunWith entry points run it on a caller-owned engine (that is
/// BatchRunner); Run/RunEvents run it on the owned engine, so the
/// engine-pointer API and the policy API can never drift apart. All
/// buffers are reused clear-not-shrink. Instantiated for QueryKind and
/// WorkloadKind.
template <class Kind>
class SerialExecutorT final : public ExecutionPolicyT<Kind> {
 public:
  using Engine = typename Kind::Engine;
  using RunResultT = typename Kind::RunResultT;
  using Buffers = SerialBuffers<typename Kind::OutputT>;

  SerialExecutorT(const RunOptions& options, std::unique_ptr<Engine> engine);

  static RunResultT RunWith(const RunOptions& options, Buffers* buffers,
                            StreamSource* source, Engine* engine);
  static RunResultT RunWith(const RunOptions& options, Buffers* buffers,
                            const std::vector<Event>& events, Engine* engine);

  std::string name() const override { return engine_->name(); }
  size_t num_shards() const override { return 1; }

  RunResultT Run(StreamSource* source) override;
  RunResultT RunEvents(const std::vector<Event>& events) override;

  const EngineStats& stats() const override { return engine_->stats(); }
  std::span<const EngineStats> shard_stats() const override {
    return {&stats_view_, 1};
  }
  std::span<const double> shard_busy_seconds() const override {
    return {&busy_seconds_, 1};
  }

  Status Restore(const std::string& path, uint64_t* stream_offset) override;

  Engine* serial_engine() override { return engine_.get(); }

 private:
  /// Refreshes the per-run views after a run.
  RunResultT Finish(RunResultT result);

  RunOptions options_;
  std::unique_ptr<Engine> engine_;
  Buffers buffers_;
  EngineStats stats_view_;   // snapshot of engine stats after the last run
  double busy_seconds_ = 0;  // == elapsed_seconds of the last run
};

extern template class SerialExecutorT<QueryKind>;
extern template class SerialExecutorT<WorkloadKind>;

}  // namespace exec
}  // namespace aseq

#endif  // ASEQ_EXEC_SERIAL_EXECUTOR_H_
