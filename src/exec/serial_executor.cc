#include "exec/serial_executor.h"

#include <span>
#include <utility>

#include "ckpt/snapshot.h"
#include "metrics/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace_writer.h"

namespace aseq {
namespace exec {

namespace {

/// Writes a snapshot when the stream offset crosses the next checkpoint
/// threshold. After the first I/O failure no further snapshots are
/// attempted.
template <typename SaveFn>
void MaybeCheckpoint(const RunOptions& options, uint64_t offset,
                     uint64_t* next_due, RunResultBase* result, SaveFn& save) {
  if (options.checkpoint_every == 0 || !result->checkpoint_status.ok() ||
      offset < *next_due) {
    return;
  }
  WriteCheckpoint(options, offset, result, save);
  while (*next_due <= offset) *next_due += options.checkpoint_every;
}

/// The serial loop, shared by every source shape and engine kind:
/// `refill` yields the next batch as a mutable view (empty = stream
/// exhausted); the loop stamps sequence numbers straight into the viewed
/// events, so a source that lends its own storage (VectorSource) feeds
/// the engine with zero per-batch copies. `scratch`/`result->outputs`
/// are the matching Output types.
template <typename ResultT, typename EngineT, typename ScratchT,
          typename RefillFn, typename SaveFn>
ResultT RunSerialLoop(const RunOptions& options, ScratchT* scratch,
                      EngineT* engine, RefillFn&& refill, SaveFn&& save) {
  ResultT result;
  result.batch_size = options.batch_size;
  SeqNum seq = options.start_offset;
  uint64_t next_ckpt = options.start_offset + options.checkpoint_every;
  StopWatch watch;
  for (;;) {
    // Stop-flag check before refill: no batch is pulled and then dropped,
    // so the final checkpoint covers exactly the events already fed.
    if (options.stop_requested != nullptr &&
        options.stop_requested->load(std::memory_order_relaxed)) {
      result.interrupted = true;
      break;
    }
    std::span<Event> batch = refill();
    if (batch.empty()) break;
    for (Event& e : batch) e.set_seq(seq++);
    scratch->clear();
    if (options.telemetry == nullptr) {
      engine->OnBatch(std::span<const Event>(batch), scratch);
    } else {
      // Serial telemetry: admission and execution are fused in OnBatch, so
      // one span covers both; the batch elapsed doubles as the
      // trigger-to-output latency when the batch produced outputs.
      obs::Telemetry& tel = *options.telemetry;
      const uint64_t begin_ns = obs::MonotonicNanos();
      engine->OnBatch(std::span<const Event>(batch), scratch);
      const uint64_t end_ns = obs::MonotonicNanos();
      const uint64_t elapsed = end_ns - begin_ns;
      tel.coord().batches.Add(1);
      tel.coord().events.Add(batch.size());
      tel.coord().admit_ns.Record(elapsed);
      obs::ShardCell& cell = tel.shard(0);
      cell.ops.Add(batch.size());
      cell.events.Add(batch.size());
      cell.outputs.Add(scratch->size());
      cell.items.Add(1);
      cell.busy_ns.Add(elapsed);
      cell.op_service_ns.Record(elapsed / batch.size());
      if (!scratch->empty()) cell.trigger_latency_ns.Record(elapsed);
      if (tel.trace() != nullptr) {
        tel.trace()->Span(
            "batch", 0, begin_ns, end_ns,
            {obs::TraceWriter::NumArg("seq", seq - batch.size()),
             obs::TraceWriter::NumArg("events", batch.size()),
             obs::TraceWriter::NumArg("outputs", scratch->size())});
      }
    }
    if (options.collect_outputs) {
      result.outputs.insert(result.outputs.end(), scratch->begin(),
                            scratch->end());
    }
    if (!engine->status().ok()) {
      result.fault_status = engine->status();
      break;
    }
    MaybeCheckpoint(options, seq, &next_ckpt, &result, save);
  }
  // Graceful stop: write one final snapshot at the current offset so a
  // later --restore-from resumes without replaying anything.
  if (result.interrupted && !options.checkpoint_dir.empty() &&
      result.checkpoint_status.ok() &&
      (result.checkpoints_written == 0 ||
       result.last_checkpoint_offset < seq)) {
    WriteCheckpoint(options, seq, &result, save);
  }
  result.elapsed_seconds = watch.ElapsedSeconds();
  result.events = seq - options.start_offset;
  return result;
}

/// The snapshot hook for a serial run: one engine snapshot per due offset.
template <class EngineT>
auto SaveTo(const EngineT* engine) {
  return [engine](const std::string& path, uint64_t offset) {
    return ckpt::SaveEngineSnapshot(path, *engine, offset);
  };
}

}  // namespace

template <class Kind>
typename Kind::RunResultT SerialExecutorT<Kind>::RunWith(
    const RunOptions& options, Buffers* buffers, StreamSource* source,
    Engine* engine) {
  return RunSerialLoop<RunResultT>(options, &buffers->scratch, engine,
                                   StreamRefill{source, options.batch_size},
                                   SaveTo(engine));
}

template <class Kind>
typename Kind::RunResultT SerialExecutorT<Kind>::RunWith(
    const RunOptions& options, Buffers* buffers,
    const std::vector<Event>& events, Engine* engine) {
  return RunSerialLoop<RunResultT>(
      options, &buffers->scratch, engine,
      EventsRefill{&events, &buffers->batch, options.batch_size},
      SaveTo(engine));
}

template <class Kind>
SerialExecutorT<Kind>::SerialExecutorT(const RunOptions& options,
                                       std::unique_ptr<Engine> engine)
    : options_(options), engine_(std::move(engine)) {
  options_.num_shards = 1;
}

template <class Kind>
typename Kind::RunResultT SerialExecutorT<Kind>::Finish(RunResultT result) {
  stats_view_ = engine_->stats();
  busy_seconds_ = result.elapsed_seconds;
  return result;
}

template <class Kind>
typename Kind::RunResultT SerialExecutorT<Kind>::Run(StreamSource* source) {
  return Finish(RunWith(options_, &buffers_, source, engine_.get()));
}

template <class Kind>
typename Kind::RunResultT SerialExecutorT<Kind>::RunEvents(
    const std::vector<Event>& events) {
  return Finish(RunWith(options_, &buffers_, events, engine_.get()));
}

template <class Kind>
Status SerialExecutorT<Kind>::Restore(const std::string& path,
                                      uint64_t* stream_offset) {
  ASEQ_RETURN_NOT_OK(
      ckpt::RestoreEngineSnapshot(path, engine_.get(), stream_offset));
  options_.start_offset = *stream_offset;
  return Status::OK();
}

template class SerialExecutorT<QueryKind>;
template class SerialExecutorT<WorkloadKind>;

}  // namespace exec
}  // namespace aseq
