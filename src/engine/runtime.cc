#include "engine/runtime.h"

#include "exec/serial_executor.h"
#include "metrics/metrics.h"

namespace aseq {

std::string Output::ToString() const {
  std::string out = "@" + std::to_string(ts);
  if (group.has_value()) {
    out += " [" + group->ToString() + "]";
  }
  out += " " + value.ToString();
  return out;
}

void AssignSeqNums(std::vector<Event>* events) {
  SeqNum seq = 0;
  for (Event& e : *events) e.set_seq(seq++);
}

RunResult BatchRunner::Run(StreamSource* source, QueryEngine* engine) {
  return exec::SerialExecutorT<exec::QueryKind>::RunWith(options_, &buffers_,
                                                         source, engine);
}

RunResult BatchRunner::RunEvents(const std::vector<Event>& events,
                                 QueryEngine* engine) {
  return exec::SerialExecutorT<exec::QueryKind>::RunWith(options_, &buffers_,
                                                         events, engine);
}

MultiRunResult BatchRunner::RunMultiEvents(const std::vector<Event>& events,
                                           MultiQueryEngine* engine) {
  return exec::SerialExecutorT<exec::WorkloadKind>::RunWith(
      options_, &multi_buffers_, events, engine);
}

namespace {

/// The per-event reference loop behind every Runtime entry point: `next`
/// fills the next event (false = exhausted); the loop stamps its seq and
/// feeds it through OnEvent.
template <class EngineT, class OutputT, class NextFn>
BasicRunResult<OutputT> RunPerEvent(EngineT* engine, bool collect_outputs,
                                    NextFn&& next) {
  BasicRunResult<OutputT> result;
  std::vector<OutputT> scratch;
  Event e;
  SeqNum seq = 0;
  StopWatch watch;
  while (next(&e)) {
    e.set_seq(seq++);
    scratch.clear();
    engine->OnEvent(e, &scratch);
    if (collect_outputs) {
      result.outputs.insert(result.outputs.end(), scratch.begin(),
                            scratch.end());
    }
    if (!engine->status().ok()) {
      result.fault_status = engine->status();
      break;
    }
  }
  result.elapsed_seconds = watch.ElapsedSeconds();
  result.events = seq;
  return result;
}

/// Feeds copies of a caller-owned vector (the loop re-stamps each copy).
auto CopyFrom(const std::vector<Event>& events) {
  return [&events, pos = size_t{0}](Event* e) mutable {
    if (pos == events.size()) return false;
    *e = events[pos++];
    return true;
  };
}

auto PullFrom(StreamSource* source) {
  return [source](Event* e) { return source->Next(e); };
}

}  // namespace

RunResult Runtime::Run(StreamSource* source, QueryEngine* engine,
                       bool collect_outputs) {
  return RunPerEvent<QueryEngine, Output>(engine, collect_outputs,
                                          PullFrom(source));
}

RunResult Runtime::RunEvents(const std::vector<Event>& events,
                             QueryEngine* engine, bool collect_outputs) {
  return RunPerEvent<QueryEngine, Output>(engine, collect_outputs,
                                          CopyFrom(events));
}

MultiRunResult Runtime::RunMultiEvents(const std::vector<Event>& events,
                                       MultiQueryEngine* engine,
                                       bool collect_outputs) {
  return RunPerEvent<MultiQueryEngine, MultiOutput>(engine, collect_outputs,
                                                    CopyFrom(events));
}

}  // namespace aseq
