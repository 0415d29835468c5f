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
  return exec::RunSerialStream(options_, &buffers_, source, engine);
}

RunResult BatchRunner::RunEvents(const std::vector<Event>& events,
                                 QueryEngine* engine) {
  return exec::RunSerialEvents(options_, &buffers_, events, engine);
}

MultiRunResult BatchRunner::RunMulti(StreamSource* source,
                                     MultiQueryEngine* engine) {
  return exec::RunSerialMultiStream(options_, &buffers_, source, engine);
}

MultiRunResult BatchRunner::RunMultiEvents(const std::vector<Event>& events,
                                           MultiQueryEngine* engine) {
  return exec::RunSerialMultiEvents(options_, &buffers_, events, engine);
}

RunResult Runtime::Run(StreamSource* source, QueryEngine* engine,
                       bool collect_outputs) {
  RunResult result;
  std::vector<Output> scratch;
  Event e;
  SeqNum seq = 0;
  StopWatch watch;
  while (source->Next(&e)) {
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

RunResult Runtime::RunEvents(const std::vector<Event>& events,
                             QueryEngine* engine, bool collect_outputs) {
  RunResult result;
  std::vector<Output> scratch;
  StopWatch watch;
  SeqNum seq = 0;
  for (const Event& e : events) {
    Event copy = e;
    copy.set_seq(seq++);
    scratch.clear();
    engine->OnEvent(copy, &scratch);
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

MultiRunResult Runtime::RunMulti(StreamSource* source, MultiQueryEngine* engine,
                                 bool collect_outputs) {
  MultiRunResult result;
  std::vector<MultiOutput> scratch;
  Event e;
  SeqNum seq = 0;
  StopWatch watch;
  while (source->Next(&e)) {
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

MultiRunResult Runtime::RunMultiEvents(const std::vector<Event>& events,
                                       MultiQueryEngine* engine,
                                       bool collect_outputs) {
  MultiRunResult result;
  std::vector<MultiOutput> scratch;
  StopWatch watch;
  SeqNum seq = 0;
  for (const Event& e : events) {
    Event copy = e;
    copy.set_seq(seq++);
    scratch.clear();
    engine->OnEvent(copy, &scratch);
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

}  // namespace aseq
