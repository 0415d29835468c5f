// e2e_job: one end-to-end A-Seq batch job per process, plus the pieces the
// runner (run.py) needs around it. Subcommands:
//
//   workloads                      the workload table as JSON
//   env                            build facts (type, compiler, optimization)
//   gen    --workload W --seed S --out FILE [--events N]
//   oracle --workload W --trace FILE
//   job    --workload W --trace FILE [--perturb I]
//   traced --workload W --trace FILE [--perturb I] [--spans-out FILE]
//
// `job` runs the path `aseq run` / `aseq workload` run: ReadTraceFile ->
// Analyzer::AnalyzeText -> exec::MakePolicy / MakeMultiPolicy -> RunEvents,
// and times each public call from the outside. `oracle` computes the
// reference output digest with the per-event Runtime driver. `traced` runs
// the same job with spans and a telemetry registry attached, then replays
// the trace through each layer's public entry point alone. Every command
// prints one JSON object on stdout.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <sys/stat.h>

#include "ckpt/ckpt.h"
#include "common/schema.h"
#include "common/status.h"
#include "container/key_interner.h"
#include "engine/engine.h"
#include "engine/runtime.h"
#include "exec/execution_policy.h"
#include "exec/multi_execution_policy.h"
#include "exec/shard_router.h"
#include "aseq/aseq_engine.h"
#include "multi/nonshared_engine.h"
#include "obs/telemetry.h"
#include "plan/admission.h"
#include "query/analyzer.h"
#include "stream/stock_stream.h"
#include "stream/trace_io.h"

namespace aseq {
namespace e2e {
namespace {

// ---------------------------------------------------------------------------
// Workloads

/// A generated stock trace: the built-in stock generator (as
/// `aseq generate --stock N`) with the trader cardinality and gap bound.
struct TraceSpec {
  size_t events;
  int64_t traders;
  int64_t max_gap_ms;
};

struct Workload {
  const char* name;
  const char* trace;  // trace family; workloads on one family share a file
  TraceSpec spec;
  std::vector<std::string> queries;
  bool multi;  // a workload (MakeMultiPolicy, nonshare) vs one query
  size_t shards;
  bool supervise;
};

constexpr TraceSpec kStock50{1000000, 50, 6};
constexpr TraceSpec kStock30k{1000000, 30000, 6};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload>* kWorkloads = new std::vector<Workload>{
      {"count_serial", "stock50", kStock50,
       {"PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms"},
       false, 1, false},
      // The SUM job of sum_groups_sharded run serially. Host load moves a
      // job that keeps several cores busy far more than a serial one, so
      // this is the SUM workload steady enough to gate (README "Steadiness").
      {"sum_groups_serial", "stock30k", kStock30k,
       {"PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG SUM(IPIX.volume) "
        "WITHIN 100s"},
       false, 1, false},
      {"sum_groups_sharded", "stock30k", kStock30k,
       {"PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG SUM(IPIX.volume) "
        "WITHIN 100s"},
       false, 3, false},
      {"multi_nonshare_sharded", "stock50", kStock50,
       {
           "PATTERN SEQ(DELL, IPIX, AMAT) GROUP BY traderId AGG COUNT WITHIN 2s",
           "PATTERN SEQ(DELL, IPIX, QQQ) GROUP BY traderId AGG COUNT WITHIN 2s",
           "PATTERN SEQ(DELL, IPIX, INTC) GROUP BY traderId AGG COUNT WITHIN 2s",
           "PATTERN SEQ(DELL, IPIX, MSFT) GROUP BY traderId AGG COUNT WITHIN 2s",
           "PATTERN SEQ(YHOO, CSCO, ORCL) GROUP BY traderId AGG COUNT WITHIN 2s",
           "PATTERN SEQ(SUNW, CSCO, ORCL) GROUP BY traderId AGG COUNT WITHIN 2s",
           "PATTERN SEQ(AMAT, CSCO, ORCL) GROUP BY traderId AGG COUNT WITHIN 2s",
           "PATTERN SEQ(INTC, CSCO, ORCL) GROUP BY traderId AGG COUNT WITHIN 2s",
       },
       true, 3, false},
      {"sum_groups_supervised", "stock30k", kStock30k,
       {"PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG SUM(IPIX.volume) "
        "WITHIN 100s"},
       false, 3, true},
  };
  return *kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Small utilities

using Clock = std::chrono::steady_clock;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Flat JSON object writer; numbers print with every significant digit.
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    return Raw(key, buf);
  }
  Json& Int(const std::string& key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Str(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  Json& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  Json& Raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "" : ", ";
    body_ += Quote(key) + ": " + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

struct Args {
  std::map<std::string, std::string> flags;
  std::string Get(const std::string& k, const std::string& def = "") const {
    auto it = flags.find(k);
    return it == flags.end() ? def : it->second;
  }
  bool Has(const std::string& k) const { return flags.count(k) != 0; }
};

/// 64-bit FNV-1a over the fields of every output, in output order.
class Digest {
 public:
  void Add(size_t query_index, const Output& o) {
    U64(query_index);
    U64(static_cast<uint64_t>(o.ts));
    U64(o.group.has_value() ? 1 : 0);
    if (o.group.has_value()) Val(*o.group);
    Val(o.value);
    ++count_;
  }
  std::string Hex() const {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }
  uint64_t count() const { return count_; }

 private:
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ull;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof v); }
  void Val(const Value& v) {
    U64(static_cast<uint64_t>(v.type()));
    switch (v.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kInt64:
        U64(static_cast<uint64_t>(v.AsInt64()));
        break;
      case ValueType::kDouble: {
        const double d = v.AsDouble();
        uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof bits);
        U64(bits);
        break;
      }
      case ValueType::kString:
        U64(v.AsString().size());
        Bytes(v.AsString().data(), v.AsString().size());
        break;
    }
  }

  uint64_t h_ = 1469598103934665603ull;
  uint64_t count_ = 0;
};

/// Test hook: changes one output value so run.py's digest check can be
/// shown to catch it (int64 +1, double to the next representable value).
void Perturb(Value* v) {
  if (v->type() == ValueType::kInt64) {
    *v = Value(v->AsInt64() + 1);
  } else if (v->type() == ValueType::kDouble) {
    *v = Value(std::nextafter(v->AsDouble(), INFINITY));
  } else {
    *v = Value(int64_t{1});
  }
}

template <class OutputT>
const Output& OutputOf(const OutputT& o) {
  if constexpr (std::is_same_v<OutputT, MultiOutput>) {
    return o.output;
  } else {
    return o;
  }
}

template <class OutputT>
size_t QueryIndexOf(const OutputT& o) {
  if constexpr (std::is_same_v<OutputT, MultiOutput>) {
    return o.query_index;
  } else {
    return 0;
  }
}

template <class OutputT>
Digest DigestOf(std::vector<OutputT>* outputs, int64_t perturb) {
  if (perturb >= 0 && !outputs->empty()) {
    OutputT& o = (*outputs)[static_cast<size_t>(perturb) % outputs->size()];
    if constexpr (std::is_same_v<OutputT, MultiOutput>) {
      Perturb(&o.output.value);
    } else {
      Perturb(&o.value);
    }
  }
  Digest d;
  for (const OutputT& o : *outputs) d.Add(QueryIndexOf(o), OutputOf(o));
  return d;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

Result<std::vector<CompiledQuery>> CompileAll(const Workload& w,
                                              Schema* schema) {
  Analyzer analyzer(schema);
  std::vector<CompiledQuery> queries;
  for (const std::string& text : w.queries) {
    ASEQ_ASSIGN_OR_RETURN(CompiledQuery q, analyzer.AnalyzeText(text));
    queries.push_back(std::move(q));
  }
  return queries;
}

Result<std::unique_ptr<MultiQueryEngine>> MakeNonShare(
    const std::vector<CompiledQuery>& queries) {
  ASEQ_ASSIGN_OR_RETURN(auto e, NonSharedEngine::CreateAseq(queries));
  return std::unique_ptr<MultiQueryEngine>(std::move(e));
}

int Fail(const Status& s) {
  std::cout << Json().Str("status", s.ToString()).str() << std::endl;
  return 1;
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written as chrome://tracing JSON at the end.

class Spans {
 public:
  struct Span {
    std::string name;
    int parent;
    uint64_t start_ns;
    uint64_t end_ns;
  };

  /// Opens a span under the innermost open one.
  void Begin(const std::string& name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, parent, NowNs(), 0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  /// Closes the innermost span.
  void End() {
    spans_[static_cast<size_t>(open_.back())].end_ns = NowNs();
    open_.pop_back();
  }
  double Duration(int id) const {
    const Span& s = spans_[static_cast<size_t>(id)];
    return Seconds(s.end_ns - s.start_ns);
  }
  /// The span's duration minus the time its direct children cover.
  double SelfTime(int id) const {
    double t = Duration(id);
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent == id) t -= Duration(static_cast<int>(i));
    }
    return t;
  }

  bool WriteChromeTrace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"name\": " << Json::Quote(s.name)
          << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << static_cast<double>(s.start_ns - t0) / 1e3
          << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
          << ", \"self_us\": " << SelfTime(static_cast<int>(i)) * 1e6 << "}}"
          << (i + 1 < spans_.size() ? "," : "") << "\n";
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---------------------------------------------------------------------------
// The job

/// Per-layer metric sink: name -> (value, unit), in insertion order.
class Layers {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  std::string ToJson() const {
    Json j;
    for (const Item& it : items_) {
      j.Raw(it.name, Json().Num("value", it.value).Str("unit", it.unit).str());
    }
    return j.str();
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

struct JobResult {
  Status status = Status::OK();
  uint64_t events = 0;
  double read_s = 0;
  double compile_s = 0;
  double policy_s = 0;
  double run_s = 0;
  size_t shards_used = 1;
  std::string policy;
  std::string fallback;
  Digest digest;
};

template <class PolicyT, class ResultT>
using Inspector = std::function<void(PolicyT&, const ResultT&)>;

/// What the traced mode adds to a plain job: spans around each call, a
/// telemetry registry in RunOptions, and a look at the policy and run
/// result after RunEvents (for the dispatch counters).
struct JobHooks {
  Spans* spans = nullptr;
  obs::Telemetry* tel = nullptr;
  int64_t perturb = -1;
  Inspector<exec::ExecutionPolicy, RunResult> inspect_single;
  Inspector<exec::MultiExecutionPolicy, MultiRunResult> inspect_multi;
};

/// Runs the four public job calls and digests the outputs.
JobResult RunJob(const Workload& w, const std::string& trace_path,
                 const JobHooks& hooks) {
  JobResult r;
  Spans* spans = hooks.spans;
  auto begin = [&](const char* name) {
    if (spans != nullptr) spans->Begin(name);
    return NowNs();
  };
  auto end = [&](uint64_t t0) {
    if (spans != nullptr) spans->End();
    return Seconds(NowNs() - t0);
  };

  Schema schema;
  uint64_t t = begin("stream.ReadTraceFile");
  auto events = ReadTraceFile(trace_path, &schema);
  r.read_s = end(t);
  if (!events.ok()) {
    r.status = events.status();
    return r;
  }
  r.events = events->size();

  t = begin("query.AnalyzeText");
  auto queries = CompileAll(w, &schema);
  r.compile_s = end(t);
  if (!queries.ok()) {
    r.status = queries.status();
    return r;
  }

  RunOptions options;
  options.num_shards = w.shards;
  options.supervise = w.supervise;
  options.telemetry = hooks.tel;

  auto check_run = [&](const RunResultBase& res) {
    if (!res.fault_status.ok()) {
      r.status = res.fault_status;
    } else if (res.interrupted || res.events != r.events) {
      r.status = Status::Internal("run stopped after " +
                                  std::to_string(res.events) + " of " +
                                  std::to_string(r.events) + " events");
    }
  };

  if (!w.multi) {
    const CompiledQuery& q = queries->front();
    t = begin("exec.MakePolicy");
    auto policy = exec::MakePolicy(
        q, [&q] { return CreateAseqEngine(q); }, options, &r.fallback);
    r.policy_s = end(t);
    if (!policy.ok()) {
      r.status = policy.status();
      return r;
    }
    t = begin("exec.RunEvents");
    RunResult res = (*policy)->RunEvents(*events);
    r.run_s = end(t);
    check_run(res);
    r.shards_used = res.num_shards;
    r.policy = (*policy)->name();
    if (hooks.inspect_single) hooks.inspect_single(**policy, res);
    r.digest = DigestOf(&res.outputs, hooks.perturb);
  } else {
    const std::vector<CompiledQuery>& qs = *queries;
    t = begin("exec.MakeMultiPolicy");
    auto policy = exec::MakeMultiPolicy(
        qs, [&qs] { return MakeNonShare(qs); }, options, &r.fallback);
    r.policy_s = end(t);
    if (!policy.ok()) {
      r.status = policy.status();
      return r;
    }
    t = begin("exec.RunEvents");
    MultiRunResult res = (*policy)->RunEvents(*events);
    r.run_s = end(t);
    check_run(res);
    r.shards_used = res.num_shards;
    r.policy = (*policy)->name();
    if (hooks.inspect_multi) hooks.inspect_multi(**policy, res);
    r.digest = DigestOf(&res.outputs, hooks.perturb);
  }
  return r;
}

Json JobJson(const Workload& w, const std::string& trace_path,
             const JobResult& r) {
  Json j;
  j.Str("status", r.status.ok() ? "ok" : r.status.ToString())
      .Str("workload", w.name)
      .Int("events", r.events)
      .Int("trace_bytes", FileBytes(trace_path))
      .Num("read_s", r.read_s)
      .Num("compile_s", r.compile_s)
      .Num("policy_s", r.policy_s)
      .Num("setup_s", r.compile_s + r.policy_s)
      .Num("run_s", r.run_s)
      .Int("shards", r.shards_used)
      .Str("policy", r.policy)
      .Str("fallback", r.fallback)
      .Int("outputs", r.digest.count())
      .Str("digest", r.digest.Hex());
  return j;
}

// ---------------------------------------------------------------------------
// Layer replays (traced mode): each layer's public entry point alone, over
// the same trace, in the job's batch size.

struct Loaded {
  Schema schema;
  std::vector<Event> events;
  std::vector<CompiledQuery> queries;
};

Status Load(const Workload& w, const std::string& trace_path, Loaded* l) {
  ASEQ_ASSIGN_OR_RETURN(l->events, ReadTraceFile(trace_path, &l->schema));
  ASEQ_ASSIGN_OR_RETURN(l->queries, CompileAll(w, &l->schema));
  AssignSeqNums(&l->events);
  return Status::OK();
}

template <class Fn>
void ForEachBatch(const std::vector<Event>& events, Fn fn) {
  const size_t b = kDefaultBatchSize;
  for (size_t pos = 0; pos < events.size(); pos += b) {
    fn(std::span<const Event>(events.data() + pos,
                              std::min(b, events.size() - pos)));
  }
}

/// plan: BatchPrefilter::Scan + BatchAdmitter::AdmitBatch with a
/// KeyInterner, one program (and interner) per query, as each engine owns.
void ReplayPlan(const Loaded& l, Layers* out) {
  uint64_t scan_ns = 0, admit_ns = 0, relevant = 0, candidates = 0;
  uint64_t admitted = 0;
  for (const CompiledQuery& q : l.queries) {
    plan::AdmissionProgram program(q);
    plan::BatchPrefilter prefilter;
    plan::BatchAdmitter admitter;
    container::KeyInterner interner;
    EngineStats stats;
    ForEachBatch(l.events, [&](std::span<const Event> batch) {
      const uint64_t t0 = NowNs();
      relevant += prefilter.Scan(program, batch);
      const uint64_t t1 = NowNs();
      admitter.AdmitBatch(program, batch, &interner, &stats, &prefilter);
      admit_ns += NowNs() - t1;
      scan_ns += t1 - t0;
      for (size_t i = 0; i < batch.size(); ++i) {
        if (prefilter.Relevant(i)) {
          candidates += program.RolesFor(batch[i].type()).size();
        }
      }
    });
    admitted += stats.adm_admitted;
  }
  const double n = static_cast<double>(l.events.size());
  out->Set("plan.prefilter_ns_per_event", static_cast<double>(scan_ns) / n,
           "ns");
  out->Set("plan.admit_ns_per_event", static_cast<double>(admit_ns) / n,
           "ns");
  out->Set("plan.relevant_frac",
           static_cast<double>(relevant) /
               (n * static_cast<double>(l.queries.size())),
           "ratio");
  out->Set("plan.admit_frac",
           candidates == 0 ? 0.0
                           : static_cast<double>(admitted) /
                                 static_cast<double>(candidates),
           "ratio");
}

/// exec route: ShardRouter / MultiShardRouter::RouteBatch at the
/// workload's shard count (one shard for the serial workload: the routing
/// cost a sharded plan would add).
void ReplayRoute(const Workload& w, const Loaded& l, Layers* out) {
  const size_t shards = std::max<size_t>(w.shards, 1);
  std::vector<uint64_t> per_shard(shards, 0);
  uint64_t route_ns = 0, triggers = 0;
  if (!w.multi) {
    exec::ShardRouter router(l.queries.front(), shards);
    ForEachBatch(l.events, [&](std::span<const Event> batch) {
      const uint64_t t0 = NowNs();
      std::span<const exec::ShardRouter::Route> routes =
          router.RouteBatch(batch);
      route_ns += NowNs() - t0;
      for (const auto& r : routes) {
        ++per_shard[r.shard];
        triggers += r.trigger ? 1 : 0;
      }
    });
  } else {
    exec::MultiShardRouter router(l.queries, shards);
    ForEachBatch(l.events, [&](std::span<const Event> batch) {
      const uint64_t t0 = NowNs();
      std::span<const exec::MultiShardRouter::Route> routes =
          router.RouteBatch(batch);
      route_ns += NowNs() - t0;
      for (const auto& r : routes) {
        ++per_shard[r.shard];
        triggers += r.trigger_queries.empty() ? 0 : 1;
      }
    });
  }
  const double n = static_cast<double>(l.events.size());
  const double max_shard =
      static_cast<double>(*std::max_element(per_shard.begin(), per_shard.end()));
  out->Set("exec.route_ns_per_event", static_cast<double>(route_ns) / n, "ns");
  out->Set("exec.trigger_frac", static_cast<double>(triggers) / n, "ratio");
  out->Set("exec.route_skew", max_shard / (n / static_cast<double>(shards)),
           "ratio");
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size()))) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// engine: OnBatch into the workload's serial engine, one timed call per
/// batch, as a serial BatchRunner drives it; then ckpt: Checkpoint of the
/// final state into an in-memory ckpt::Writer.
template <class EngineT, class OutputT>
Status ReplayEngine(EngineT* engine, const Loaded& l, Layers* out) {
  std::vector<OutputT> scratch;
  std::vector<double> batch_us;
  uint64_t total_ns = 0, outputs = 0;
  ForEachBatch(l.events, [&](std::span<const Event> batch) {
    scratch.clear();
    const uint64_t t0 = NowNs();
    engine->OnBatch(batch, &scratch);
    const uint64_t dt = NowNs() - t0;
    total_ns += dt;
    batch_us.push_back(static_cast<double>(dt) * 1e-3);
    outputs += scratch.size();
  });
  const double n = static_cast<double>(l.events.size());
  out->Set("engine.ns_per_event", static_cast<double>(total_ns) / n, "ns");
  out->Set("engine.batch_p50_us", Quantile(batch_us, 0.50), "us");
  out->Set("engine.batch_p99_us", Quantile(batch_us, 0.99), "us");
  out->Set("engine.peak_objects",
           static_cast<double>(engine->stats().objects.peak()), "count");
  out->Set("engine.outputs_per_kevent", static_cast<double>(outputs) * 1e3 / n,
           "1/kevent");

  std::vector<double> ms;
  size_t bytes = 0;
  for (int rep = 0; rep < 5; ++rep) {
    ckpt::Writer writer;
    const uint64_t t0 = NowNs();
    ASEQ_RETURN_NOT_OK(engine->Checkpoint(&writer));
    ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
    bytes = writer.size();
  }
  out->Set("ckpt.snapshot_ms", Quantile(ms, 0.5), "ms");
  out->Set("ckpt.snapshot_mb", static_cast<double>(bytes) / 1e6, "MB");
  return Status::OK();
}

/// exec dispatch: the policy's own accounting of the traced job's run.
void DispatchLayers(double run_s, std::span<const double> busy,
                    const EngineStats& stats, const obs::Telemetry& tel,
                    bool supervised, Layers* out) {
  double busy_max = 0, busy_sum = 0;
  for (double b : busy) {
    busy_max = std::max(busy_max, b);
    busy_sum += b;
  }
  const double busy_mean =
      busy.empty() ? 0 : busy_sum / static_cast<double>(busy.size());
  uint64_t parks = 0, park_ns = 0;
  for (size_t s = 0; s < tel.num_shards(); ++s) {
    parks += tel.shard(s).parks.value();
    park_ns += tel.shard(s).park_ns.value();
  }
  obs::LogHistogram::Snapshot barrier;
  tel.coord().barrier_ns.SnapshotInto(&barrier);
  out->Set("exec.run_s", run_s, "s");
  out->Set("exec.shard_busy_max_s", busy_max, "s");
  out->Set("exec.shard_busy_sum_s", busy_sum, "s");
  out->Set("exec.shard_imbalance", busy_mean > 0 ? busy_max / busy_mean : 0,
           "ratio");
  out->Set("exec.critical_path_frac", run_s > 0 ? busy_max / run_s : 0,
           "ratio");
  out->Set("exec.pub_batches", static_cast<double>(stats.pub_batches),
           "count");
  out->Set("exec.ring_full_waits", static_cast<double>(stats.ring_full_waits),
           "count");
  out->Set("exec.ring_spins", static_cast<double>(stats.ring_spins), "count");
  out->Set("exec.park_s_sum", Seconds(park_ns), "s");
  out->Set("exec.parks", static_cast<double>(parks), "count");
  // The supervisor captures one recovery point before the first batch and
  // one at every barrier after it.
  const uint64_t barriers = tel.coord().barriers.value();
  out->Set("ckpt.recovery_points",
           static_cast<double>(supervised ? barriers + 1 : 0), "count");
  out->Set("exec.barrier_s", Seconds(barrier.sum), "s");
}

int CmdTraced(const Workload& w, const Args& a) {
  const std::string trace_path = a.Get("trace");
  Spans spans;
  obs::Telemetry tel(std::max<size_t>(w.shards, 1));
  Layers layers;
  JobHooks hooks;
  hooks.spans = &spans;
  hooks.tel = &tel;
  hooks.perturb = std::stoll(a.Get("perturb", "-1"));
  hooks.inspect_single = [&](exec::ExecutionPolicy& p, const RunResult& r) {
    DispatchLayers(r.elapsed_seconds, p.shard_busy_seconds(), p.stats(), tel,
                   w.supervise, &layers);
  };
  hooks.inspect_multi = [&](exec::MultiExecutionPolicy& p,
                            const MultiRunResult& r) {
    DispatchLayers(r.elapsed_seconds, p.shard_busy_seconds(), p.stats(), tel,
                   w.supervise, &layers);
  };

  spans.Begin("job");
  JobResult r = RunJob(w, trace_path, hooks);
  spans.End();
  if (!r.status.ok()) return Fail(r.status);

  const double n = static_cast<double>(r.events);
  const uint64_t bytes = FileBytes(trace_path);
  layers.Set("stream.read_s", r.read_s, "s");
  layers.Set("stream.ns_per_event", r.read_s * 1e9 / n, "ns");
  layers.Set("stream.mb_per_s", static_cast<double>(bytes) / 1e6 / r.read_s,
             "MB/s");
  layers.Set("query.compile_us", r.compile_s * 1e6, "us");
  layers.Set("exec.policy_build_ms", r.policy_s * 1e3, "ms");

  spans.Begin("replay");
  Loaded l;
  spans.Begin("replay.load");
  Status ls = Load(w, trace_path, &l);
  spans.End();
  if (!ls.ok()) return Fail(ls);
  spans.Begin("replay.plan");
  ReplayPlan(l, &layers);
  spans.End();
  spans.Begin("replay.route");
  ReplayRoute(w, l, &layers);
  spans.End();
  spans.Begin("replay.engine");
  if (!w.multi) {
    auto engine = CreateAseqEngine(l.queries.front());
    if (!engine.ok()) return Fail(engine.status());
    Status rs = ReplayEngine<QueryEngine, Output>(engine->get(), l, &layers);
    if (!rs.ok()) return Fail(rs);
  } else {
    auto engine = MakeNonShare(l.queries);
    if (!engine.ok()) return Fail(engine.status());
    Status rs =
        ReplayEngine<MultiQueryEngine, MultiOutput>(engine->get(), l, &layers);
    if (!rs.ok()) return Fail(rs);
  }
  spans.End();
  spans.End();

  if (a.Has("spans-out") && !spans.WriteChromeTrace(a.Get("spans-out"))) {
    return Fail(Status::IoError("cannot write " + a.Get("spans-out")));
  }
  Json j = JobJson(w, trace_path, r);
  j.Raw("layers", layers.ToJson());
  std::cout << j.str() << std::endl;
  return 0;
}

// ---------------------------------------------------------------------------
// Commands

int CmdJob(const Workload& w, const Args& a) {
  JobHooks hooks;
  hooks.perturb = std::stoll(a.Get("perturb", "-1"));
  const std::string trace_path = a.Get("trace");
  JobResult r = RunJob(w, trace_path, hooks);
  std::cout << JobJson(w, trace_path, r).str() << std::endl;
  return r.status.ok() ? 0 : 1;
}

/// The reference: the per-event Runtime driver (one OnEvent per event, no
/// batching, no policy), serial, in a process of its own.
int CmdOracle(const Workload& w, const Args& a) {
  Loaded l;
  Status s = Load(w, a.Get("trace"), &l);
  if (!s.ok()) return Fail(s);
  Digest d;
  if (!w.multi) {
    auto engine = CreateAseqEngine(l.queries.front());
    if (!engine.ok()) return Fail(engine.status());
    RunResult res = Runtime::RunEvents(l.events, engine->get());
    d = DigestOf(&res.outputs, -1);
  } else {
    auto engine = MakeNonShare(l.queries);
    if (!engine.ok()) return Fail(engine.status());
    MultiRunResult res = Runtime::RunMultiEvents(l.events, engine->get());
    d = DigestOf(&res.outputs, -1);
  }
  std::cout << Json()
                   .Str("status", "ok")
                   .Int("events", l.events.size())
                   .Int("outputs", d.count())
                   .Str("digest", d.Hex())
                   .str()
            << std::endl;
  return 0;
}

int CmdGen(const Workload& w, const Args& a) {
  StockStreamOptions options;
  options.seed = std::stoull(a.Get("seed", "1"));
  options.num_events = a.Has("events") ? std::stoull(a.Get("events"))
                                       : w.spec.events;
  options.num_traders = w.spec.traders;
  options.max_gap_ms = w.spec.max_gap_ms;
  Schema schema;
  std::vector<Event> events = GenerateStockStream(options, &schema);
  const std::string path = a.Get("out");
  Status s = WriteTraceFile(path, events, schema);
  if (!s.ok()) return Fail(s);
  std::cout << Json()
                   .Str("status", "ok")
                   .Int("events", events.size())
                   .Int("bytes", FileBytes(path))
                   .str()
            << std::endl;
  return 0;
}

int CmdWorkloads() {
  std::string list;
  for (const Workload& w : Workloads()) {
    list += (list.empty() ? "" : ", ");
    list += Json()
                .Str("name", w.name)
                .Str("trace", w.trace)
                .Int("shards", w.shards)
                .Bool("supervise", w.supervise)
                .Str("strategy", w.multi ? "nonshare" : "single")
                .str();
  }
  std::cout << "[" << list << "]" << std::endl;
  return 0;
}

int CmdEnv() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool sanitized = true;
#else
  const bool sanitized = false;
#endif
  std::cout << Json()
                   .Str("build_type", E2E_BUILD_TYPE)
                   .Str("compiler", E2E_COMPILER)
                   .Bool("optimized", optimized)
                   .Bool("sanitized", sanitized)
                   .Int("hardware_concurrency",
                        std::thread::hardware_concurrency())
                   .str()
            << std::endl;
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: e2e_job workloads|env|gen|oracle|job|traced "
                 "[--flag value]...\n";
    return 2;
  }
  const std::string cmd = argv[1];
  Args a;
  for (int i = 2; i < argc; ++i) {
    std::string k = argv[i];
    if (k.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::cerr << "e2e_job: expected --flag value, got '" << k << "'\n";
      return 2;
    }
    a.flags[k.substr(2)] = argv[++i];
  }
  if (cmd == "workloads") return CmdWorkloads();
  if (cmd == "env") return CmdEnv();
  const Workload* w = FindWorkload(a.Get("workload"));
  if (w == nullptr) {
    std::cerr << "e2e_job: unknown --workload '" << a.Get("workload")
              << "'\n";
    return 2;
  }
  if (cmd == "gen") return CmdGen(*w, a);
  if (cmd == "oracle") return CmdOracle(*w, a);
  if (cmd == "job") return CmdJob(*w, a);
  if (cmd == "traced") return CmdTraced(*w, a);
  std::cerr << "e2e_job: unknown command '" << cmd << "'\n";
  return 2;
}

}  // namespace
}  // namespace e2e
}  // namespace aseq

int main(int argc, char** argv) { return aseq::e2e::Main(argc, argv); }
