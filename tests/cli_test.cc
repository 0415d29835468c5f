#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "cli/flags.h"
#include "fault/fault.h"

namespace aseq {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult RunTool(std::vector<std::string> args) {
  std::ostringstream out, err;
  int code = RunCli(args, out, err);
  return {code, out.str(), err.str()};
}

// --------------------------------------------------------------------------
// FlagSet
// --------------------------------------------------------------------------

TEST(FlagSetTest, ParsesPositionalAndFlags) {
  auto fs = FlagSet::Parse({"run", "--query", "PATTERN SEQ(A)", "--quiet",
                            "--seed=7"});
  ASSERT_TRUE(fs.ok());
  ASSERT_EQ(fs->positional().size(), 1u);
  EXPECT_EQ(fs->positional()[0], "run");
  EXPECT_EQ(fs->GetString("query"), "PATTERN SEQ(A)");
  EXPECT_TRUE(fs->GetBool("quiet"));
  EXPECT_EQ(*fs->GetInt("seed", 0), 7);
  EXPECT_EQ(*fs->GetInt("missing", 42), 42);
}

TEST(FlagSetTest, BadIntegerIsError) {
  auto fs = FlagSet::Parse({"run", "--seed", "abc"});
  ASSERT_TRUE(fs.ok());
  EXPECT_FALSE(fs->GetInt("seed", 0).ok());
}

TEST(FlagSetTest, PositionalAfterFlagsRejected) {
  EXPECT_FALSE(FlagSet::Parse({"run", "--seed", "7", "oops"}).ok());
  // A lone token after a bare flag is consumed as that flag's value.
  auto fs = FlagSet::Parse({"run", "--quiet", "oops"});
  ASSERT_TRUE(fs.ok());
  EXPECT_EQ(fs->GetString("quiet"), "oops");
}

TEST(FlagSetTest, CheckKnownFlagsTyposCaught) {
  auto fs = FlagSet::Parse({"run", "--sede", "7"});
  ASSERT_TRUE(fs.ok());
  Status st = fs->CheckKnown({"seed"});
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("sede"), std::string::npos);
}

// --------------------------------------------------------------------------
// Commands
// --------------------------------------------------------------------------

TEST(CliTest, NoCommandPrintsUsage) {
  CliResult r = RunTool({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(CliTest, VersionCommand) {
  CliResult r = RunTool({"version"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("aseq 1.0.0"), std::string::npos);
  EXPECT_NE(r.out.find("SIGMOD 2014"), std::string::npos);
}

TEST(CliTest, UnknownCommand) {
  CliResult r = RunTool({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, RunOnStockStream) {
  CliResult r = RunTool({"run", "--query",
                     "PATTERN SEQ(DELL, IPIX) AGG COUNT WITHIN 1s", "--stock",
                     "2000", "--quiet"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("A-Seq(SEM)"), std::string::npos);
  EXPECT_NE(r.out.find("events:        2000"), std::string::npos);
}

TEST(CliTest, RunWithStackEngine) {
  CliResult r = RunTool({"run", "--query",
                     "PATTERN SEQ(DELL, IPIX) AGG COUNT WITHIN 1s", "--stock",
                     "1000", "--engine", "stack", "--quiet"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("StackBased"), std::string::npos);
}

TEST(CliTest, StackEngineBudgetExitsWithMessage) {
  // A 4-step pattern over a 10 s window retains hundreds of millions of
  // matches in the stack baseline; its live-match budget must end the run
  // with a message and a non-zero exit instead of an uncaught bad_alloc.
  CliResult r = RunTool({"run", "--engine", "stack", "--query",
                         "PATTERN SEQ(DELL, IPIX, AMAT, QQQ) AGG COUNT "
                         "WITHIN 10s",
                         "--stock", "3000"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("ResourceExhausted"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("live-match budget"), std::string::npos) << r.err;
}

TEST(CliTest, CountOverflowSaturatesAndIsFlagged) {
  // An 8-step ungrouped COUNT over a long window overflows int64 within a
  // few thousand events. No output may print a wrapped (negative) count:
  // saturated counts print as INT64_MAX and carry the overflow flag, which
  // also shows in the stats block and --stats-json.
  std::string stats = ::testing::TempDir() + "/aseq_cli_overflow_stats.json";
  CliResult r = RunTool(
      {"run", "--query",
       "PATTERN SEQ(DELL, IPIX, AMAT, QQQ, INTC, MSFT, CSCO, ORCL) AGG COUNT "
       "WITHIN 1000s",
       "--stock", "10000", "--limit", "100000", "--stats-json", stats});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.find("-> -"), std::string::npos) << "wrapped count printed";
  EXPECT_NE(r.out.find("-> 9223372036854775807 (overflow"), std::string::npos);
  EXPECT_NE(r.out.find("overflow:      match counts saturated"),
            std::string::npos);
  std::stringstream sbuf;
  sbuf << std::ifstream(stats).rdbuf();
  EXPECT_NE(sbuf.str().find("\"overflow\":true"), std::string::npos);
}

TEST(CliTest, RunWithSlackWrapsEngine) {
  CliResult r = RunTool({"run", "--query",
                     "PATTERN SEQ(DELL, IPIX) AGG COUNT WITHIN 1s", "--stock",
                     "1000", "--slack", "50", "--quiet"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("+KSlack"), std::string::npos);
}

TEST(CliTest, RunRequiresExactlyOneSource) {
  CliResult r = RunTool({"run", "--query", "PATTERN SEQ(A, B)"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("exactly one source"), std::string::npos);
  CliResult r2 = RunTool({"run", "--query", "PATTERN SEQ(A, B)", "--stock",
                      "10", "--clicks", "10"});
  EXPECT_EQ(r2.code, 1);
}

TEST(CliTest, RunRejectsBadQuery) {
  CliResult r = RunTool({"run", "--query", "SEQ(A, B)", "--stock", "10"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("ParseError"), std::string::npos);
}

TEST(CliTest, RunRejectsUnknownFlag) {
  CliResult r = RunTool({"run", "--query", "PATTERN SEQ(A, B)", "--stonk", "10"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--stonk"), std::string::npos);
}

TEST(CliTest, ExplainDescribesQuery) {
  CliResult r = RunTool(
      {"explain", "--query",
       "PATTERN SEQ(A, !X, B) WHERE A.id = X.id = B.id AGG COUNT WITHIN 5s"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("negation: !X resets the length-1 prefix"),
            std::string::npos);
  EXPECT_NE(r.out.find("equivalence on attribute 'id'"), std::string::npos);
  EXPECT_NE(r.out.find("A-Seq(HPC)"), std::string::npos);
}

TEST(CliTest, ExplainFlagsJoinQueries) {
  CliResult r = RunTool({"explain", "--query",
                     "PATTERN SEQ(A, B) WHERE A.x < B.x WITHIN 1s"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("StackBased (join predicates)"), std::string::npos);
}

TEST(CliTest, GenerateThenRunTrace) {
  std::string path = ::testing::TempDir() + "/aseq_cli_trace.csv";
  CliResult gen = RunTool({"generate", "--clicks", "500", "--out", path});
  EXPECT_EQ(gen.code, 0) << gen.err;
  EXPECT_NE(gen.out.find("wrote 500 events"), std::string::npos);

  CliResult run = RunTool({"run", "--query",
                       "PATTERN SEQ(ViewKindle, BuyKindle) AGG COUNT "
                       "WITHIN 10s",
                       "--trace", path, "--quiet"});
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("events:        500"), std::string::npos);
}

TEST(CliTest, DirectoryAsTraceFails) {
  CliResult r = RunTool({"run", "--query",
                         "PATTERN SEQ(DELL, IPIX) AGG COUNT WITHIN 1s",
                         "--trace", ::testing::TempDir(), "--quiet"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error reading trace file"), std::string::npos)
      << r.err;
  EXPECT_EQ(r.out.find("events:"), std::string::npos) << r.out;
}

TEST(CliTest, GenerateRequiresOut) {
  CliResult r = RunTool({"generate", "--clicks", "10"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--out"), std::string::npos);
}

TEST(CliTest, CompareAgreesAndReportsSpeedup) {
  CliResult r = RunTool({"compare", "--query",
                     "PATTERN SEQ(DELL, IPIX, AMAT) AGG COUNT WITHIN 500",
                     "--stock", "2000"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("result mismatches: 0"), std::string::npos);
  EXPECT_NE(r.out.find("speedup:"), std::string::npos);
}

TEST(CliTest, RunEmitOnChangeWrapsEngine) {
  CliResult r = RunTool({"run", "--query",
                         "PATTERN SEQ(DELL, IPIX) AGG COUNT WITHIN 1s",
                         "--stock", "1000", "--emit-on-change", "--quiet"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("+OnChange"), std::string::npos);
}

TEST(CliTest, WorkloadRunsAllStrategies) {
  std::string path = ::testing::TempDir() + "/aseq_cli_queries.txt";
  {
    std::ofstream f(path);
    f << "# a small prefix-sharing workload\n";
    f << "PATTERN SEQ(DELL, IPIX, AMAT) AGG COUNT WITHIN 1s\n";
    f << "PATTERN SEQ(DELL, IPIX, QQQ) AGG COUNT WITHIN 1s\n";
  }
  for (const char* strategy : {"nonshare", "sase", "pretree", "cc", "hybrid"}) {
    CliResult r = RunTool({"workload", "--queries", path, "--stock", "1500",
                           "--strategy", strategy});
    EXPECT_EQ(r.code, 0) << strategy << ": " << r.err;
    EXPECT_NE(r.out.find("queries:       2"), std::string::npos) << strategy;
    EXPECT_NE(r.out.find("Q1:"), std::string::npos) << strategy;
  }
}

TEST(CliTest, WorkloadStackBudgetExitsWithMessage) {
  // The multi-query wrappers around the stack baseline — every query under
  // `sase`, join queries under `hybrid` — surface its live-match budget
  // the same way `run --engine stack` does, instead of finishing with
  // truncated results.
  std::string sase = ::testing::TempDir() + "/aseq_cli_budget_sase.txt";
  {
    std::ofstream f(sase);
    f << "PATTERN SEQ(DELL, IPIX, AMAT, QQQ) AGG COUNT WITHIN 10s\n";
  }
  std::string hybrid = ::testing::TempDir() + "/aseq_cli_budget_hybrid.txt";
  {
    std::ofstream f(hybrid);
    f << "PATTERN SEQ(DELL, IPIX, AMAT, QQQ) WHERE DELL.traderId != "
         "QQQ.traderId AGG COUNT WITHIN 10s\n";
  }
  for (const auto& [strategy, path] :
       {std::pair{"sase", sase}, std::pair{"hybrid", hybrid}}) {
    CliResult r = RunTool({"workload", "--queries", path, "--stock", "3000",
                           "--strategy", strategy});
    EXPECT_EQ(r.code, 1) << strategy;
    EXPECT_NE(r.err.find("ResourceExhausted"), std::string::npos)
        << strategy << ": " << r.err;
    EXPECT_NE(r.err.find("live-match budget"), std::string::npos) << strategy;
  }
}

TEST(CliTest, WorkloadCountOverflowSaturatesAndIsFlagged) {
  // The 8-step query's count passes INT64_MAX within 10000 events (the
  // 4-step one never does). Chop-Connect splits it into two segments, so
  // its product of segment counts saturates too. No strategy may report a
  // wrapped (negative) count, and each flags the overflow in the stats
  // block and --stats-json.
  std::string path = ::testing::TempDir() + "/aseq_cli_overflow_queries.txt";
  {
    std::ofstream f(path);
    f << "PATTERN SEQ(DELL, IPIX, AMAT, QQQ, INTC, MSFT, CSCO, ORCL) AGG "
         "COUNT WITHIN 1000s\n";
    f << "PATTERN SEQ(INTC, MSFT, CSCO, ORCL) AGG COUNT WITHIN 1000s\n";
  }
  std::string stats = ::testing::TempDir() + "/aseq_cli_overflow_wl.json";
  for (const char* strategy : {"nonshare", "pretree", "cc", "hybrid"}) {
    CliResult r = RunTool({"workload", "--queries", path, "--stock", "10000",
                           "--strategy", strategy, "--stats-json", stats});
    ASSERT_EQ(r.code, 0) << strategy << ": " << r.err;
    EXPECT_EQ(r.out.find("last=-"), std::string::npos)
        << strategy << ": wrapped count reported";
    EXPECT_NE(r.out.find("Q1: 1020 results, last=9223372036854775807"),
              std::string::npos)
        << strategy;
    EXPECT_NE(r.out.find("overflow:      match counts saturated"),
              std::string::npos)
        << strategy;
    std::stringstream sbuf;
    sbuf << std::ifstream(stats).rdbuf();
    EXPECT_NE(sbuf.str().find("\"overflow\":true"), std::string::npos)
        << strategy;
  }
}

TEST(CliTest, WorkloadRejectsBadInputs) {
  CliResult no_file = RunTool({"workload", "--stock", "10"});
  EXPECT_EQ(no_file.code, 1);
  CliResult missing = RunTool(
      {"workload", "--queries", "/nonexistent/q.txt", "--stock", "10"});
  EXPECT_EQ(missing.code, 1);
  std::string path = ::testing::TempDir() + "/aseq_cli_badqueries.txt";
  {
    std::ofstream f(path);
    f << "NOT A QUERY\n";
  }
  CliResult bad = RunTool({"workload", "--queries", path, "--stock", "10"});
  EXPECT_EQ(bad.code, 1);
  EXPECT_NE(bad.err.find(":1:"), std::string::npos);  // line number reported
}

TEST(CliTest, EngineFlagsAreValidatedBeforeTheTraceIsRead) {
  // A bad --engine / --slack / --strategy must be reported as such, not
  // masked by the (missing) trace: flags are checked before any loading.
  const std::string missing_trace = "/nonexistent-dir/trace.csv";
  const std::string query =
      "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms";
  CliResult engine = RunTool({"run", "--query", query, "--trace",
                              missing_trace, "--engine", "bogus"});
  EXPECT_EQ(engine.code, 1);
  EXPECT_NE(engine.err.find("--engine"), std::string::npos) << engine.err;
  EXPECT_EQ(engine.err.find("IoError"), std::string::npos) << engine.err;

  CliResult slack = RunTool({"run", "--query", query, "--trace",
                             missing_trace, "--slack", "-5"});
  EXPECT_EQ(slack.code, 1);
  EXPECT_NE(slack.err.find("--slack"), std::string::npos) << slack.err;
  EXPECT_EQ(slack.err.find("IoError"), std::string::npos) << slack.err;

  std::string path = ::testing::TempDir() + "/aseq_cli_strategy_queries.txt";
  {
    std::ofstream f(path);
    f << query << "\n";
  }
  CliResult strategy = RunTool({"workload", "--queries", path, "--trace",
                                missing_trace, "--strategy", "bogus"});
  EXPECT_EQ(strategy.code, 1);
  EXPECT_NE(strategy.err.find("--strategy"), std::string::npos)
      << strategy.err;
  EXPECT_EQ(strategy.err.find("IoError"), std::string::npos) << strategy.err;
}

TEST(CliTest, LimitFlagIsValidatedBeforeTheTraceIsRead) {
  // A malformed or negative --limit is an InvalidArgument like every other
  // flag, reported before the (missing) trace is touched.
  const std::string query = "PATTERN SEQ(DELL, IPIX) AGG COUNT WITHIN 1s";
  for (const char* bad : {"abc", "-3"}) {
    CliResult r = RunTool({"run", "--query", query, "--trace",
                           "/nonexistent-dir/trace.csv", "--limit", bad});
    EXPECT_EQ(r.code, 1) << bad;
    EXPECT_NE(r.err.find("InvalidArgument"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("--limit"), std::string::npos) << r.err;
    EXPECT_EQ(r.err.find("IoError"), std::string::npos) << r.err;
  }
  CliResult ok = RunTool({"run", "--query", query, "--stock", "2000",
                          "--limit", "3"});
  EXPECT_EQ(ok.code, 0) << ok.err;
  EXPECT_NE(ok.out.find("earlier results omitted; --limit"),
            std::string::npos)
      << ok.out;
}

TEST(CliTest, FailedInvocationLeavesObservabilityFilesUntouched) {
  // Output sinks open only once every flag and input is valid: a run that
  // fails validation must not truncate files from an earlier run.
  const std::string metrics = ::testing::TempDir() + "/aseq_cli_keep.jsonl";
  const std::string trace = ::testing::TempDir() + "/aseq_cli_keep.json";
  const std::string original = "{\"type\":\"header\",\"keep\":true}\n";
  for (const std::string& file : {metrics, trace}) {
    std::ofstream f(file, std::ios::binary | std::ios::trunc);
    f << original;
  }
  auto contents = [](const std::string& file) {
    std::stringstream buf;
    buf << std::ifstream(file, std::ios::binary).rdbuf();
    return buf.str();
  };
  // --queries is missing.
  CliResult no_queries = RunTool({"workload", "--stock", "10", "--metrics-out",
                                  metrics, "--trace-out", trace});
  EXPECT_EQ(no_queries.code, 1);
  EXPECT_NE(no_queries.err.find("--queries"), std::string::npos)
      << no_queries.err;
  // The queries file does not parse.
  std::string bad = ::testing::TempDir() + "/aseq_cli_keep_bad.txt";
  {
    std::ofstream f(bad);
    f << "NOT A QUERY\n";
  }
  CliResult bad_queries = RunTool({"workload", "--queries", bad, "--stock",
                                   "10", "--metrics-out", metrics,
                                   "--trace-out", trace});
  EXPECT_EQ(bad_queries.code, 1);
  // The query itself does not parse.
  CliResult bad_query = RunTool({"run", "--query", "SEQ(A, B)", "--stock",
                                 "10", "--metrics-out", metrics,
                                 "--trace-out", trace});
  EXPECT_EQ(bad_query.code, 1);
  EXPECT_EQ(contents(metrics), original);
  EXPECT_EQ(contents(trace), original);
}

TEST(CliTest, CompareJoinQueryFallsBackToBaseline) {
  CliResult r = RunTool({"compare", "--query",
                     "PATTERN SEQ(DELL, IPIX) WHERE DELL.price < IPIX.price "
                     "AGG COUNT WITHIN 500",
                     "--stock", "1000"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.err.find("Unsupported"), std::string::npos);
  EXPECT_NE(r.out.find("StackBased"), std::string::npos);
}

// --------------------------------------------------------------------------
// Stats block ordering (golden) and observability flags
// --------------------------------------------------------------------------

// The `label:` prefixes of the stats block, in output order. Values vary
// with timing, labels must not: docs/internals.md §17 documents this order
// and downstream scrapers key on it.
std::vector<std::string> StatsLabels(const std::string& out) {
  std::vector<std::string> labels;
  std::istringstream in(out);
  std::string line;
  while (std::getline(in, line)) {
    const size_t colon = line.find(':');
    // Stats lines are exactly "<label>:<padding><value>" at top level;
    // skip output rows ("t=...") and indented per-query lines.
    if (colon == std::string::npos || line.empty() || line[0] == ' ' ||
        line.compare(0, 2, "t=") == 0) {
      continue;
    }
    labels.push_back(line.substr(0, colon));
  }
  return labels;
}

TEST(CliTest, StatsBlockGoldenOrderSerial) {
  CliResult r = RunTool({"run", "--query",
                         "PATTERN SEQ(DELL, IPIX) AGG COUNT WITHIN 1s",
                         "--stock", "2000", "--quiet"});
  ASSERT_EQ(r.code, 0) << r.err;
  const std::vector<std::string> expected = {
      "engine", "query", "events", "batch size", "results", "ms/slide",
      "peak objects", "admission"};
  EXPECT_EQ(StatsLabels(r.out), expected) << r.out;
}

TEST(CliTest, StatsBlockGoldenOrderShardedSupervised) {
  // Every conditional stats line at once: sharded + supervised +
  // checkpointing + overload policy + armed faults.
  std::string ckpt_dir = ::testing::TempDir() + "/aseq_cli_golden_ck";
  CliResult r = RunTool(
      {"run", "--query",
       "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms",
       "--stock", "4000", "--shards", "2", "--batch-size", "64",
       "--supervise", "--checkpoint-every", "1024", "--checkpoint-dir",
       ckpt_dir, "--overload-policy", "shed", "--fault-spec",
       "worker.op@0:200:crash", "--quiet"});
  ASSERT_EQ(r.code, 0) << r.err;
  const std::vector<std::string> expected = {
      "engine",      "query",     "events",   "batch size", "shards",
      "results",     "ms/slide",  "peak objects", "admission",
      "utilization", "dataplane", "supervisor",   "overload",
      "faults",      "checkpoints"};
  EXPECT_EQ(StatsLabels(r.out), expected) << r.out;
  // The utilization line carries the min/max busy + imbalance readout.
  EXPECT_NE(r.out.find("shard busy "), std::string::npos);
  EXPECT_NE(r.out.find("imbalance "), std::string::npos);
  // The injector is process-global; leaving it armed would add a "faults"
  // line to every later RunTool in this binary.
  fault::Injector::Global().Disarm();
}

TEST(CliTest, StatsBlockGoldenOrderWorkload) {
  std::string path = ::testing::TempDir() + "/aseq_cli_golden_queries.txt";
  {
    std::ofstream f(path);
    f << "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 1s\n";
    f << "PATTERN SEQ(DELL, AMAT) GROUP BY traderId AGG COUNT WITHIN 1s\n";
  }
  CliResult r = RunTool({"workload", "--queries", path, "--stock", "2000",
                         "--shards", "2", "--batch-size", "64"});
  ASSERT_EQ(r.code, 0) << r.err;
  const std::vector<std::string> expected = {
      "strategy", "queries", "events", "batch size", "shards", "ms/slide",
      "peak objects", "admission", "utilization", "dataplane"};
  EXPECT_EQ(StatsLabels(r.out), expected) << r.out;
}

TEST(CliTest, MetricsAndTraceFlagsProduceFiles) {
  std::string metrics = ::testing::TempDir() + "/aseq_cli_metrics.jsonl";
  std::string trace = ::testing::TempDir() + "/aseq_cli_trace.json";
  std::string stats = ::testing::TempDir() + "/aseq_cli_stats.json";
  CliResult r = RunTool(
      {"run", "--query",
       "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms",
       "--stock", "3000", "--shards", "2", "--batch-size", "64", "--quiet",
       "--metrics-out", metrics, "--metrics-every-ms", "10", "--trace-out",
       trace, "--stats-json", stats});
  ASSERT_EQ(r.code, 0) << r.err;
  std::ifstream mf(metrics);
  std::string first_line;
  ASSERT_TRUE(std::getline(mf, first_line));
  EXPECT_NE(first_line.find("\"type\":\"header\""), std::string::npos);
  EXPECT_NE(first_line.find("\"shards\":2"), std::string::npos);
  std::stringstream tbuf;
  tbuf << std::ifstream(trace).rdbuf();
  EXPECT_EQ(tbuf.str().front(), '[');
  EXPECT_NE(tbuf.str().find("\"name\":\"batch\""), std::string::npos);
  std::stringstream sbuf;
  sbuf << std::ifstream(stats).rdbuf();
  EXPECT_NE(sbuf.str().find("\"utilization\""), std::string::npos);
  EXPECT_NE(sbuf.str().find("\"events_processed\":3000"), std::string::npos);
}

TEST(CliTest, ObservabilityFlagValidation) {
  // --metrics-every-ms without a destination is a configuration error.
  CliResult orphan = RunTool({"run", "--query", "PATTERN SEQ(DELL, IPIX)",
                              "--stock", "10", "--quiet",
                              "--metrics-every-ms", "50"});
  EXPECT_EQ(orphan.code, 1);
  EXPECT_NE(orphan.err.find("--metrics-out"), std::string::npos);
  CliResult zero = RunTool({"run", "--query", "PATTERN SEQ(DELL, IPIX)",
                            "--stock", "10", "--quiet", "--metrics-out",
                            "/tmp/x.jsonl", "--metrics-every-ms", "0"});
  EXPECT_EQ(zero.code, 1);
  CliResult bad_dir = RunTool({"run", "--query", "PATTERN SEQ(DELL, IPIX)",
                               "--stock", "10", "--quiet", "--trace-out",
                               "/nonexistent-dir/t.json"});
  EXPECT_EQ(bad_dir.code, 1);
  EXPECT_NE(bad_dir.err.find("--trace-out"), std::string::npos);
}

}  // namespace
}  // namespace aseq
