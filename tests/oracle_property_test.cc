#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "aseq/aseq_engine.h"
#include "baseline/naive_enumerator.h"
#include "baseline/stack_engine.h"
#include "common/rng.h"
#include "engine/runtime.h"
#include "query/analyzer.h"

namespace aseq {
namespace {

/// Randomized stream: types A..E plus X/Y (used as negated types), attrs
/// `id` (small int domain), `w` (double in [0.5, 10.5]), `ip` (two values).
std::vector<Event> RandomStream(Schema* schema, uint64_t seed, size_t n) {
  static const char* kTypes[] = {"A", "B", "C", "D", "E", "X", "Y"};
  Rng rng(seed);
  std::vector<Event> events;
  Timestamp ts = 0;
  AttrId id = schema->RegisterAttribute("id");
  AttrId w = schema->RegisterAttribute("w");
  AttrId ip = schema->RegisterAttribute("ip");
  for (size_t i = 0; i < n; ++i) {
    ts += rng.NextInt(0, 300);
    Event e(schema->RegisterEventType(kTypes[rng.NextUInt(7)]), ts);
    e.SetAttr(id, Value(rng.NextInt(0, 2)));
    e.SetAttr(w, Value(0.5 + rng.NextDouble() * 10));
    e.SetAttr(ip, Value(rng.NextBool(0.5) ? "p" : "q"));
    // Occasionally omit attributes to exercise missing-attr paths.
    if (rng.NextBool(0.05)) {
      Event bare(e.type(), e.ts());
      e = bare;
    }
    events.push_back(std::move(e));
  }
  AssignSeqNums(&events);
  return events;
}

/// Canonical (group -> value) map with zero/undefined entries dropped.
std::map<std::string, Value> Canonical(const std::vector<Output>& outputs) {
  std::map<std::string, Value> out;
  for (const Output& output : outputs) {
    if (output.value.is_null()) continue;
    if (output.value.type() == ValueType::kInt64 &&
        output.value.AsInt64() == 0) {
      continue;
    }
    if (output.value.type() == ValueType::kDouble &&
        output.value.AsDouble() == 0.0) {
      continue;
    }
    std::string key =
        output.group.has_value() ? output.group->ToString() : "<all>";
    out[key] = output.value;
  }
  return out;
}

bool ValuesClose(const Value& a, const Value& b) {
  if (a.type() == ValueType::kInt64 && b.type() == ValueType::kInt64) {
    return a.AsInt64() == b.AsInt64();
  }
  if (a.is_numeric() && b.is_numeric()) {
    double x = a.ToDouble(), y = b.ToDouble();
    double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
    return std::fabs(x - y) <= 1e-9 * scale;
  }
  return a.Equals(b);
}

void ExpectSame(const std::map<std::string, Value>& expected,
                const std::map<std::string, Value>& actual,
                const std::string& context) {
  EXPECT_EQ(expected.size(), actual.size()) << context;
  for (const auto& [key, value] : expected) {
    auto it = actual.find(key);
    if (it == actual.end()) {
      ADD_FAILURE() << context << ": missing group " << key << " (expected "
                    << value.ToString() << ")";
      continue;
    }
    EXPECT_TRUE(ValuesClose(value, it->second))
        << context << ": group " << key << " expected " << value.ToString()
        << " got " << it->second.ToString();
  }
}

struct PropertyCase {
  std::string label;
  std::string query;
  bool aseq_supported = true;  // join-predicate queries run baseline-only
};

class OraclePropertyTest
    : public ::testing::TestWithParam<
          std::tuple<PropertyCase, uint64_t, size_t>> {};

TEST_P(OraclePropertyTest, EnginesMatchBruteForce) {
  const PropertyCase& pc = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());
  const size_t stream_len = std::get<2>(GetParam());

  Schema schema;
  std::vector<Event> events = RandomStream(&schema, seed, stream_len);
  Analyzer analyzer(&schema);
  auto compiled = analyzer.AnalyzeText(pc.query);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  NaiveEnumerator oracle(*compiled);
  StackEngine stack(*compiled);
  std::unique_ptr<QueryEngine> aseq;
  if (pc.aseq_supported) {
    auto engine = CreateAseqEngine(*compiled);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    aseq = std::move(*engine);
  }

  std::vector<Output> scratch;
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    std::string context = pc.label + " seed=" + std::to_string(seed) +
                          " event#" + std::to_string(i);
    auto oracle_outputs = oracle.Aggregate(events, i, e.ts());
    ASSERT_TRUE(oracle_outputs.ok()) << oracle_outputs.status().ToString();
    std::map<std::string, Value> expected = Canonical(*oracle_outputs);

    scratch.clear();
    stack.OnEvent(e, &scratch);
    ExpectSame(expected, Canonical(stack.Poll(e.ts())), context + " [stack]");

    if (aseq != nullptr) {
      scratch.clear();
      aseq->OnEvent(e, &scratch);
      ExpectSame(expected, Canonical(aseq->Poll(e.ts())),
                 context + " [aseq:" + aseq->name() + "]");
      // TRIG outputs must agree with the oracle at trigger time too.
      for (const Output& output : scratch) {
        if (output.value.is_null()) continue;
        std::string key =
            output.group.has_value() ? output.group->ToString() : "<all>";
        auto it = expected.find(key);
        Value expected_value =
            it != expected.end() ? it->second : output.value;
        if (it == expected.end()) {
          // Zero/undefined outputs were filtered from `expected`: the
          // engine's value must then be zero-ish.
          bool zeroish =
              (output.value.type() == ValueType::kInt64 &&
               output.value.AsInt64() == 0) ||
              (output.value.type() == ValueType::kDouble &&
               output.value.AsDouble() == 0.0);
          EXPECT_TRUE(zeroish) << context << " [trig] group " << key
                               << " got " << output.value.ToString();
        } else {
          EXPECT_TRUE(ValuesClose(expected_value, output.value))
              << context << " [trig] group " << key << " expected "
              << expected_value.ToString() << " got "
              << output.value.ToString();
        }
      }
    }
    if (HasFatalFailure() || HasNonfatalFailure()) {
      return;  // first divergence is enough; keep logs short
    }
  }
}

std::vector<PropertyCase> Cases() {
  return {
      {"basic3", "PATTERN SEQ(A, B, C) WITHIN 700"},
      {"unbounded", "PATTERN SEQ(A, B)"},
      {"len1", "PATTERN SEQ(A) WITHIN 400"},
      {"len4", "PATTERN SEQ(A, B, C, D) WITHIN 1200"},
      {"neg_mid", "PATTERN SEQ(A, !X, B, C) WITHIN 900"},
      {"neg_late", "PATTERN SEQ(A, B, !X, C) WITHIN 600"},
      {"neg_two", "PATTERN SEQ(A, !X, B, !Y, C) WITHIN 900"},
      {"neg_unbounded", "PATTERN SEQ(A, !X, B)"},
      {"dup", "PATTERN SEQ(A, A, B) WITHIN 800"},
      {"dup_sandwich", "PATTERN SEQ(A, B, A) WITHIN 800"},
      {"equiv", "PATTERN SEQ(A, B) WHERE A.id = B.id WITHIN 700"},
      {"equiv3", "PATTERN SEQ(A, B, C) WHERE A.id = B.id = C.id WITHIN 900"},
      {"group", "PATTERN SEQ(A, B) GROUP BY ip AGG COUNT WITHIN 800"},
      {"group_equiv",
       "PATTERN SEQ(A, B) WHERE A.id = B.id GROUP BY ip WITHIN 800"},
      {"neg_in_class",
       "PATTERN SEQ(A, !X, B) WHERE A.id = X.id = B.id WITHIN 700"},
      {"neg_broadcast",
       "PATTERN SEQ(A, !X, B) WHERE A.id = B.id WITHIN 700"},
      {"sum", "PATTERN SEQ(A, B, C) AGG SUM(B.w) WITHIN 800"},
      {"sum_start", "PATTERN SEQ(A, B) AGG SUM(A.w) WITHIN 700"},
      {"avg", "PATTERN SEQ(A, B, C) AGG AVG(C.w) WITHIN 800"},
      {"max", "PATTERN SEQ(A, B) AGG MAX(A.w) WITHIN 600"},
      {"min_neg", "PATTERN SEQ(A, !X, B, C) AGG MIN(B.w) WITHIN 800"},
      {"max_trig", "PATTERN SEQ(A, B, C) AGG MAX(C.w) WITHIN 700"},
      {"local", "PATTERN SEQ(A, B) WHERE A.w < 5 WITHIN 700"},
      {"local_both",
       "PATTERN SEQ(A, B) WHERE A.w < 8 AND B.w > 2 WITHIN 700"},
      {"group_sum",
       "PATTERN SEQ(A, B, C) GROUP BY id AGG SUM(B.w) WITHIN 900"},
      {"group_neg",
       "PATTERN SEQ(A, !X, B) GROUP BY ip AGG COUNT WITHIN 800"},
      {"equiv_two_attrs",
       "PATTERN SEQ(A, B) WHERE A.id = B.id AND A.ip = B.ip WITHIN 700"},
      {"group_unbounded", "PATTERN SEQ(A, B) GROUP BY ip AGG COUNT"},
      {"sum_unbounded", "PATTERN SEQ(A, B) AGG SUM(B.w)"},
      {"group_neg_equiv",
       "PATTERN SEQ(A, !X, B) WHERE A.id = B.id GROUP BY ip WITHIN 600"},
      {"join", "PATTERN SEQ(A, B) WHERE A.w < B.w WITHIN 700", false},
      {"join_ne", "PATTERN SEQ(A, B) WHERE A.id != B.id WITHIN 700", false},
      {"join_three",
       "PATTERN SEQ(A, B, C) WHERE A.w < B.w AND B.w < C.w WITHIN 800",
       false},
  };
}

std::string CaseName(
    const ::testing::TestParamInfo<std::tuple<PropertyCase, uint64_t, size_t>>&
        info) {
  return std::get<0>(info.param).label + "_s" +
         std::to_string(std::get<1>(info.param)) + "_n" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Randomized, OraclePropertyTest,
    ::testing::Combine(::testing::ValuesIn(Cases()),
                       ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                         12),
                       ::testing::Values(30)),
    CaseName);

// Longer streams at fewer seeds: more matches per window, more expirations
// per run (the brute-force oracle is exponential in stream length, so keep
// this sweep narrow).
INSTANTIATE_TEST_SUITE_P(
    RandomizedLong, OraclePropertyTest,
    ::testing::Combine(::testing::ValuesIn(Cases()),
                       ::testing::Values(101, 102, 103),
                       ::testing::Values(45)),
    CaseName);

}  // namespace
}  // namespace aseq
