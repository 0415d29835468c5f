// Malformed-trace robustness: every way a trace file can be damaged —
// truncated lines, non-numeric or overflowing timestamps, overflowing
// attribute values, bare attributes — must fail with a line-numbered
// ParseError, never crash, and never leave the caller's schema partially
// mutated (types from lines before the error must not leak in).
//
// The chunked file reader must agree with ParseTrace on the same text
// wherever a chunk boundary falls, and the from_chars-based number rules
// must agree with the strtoll/strtod rules they replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/string_util.h"
#include "stream/stock_stream.h"
#include "stream/trace_io.h"

namespace aseq {
namespace {

void ExpectParseErrorAtLine(const std::string& content, size_t lineno,
                            const std::string& fragment) {
  Schema schema;
  auto result = ParseTrace(content, &schema);
  ASSERT_FALSE(result.ok()) << "accepted: " << content;
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  const std::string& msg = result.status().message();
  EXPECT_NE(msg.find("line " + std::to_string(lineno)), std::string::npos)
      << "missing line number " << lineno << " in: " << msg;
  EXPECT_NE(msg.find(fragment), std::string::npos)
      << "missing '" << fragment << "' in: " << msg;
}

TEST(TraceRobustnessTest, ValidTraceParses) {
  Schema schema;
  auto result = ParseTrace(
      "# comment\n"
      "DELL,5,price=31.5,volume=100\n"
      "\n"
      "IPIX,9,price=27,note=hello\n",
      &schema);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 2u);
  EXPECT_EQ((*result)[0].ts(), 5);
  EXPECT_EQ((*result)[1].ts(), 9);
  EXPECT_EQ(schema.num_event_types(), 2u);
  EXPECT_EQ(schema.num_attributes(), 3u);
}

TEST(TraceRobustnessTest, TruncatedLine) {
  ExpectParseErrorAtLine("DELL,5\nIPIX\n", 2, "type,timestamp");
}

TEST(TraceRobustnessTest, NonNumericTimestamp) {
  ExpectParseErrorAtLine("DELL,banana\n", 1, "bad timestamp");
}

TEST(TraceRobustnessTest, TrailingGarbageInTimestamp) {
  ExpectParseErrorAtLine("DELL,12x\n", 1, "bad timestamp");
}

TEST(TraceRobustnessTest, TimestampOverflow) {
  ExpectParseErrorAtLine("DELL,99999999999999999999999\n", 1, "overflow");
}

TEST(TraceRobustnessTest, IntegerValueOverflow) {
  ExpectParseErrorAtLine("DELL,5,volume=99999999999999999999999\n", 1,
                         "overflow");
}

TEST(TraceRobustnessTest, DoubleValueOverflow) {
  ExpectParseErrorAtLine("DELL,5,price=" + std::string(400, '9') + ".5\n", 1,
                         "overflow");
}

TEST(TraceRobustnessTest, AttributeWithoutEquals) {
  ExpectParseErrorAtLine("DELL,5,price\n", 1, "attr=value");
}

TEST(TraceRobustnessTest, OutOfOrderTimestamps) {
  ExpectParseErrorAtLine("DELL,10\nIPIX,9\n", 2, "out-of-order");
}

TEST(TraceRobustnessTest, ErrorReportsCorrectLineSkippingComments) {
  ExpectParseErrorAtLine(
      "# header\n"
      "\n"
      "DELL,5\n"
      "IPIX,bad\n",
      4, "bad timestamp");
}

TEST(TraceRobustnessTest, FailedParseLeavesSchemaUntouched) {
  Schema schema;
  schema.RegisterEventType("EXISTING");
  // Two clean lines register DELL/IPIX and attributes before line 3 fails;
  // none of that may leak into the caller's schema.
  auto result = ParseTrace(
      "DELL,5,price=1\n"
      "IPIX,6,volume=2\n"
      "AMAT,bad\n",
      &schema);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(schema.num_event_types(), 1u)
      << "failed parse registered event types";
  EXPECT_EQ(schema.num_attributes(), 0u)
      << "failed parse registered attributes";
  EXPECT_TRUE(schema.FindEventType("DELL").status().code() ==
              StatusCode::kNotFound);
}

TEST(TraceRobustnessTest, SuccessfulParseCommitsSchema) {
  Schema schema;
  auto result = ParseTrace("DELL,5,price=1\n", &schema);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(schema.FindEventType("DELL").ok());
  EXPECT_TRUE(schema.FindAttribute("price").ok());
}

TEST(TraceRobustnessTest, MissingFileIsIoError) {
  Schema schema;
  auto result = ReadTraceFile("/nonexistent/trace.txt", &schema);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(TraceRobustnessTest, DirectoryIsIoError) {
  Schema schema;
  auto result = ReadTraceFile(::testing::TempDir(), &schema);
  ASSERT_FALSE(result.ok()) << "a directory read as a trace";
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("error reading trace file"),
            std::string::npos)
      << result.status().message();
}

TEST(TraceRobustnessTest, ValuesRoundTripThroughFormat) {
  Schema schema;
  auto parsed = ParseTrace(
      "DELL,5,price=31.25,volume=100,note=plain\n", &schema);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::string formatted = FormatTrace(*parsed, schema);
  Schema schema2;
  auto reparsed = ParseTrace(formatted, &schema2);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(reparsed->size(), 1u);
  const Event& e = (*reparsed)[0];
  EXPECT_EQ(e.FindAttr(*schema2.FindAttribute("price"))->AsDouble(), 31.25);
  EXPECT_EQ(e.FindAttr(*schema2.FindAttribute("volume"))->AsInt64(), 100);
  EXPECT_EQ(e.FindAttr(*schema2.FindAttribute("note"))->AsString(), "plain");
}

// --------------------------------------------------------------------------
// Chunk boundaries: ReadTraceFile == ParseTrace of the same text
// --------------------------------------------------------------------------

std::string WriteTempFile(const std::string& name, const std::string& text) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream(path, std::ios::binary) << text;
  return path;
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

void ExpectSameValue(const Value& a, const Value& b) {
  ASSERT_EQ(a.type(), b.type());
  switch (a.type()) {
    case ValueType::kInt64:
      EXPECT_EQ(a.AsInt64(), b.AsInt64());
      break;
    case ValueType::kDouble:
      EXPECT_EQ(DoubleBits(a.AsDouble()), DoubleBits(b.AsDouble()));
      break;
    case ValueType::kString:
      EXPECT_EQ(a.AsString(), b.AsString());
      break;
    case ValueType::kNull:
      break;
  }
}

/// Reads `text` through a file and through ParseTrace: both must accept it
/// with identical events and schemas, or reject it with the same error.
/// Returns the number of events.
size_t ExpectFileMatchesString(const std::string& name,
                               const std::string& text) {
  std::string path = WriteTempFile(name, text);
  Schema from_file, from_string;
  auto file = ReadTraceFile(path, &from_file);
  auto str = ParseTrace(text, &from_string);
  EXPECT_EQ(file.ok(), str.ok());
  if (!file.ok() || !str.ok()) {
    EXPECT_EQ(file.status().ToString(), str.status().ToString());
    return 0;
  }
  EXPECT_EQ(from_file.num_event_types(), from_string.num_event_types());
  EXPECT_EQ(from_file.num_attributes(), from_string.num_attributes());
  for (AttrId a = 0; a < from_string.num_attributes(); ++a) {
    EXPECT_EQ(from_file.AttributeName(a), from_string.AttributeName(a));
  }
  EXPECT_EQ(file->size(), str->size());
  for (size_t i = 0; i < std::min(file->size(), str->size()); ++i) {
    const Event& f = (*file)[i];
    const Event& s = (*str)[i];
    EXPECT_EQ(from_file.EventTypeName(f.type()),
              from_string.EventTypeName(s.type()));
    EXPECT_EQ(f.ts(), s.ts());
    EXPECT_EQ(f.attrs().size(), s.attrs().size()) << "event " << i;
    if (f.attrs().size() != s.attrs().size()) continue;
    for (size_t k = 0; k < f.attrs().size(); ++k) {
      EXPECT_EQ(f.attrs()[k].first, s.attrs()[k].first);
      ExpectSameValue(f.attrs()[k].second, s.attrs()[k].second);
    }
  }
  return str->size();
}

/// Appends one comment line so that `text` ends exactly at `offset`.
void PadTo(std::string* text, size_t offset) {
  ASSERT_GE(offset, text->size() + 2);
  size_t len = offset - text->size();
  *text += '#';
  text->append(len - 2, 'x');
  *text += '\n';
}

constexpr size_t kChunk = kTraceChunkBytes;

TEST(TraceChunkTest, GeneratedTraceLargerThanChunk) {
  Schema schema;
  StockStreamOptions options;
  options.seed = 7;
  options.num_events = 120000;
  std::string text = FormatTrace(GenerateStockStream(options, &schema), schema);
  ASSERT_GT(text.size(), kChunk);
  EXPECT_EQ(ExpectFileMatchesString("chunk_generated.csv", text), 120000u);
}

TEST(TraceChunkTest, LineStraddlesBoundary) {
  std::string text = "DELL,1,price=1.5\n";
  PadTo(&text, kChunk - 10);
  text += "IPIX,2,price=27.25,volume=300,note=straddle\nAMAT,3\n";
  EXPECT_EQ(ExpectFileMatchesString("chunk_straddle.csv", text), 3u);
}

TEST(TraceChunkTest, NewlineOnEitherSideOfBoundary) {
  const std::string line = "IPIX,2,volume=9\n";
  for (size_t end : {kChunk, kChunk + 1}) {
    std::string text = "DELL,1\n";
    PadTo(&text, end - line.size());
    text += line;
    text += "AMAT,3,volume=4\n";
    EXPECT_EQ(ExpectFileMatchesString("chunk_newline.csv", text), 3u)
        << "line ending at " << end;
  }
}

TEST(TraceChunkTest, CommentAndBlankLinesAtBoundary) {
  std::string text = "DELL,1\n";
  PadTo(&text, kChunk - 5);
  text += "# a comment across the boundary\n\n   \n";
  text += "IPIX,2,volume=9\n";
  EXPECT_EQ(ExpectFileMatchesString("chunk_comment.csv", text), 2u);

  text = "DELL,1\n";
  PadTo(&text, kChunk - 1);
  text += "\n\nIPIX,2\n";  // blank lines on both sides of the boundary
  EXPECT_EQ(ExpectFileMatchesString("chunk_blank.csv", text), 2u);
}

TEST(TraceChunkTest, LastLineWithoutNewline) {
  std::string text = "DELL,1\n";
  PadTo(&text, kChunk - 4);
  text += "IPIX,2,price=3.5,note=last";
  EXPECT_EQ(ExpectFileMatchesString("chunk_no_newline.csv", text), 2u);
}

TEST(TraceChunkTest, CrlfLineEndings) {
  std::string text = "DELL,1,price=1.5\r\n";
  const std::string line = "IPIX,2,note=crlf\r\n";
  // The line's "\r" ends the first chunk and its "\n" starts the second.
  PadTo(&text, kChunk + 1 - line.size());
  text += line;
  text += "AMAT,3,volume=4\r\nMSFT,4\r\n";
  ASSERT_EQ(text.substr(kChunk - 1, 2), "\r\n");
  EXPECT_EQ(ExpectFileMatchesString("chunk_crlf.csv", text), 4u);
  Schema schema;
  auto events = ReadTraceFile(::testing::TempDir() + "/chunk_crlf.csv",
                              &schema);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  EXPECT_EQ((*events)[1].GetAttr(*schema.FindAttribute("note")).AsString(),
            "crlf");
}

TEST(TraceChunkTest, LineLongerThanChunk) {
  std::string text = "DELL,1\n";
  text += "IPIX,2,volume=7,note=" + std::string(2 * kChunk + 17, 'y') +
          ",price=2.5\n";
  text += "AMAT,3\n";
  EXPECT_EQ(ExpectFileMatchesString("chunk_long_line.csv", text), 3u);
  Schema schema;
  auto events = ReadTraceFile(::testing::TempDir() + "/chunk_long_line.csv",
                              &schema);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  const Value& note = (*events)[1].GetAttr(*schema.FindAttribute("note"));
  EXPECT_EQ(note.AsString().size(), 2 * kChunk + 17);
}

TEST(TraceChunkTest, ErrorPastFirstChunkReportsLineNumber) {
  std::string text;
  size_t lines = 0;
  for (int64_t ts = 1; text.size() < kChunk + 1000; ++ts) {
    text += "DELL," + std::to_string(ts) + ",price=1.5,volume=3\n";
    ++lines;
    if (ts % 100 == 0) {
      text += "# comment\n\n";
      lines += 2;
    }
  }
  text += "IPIX,bad\nAMAT,1\n";
  std::string path = WriteTempFile("chunk_error.csv", text);
  Schema schema;
  auto result = ReadTraceFile(path, &schema);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().message(),
            "trace line " + std::to_string(lines + 1) +
                ": bad timestamp 'bad'");
  EXPECT_EQ(schema.num_event_types(), 0u);
  ExpectFileMatchesString("chunk_error.csv", text);
}

// --------------------------------------------------------------------------
// Token differential: the from_chars rules vs the strtoll/strtod rules
// --------------------------------------------------------------------------

/// The value-token rules as they were written with strtoll/strtod.
Status OracleValueToken(std::string_view token, Value* out) {
  if (token.empty()) {
    *out = Value();
    return Status::OK();
  }
  bool digits = false, dot = false, other = false;
  size_t start = (token[0] == '-' || token[0] == '+') ? 1 : 0;
  if (start == token.size()) other = true;
  for (size_t i = start; i < token.size(); ++i) {
    char c = token[i];
    if (std::isdigit(static_cast<unsigned char>(c))) {
      digits = true;
    } else if (c == '.' && !dot) {
      dot = true;
    } else {
      other = true;
      break;
    }
  }
  std::string s(token);
  if (!other && digits && !dot) {
    errno = 0;
    long long v = std::strtoll(s.c_str(), nullptr, 10);
    if (errno == ERANGE) {
      return Status::ParseError("integer value '" + s +
                                "' overflows 64-bit range");
    }
    *out = Value(static_cast<int64_t>(v));
    return Status::OK();
  }
  if (!other && digits && dot) {
    errno = 0;
    double v = std::strtod(s.c_str(), nullptr);
    if (errno == ERANGE && std::isinf(v)) {
      return Status::ParseError("numeric value '" + s +
                                "' overflows double range");
    }
    *out = Value(v);
    return Status::OK();
  }
  *out = Value(s);
  return Status::OK();
}

/// The timestamp rules as they were written with strtoll.
Result<int64_t> OracleTimestamp(const std::string& ts_str) {
  char* end = nullptr;
  errno = 0;
  int64_t ts = std::strtoll(ts_str.c_str(), &end, 10);
  if (end == ts_str.c_str() || *end != '\0') {
    return Status::ParseError("trace line 1: bad timestamp '" + ts_str + "'");
  }
  if (errno == ERANGE) {
    return Status::ParseError("trace line 1: timestamp '" + ts_str +
                              "' overflows 64-bit range");
  }
  return ts;
}

void ExpectValueMatchesOracle(const std::string& token) {
  SCOPED_TRACE("value token '" + token + "'");
  Value want;
  Status oracle = OracleValueToken(TrimWhitespace(token), &want);
  Schema schema;
  auto got = ParseTrace("T,1,v=" + token + "\n", &schema);
  ASSERT_EQ(got.ok(), oracle.ok()) << got.status().ToString();
  if (!oracle.ok()) {
    EXPECT_EQ(got.status().message(), "trace line 1: " + oracle.message());
    return;
  }
  ExpectSameValue((*got)[0].GetAttr(0), want);
}

void ExpectTimestampMatchesOracle(const std::string& token) {
  SCOPED_TRACE("timestamp token '" + token + "'");
  auto want = OracleTimestamp(std::string(TrimWhitespace(token)));
  Schema schema;
  auto got = ParseTrace("T," + token + "\n", &schema);
  ASSERT_EQ(got.ok(), want.ok()) << got.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().message(), want.status().message());
    return;
  }
  EXPECT_EQ((*got)[0].ts(), *want);
}

TEST(TraceTokenTest, NamedValueCases) {
  for (const std::string& token : std::vector<std::string>{
           "+5", "+.5", ".5", "5.", "-.5", "-0.0", "-0", "007", "1e5",
           "1.2.3", "-", "+", ".", "-.", "+-5", "--5", "abc",
           "12345678901234567", "0.12345678901234567891",
           "123456789012345678901234567890.5", "9007199254740993.0",
           "9223372036854775807", "-9223372036854775808",
           "9223372036854775808", "-9223372036854775809",
           std::string(400, '9'), std::string(400, '9') + ".5",
           "0." + std::string(310, '0') + "5",    // subnormal
           "0." + std::string(400, '0') + "1",    // underflows to zero
           "-0." + std::string(400, '0') + "1",
           "1" + std::string(309, '0') + ".0",   // overflows double
           "17976931348623157" + std::string(292, '0') + ".0",  // DBL_MAX
       }) {
    ExpectValueMatchesOracle(token);
  }
}

TEST(TraceTokenTest, NamedTimestampCases) {
  for (const std::string& token : std::vector<std::string>{
           "+7", "+-5", "- 5", "-5", "0", "+", "-", "", "7x", "+ 7",
           "9223372036854775807", "-9223372036854775808",
           "9223372036854775808", std::string(400, '9'),
           std::string(400, '9') + "x", std::string("12\0x", 4),
       }) {
    ExpectTimestampMatchesOracle(token);
  }
}

TEST(TraceTokenTest, RandomTokensMatchOracle) {
  std::mt19937_64 rng(20140622);
  const std::string numeric = "0123456789";
  const std::string mixed = "0123456789.+-e";
  auto pick = [&rng](const std::string& from) {
    return from[std::uniform_int_distribution<size_t>(0, from.size() - 1)(
        rng)];
  };
  for (int i = 0; i < 20000; ++i) {
    std::string token;
    size_t len = std::uniform_int_distribution<size_t>(1, 28)(rng);
    if (i % 2 == 0) {
      // Well-formed numbers: sign, digits, at most one dot.
      int sign = static_cast<int>(rng() % 3);
      if (sign == 1) token += '-';
      if (sign == 2) token += '+';
      size_t dot_at = rng() % 2 == 0 ? len : rng() % len;
      for (size_t k = 0; k < len; ++k) {
        token += k == dot_at ? '.' : pick(numeric);
      }
    } else {
      for (size_t k = 0; k < len; ++k) token += pick(mixed);
    }
    ExpectValueMatchesOracle(token);
    if (i % 4 < 2) ExpectTimestampMatchesOracle(token);
    if (::testing::Test::HasFailure()) break;
  }
}

}  // namespace
}  // namespace aseq
