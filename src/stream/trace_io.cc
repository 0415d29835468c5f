#include "stream/trace_io.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string_view>
#include <utility>

#include "common/string_util.h"

namespace aseq {

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// strtoll/strtod accept a leading '+'; std::from_chars does not. Drops it
/// only where a number can follow, so "+-5" still fails as it did.
std::string_view StripPlus(std::string_view s) {
  if (s.size() > 1 && s[0] == '+' && (IsDigit(s[1]) || s[1] == '.')) {
    s.remove_prefix(1);
  }
  return s;
}

/// Parses a CSV value token into the narrowest matching Value type.
/// Numeric-looking tokens that overflow their type are an error — silently
/// saturating to INT64_MAX/inf would corrupt aggregates downstream.
Status ParseValueToken(std::string_view token, Value* out) {
  if (token.empty()) {
    *out = Value();
    return Status::OK();
  }
  bool digits = false, dot = false, other = false;
  size_t start = (token[0] == '-' || token[0] == '+') ? 1 : 0;
  if (start == token.size()) other = true;
  for (size_t i = start; i < token.size(); ++i) {
    char c = token[i];
    if (IsDigit(c)) {
      digits = true;
    } else if (c == '.' && !dot) {
      dot = true;
    } else {
      other = true;
      break;
    }
  }
  if (other || !digits) {
    *out = Value(std::string(token));
    return Status::OK();
  }
  std::string_view num = StripPlus(token);
  const char* end = num.data() + num.size();
  if (!dot) {
    int64_t v = 0;
    if (std::from_chars(num.data(), end, v).ec ==
        std::errc::result_out_of_range) {
      return Status::ParseError("integer value '" + std::string(token) +
                                "' overflows 64-bit range");
    }
    *out = Value(v);
    return Status::OK();
  }
  double v = 0;
  auto [ptr, ec] = std::from_chars(num.data(), end, v);
  if (ec != std::errc() || ptr != end) {
    // from_chars reports an underflow as out-of-range too. strtod keeps
    // the established rule: an underflow parses (to a subnormal or zero),
    // only an overflow to infinity is an error.
    std::string s(token);
    errno = 0;
    v = std::strtod(s.c_str(), nullptr);
    if (errno == ERANGE && std::isinf(v)) {
      return Status::ParseError("numeric value '" + s +
                                "' overflows double range");
    }
  }
  *out = Value(v);
  return Status::OK();
}

/// The single-pass line scanner behind ParseTrace and ReadTraceFile. All
/// registrations go into a staging copy of the caller's schema that Finish
/// commits, so a malformed line never leaves the caller's schema with half
/// the file's types/attributes registered.
class TraceParser {
 public:
  explicit TraceParser(const Schema& schema) : staging_(schema) {}

  /// Parses the '\n'-terminated lines at the front of `*text` and drops
  /// them from it; what is left is an incomplete last line.
  Status ParseCompleteLines(std::string_view* text) {
    const char* p = text->data();
    const char* end = p + text->size();
    while (const void* nl = std::memchr(p, '\n', end - p)) {
      const char* eol = static_cast<const char*>(nl);
      ASEQ_RETURN_NOT_OK(ParseLine(std::string_view(p, eol - p)));
      p = eol + 1;
    }
    *text = std::string_view(p, end - p);
    return Status::OK();
  }

  /// Parses one line, given without its '\n'. Every call counts toward the
  /// line numbers in errors, blank and comment lines included.
  Status ParseLine(std::string_view raw);

  std::vector<Event> Finish(Schema* schema) && {
    *schema = std::move(staging_);
    return std::move(events_);
  }

 private:
  Status LineError(const std::string& what) const {
    return Status::ParseError("trace line " + std::to_string(lineno_) + ": " +
                              what);
  }

  Schema staging_;
  std::vector<Event> events_;
  size_t lineno_ = 0;
  Timestamp prev_ts_ = INT64_MIN;
};

Status TraceParser::ParseLine(std::string_view raw) {
  ++lineno_;
  std::string_view line = TrimWhitespace(raw);
  if (line.empty() || line[0] == '#') return Status::OK();
  size_t comma = line.find(',');
  if (comma == std::string_view::npos) {
    return LineError("expected 'type,timestamp[,attr=value]...'");
  }
  EventTypeId type =
      staging_.RegisterEventType(TrimWhitespace(line.substr(0, comma)));
  std::string_view rest = line.substr(comma + 1);
  comma = rest.find(',');
  std::string_view ts_token = TrimWhitespace(rest.substr(0, comma));
  // Accept exactly what strtoll(ts, &end, 10) with *end == '\0' accepted,
  // which stopped at an embedded NUL byte.
  std::string_view digits = StripPlus(ts_token.substr(0, ts_token.find('\0')));
  const char* digits_end = digits.data() + digits.size();
  Timestamp ts = 0;
  auto [ptr, ec] = std::from_chars(digits.data(), digits_end, ts);
  if (ec == std::errc::invalid_argument || ptr != digits_end) {
    return LineError("bad timestamp '" + std::string(ts_token) + "'");
  }
  if (ec == std::errc::result_out_of_range) {
    return LineError("timestamp '" + std::string(ts_token) +
                     "' overflows 64-bit range");
  }
  if (ts < prev_ts_) {
    return LineError(
        "out-of-order timestamp (the stream must be in arrival order)");
  }
  prev_ts_ = ts;
  Event& e = events_.emplace_back(type, ts);
  if (comma == std::string_view::npos) return Status::OK();
  std::string_view attrs = rest.substr(comma + 1);
  e.ReserveAttrs(std::count(attrs.begin(), attrs.end(), ',') + 1);
  while (true) {
    comma = attrs.find(',');
    std::string_view field = TrimWhitespace(attrs.substr(0, comma));
    if (!field.empty()) {
      size_t eq = field.find('=');
      if (eq == std::string_view::npos) {
        return LineError("expected attr=value, got '" + std::string(field) +
                         "'");
      }
      AttrId attr =
          staging_.RegisterAttribute(TrimWhitespace(field.substr(0, eq)));
      Value value;
      Status parsed =
          ParseValueToken(TrimWhitespace(field.substr(eq + 1)), &value);
      if (!parsed.ok()) return LineError(parsed.message());
      e.SetAttr(attr, std::move(value));
    }
    if (comma == std::string_view::npos) return Status::OK();
    attrs.remove_prefix(comma + 1);
  }
}

void AppendTraceLine(const Event& e, const Schema& schema, std::string* out) {
  *out += schema.EventTypeName(e.type());
  *out += ',';
  *out += std::to_string(e.ts());
  for (const auto& [attr, value] : e.attrs()) {
    *out += ',';
    *out += schema.AttributeName(attr);
    *out += '=';
    *out += value.ToString();
  }
  *out += '\n';
}

}  // namespace

Result<std::vector<Event>> ParseTrace(const std::string& content,
                                      Schema* schema) {
  TraceParser parser(*schema);
  std::string_view text = content;
  ASEQ_RETURN_NOT_OK(parser.ParseCompleteLines(&text));
  if (!text.empty()) ASEQ_RETURN_NOT_OK(parser.ParseLine(text));
  return std::move(parser).Finish(schema);
}

Result<std::vector<Event>> ReadTraceFile(const std::string& path,
                                         Schema* schema) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (file == nullptr) {
    return Status::IoError("cannot open trace file: " + path);
  }
  TraceParser parser(*schema);
  // Left uninitialized: a short file touches only the pages it fills.
  size_t capacity = kTraceChunkBytes;
  auto buf = std::make_unique_for_overwrite<char[]>(capacity);
  size_t carry = 0;  // bytes of an incomplete line at the front of buf
  while (true) {
    // Only a line longer than the whole buffer fills it without a '\n'.
    if (carry == capacity) {
      auto grown = std::make_unique_for_overwrite<char[]>(capacity * 2);
      std::memcpy(grown.get(), buf.get(), carry);
      buf = std::move(grown);
      capacity *= 2;
    }
    size_t n = std::fread(buf.get() + carry, 1, capacity - carry, file.get());
    if (n == 0) {
      if (std::ferror(file.get())) {
        return Status::IoError("error reading trace file: " + path + ": " +
                               std::strerror(errno));
      }
      break;
    }
    std::string_view text(buf.get(), carry + n);
    ASEQ_RETURN_NOT_OK(parser.ParseCompleteLines(&text));
    std::memmove(buf.get(), text.data(), text.size());
    carry = text.size();
  }
  if (carry > 0) {
    ASEQ_RETURN_NOT_OK(parser.ParseLine(std::string_view(buf.get(), carry)));
  }
  return std::move(parser).Finish(schema);
}

std::string FormatTrace(const std::vector<Event>& events,
                        const Schema& schema) {
  std::string out;
  for (const Event& e : events) AppendTraceLine(e, schema, &out);
  return out;
}

Status WriteTraceFile(const std::string& path, const std::vector<Event>& events,
                      const Schema& schema) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open trace file for writing: " + path);
  }
  std::string buf;
  for (const Event& e : events) {
    AppendTraceLine(e, schema, &buf);
    if (buf.size() >= kTraceChunkBytes) {
      out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  }
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  out.close();
  if (!out) {
    return Status::IoError("error writing trace file: " + path);
  }
  return Status::OK();
}

}  // namespace aseq
