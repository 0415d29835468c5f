#ifndef ASEQ_STREAM_TRACE_IO_H_
#define ASEQ_STREAM_TRACE_IO_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/event.h"
#include "common/schema.h"
#include "common/status.h"

namespace aseq {

/// ReadTraceFile reads the file in chunks of this many bytes and carries a
/// partial line over to the next chunk, so its text buffer stays at one
/// chunk (at most twice the longest line, if that is longer) and the file
/// is never held whole. WriteTraceFile writes in chunks of the same size.
inline constexpr size_t kTraceChunkBytes = size_t{4} << 20;

/// \brief CSV trace format for event streams.
///
/// Line format: `type,timestamp[,attr=value]...`, e.g.
/// ```
/// DELL,1001,price=24.5,volume=300,traderId=7
/// IPIX,1003,price=11.2,volume=1200,traderId=3
/// ```
/// Blank lines and lines starting with `#` are skipped but still counted
/// in error line numbers. Fields and values are trimmed of ASCII
/// whitespace. A value of digits with an optional sign is an int64, one
/// with a single `.` as well is a double, and anything else (including
/// exponent forms such as `1e5`) is a string; a number that overflows its
/// type is a ParseError. This is the drop-in point for the real WPI stock
/// trace (after a one-line reshape of its `ticker timestamp` records into
/// this format).
///
/// Both readers run one single-pass scanner over `string_view` lines, so a
/// line costs no allocation beyond its Event's attribute vector and string
/// values. Reading registers unseen types/attributes in the schema, but
/// only once the whole trace has parsed. Events must be in non-decreasing
/// timestamp order; out-of-order rows are an error (the paper's model
/// assumes in-order arrival). A file that cannot be opened or read (e.g. a
/// directory) is an IoError.
Result<std::vector<Event>> ReadTraceFile(const std::string& path,
                                         Schema* schema);

/// Parses trace content from a string (same format as ReadTraceFile).
Result<std::vector<Event>> ParseTrace(const std::string& content,
                                      Schema* schema);

/// Writes events to a trace file, one event at a time through a buffered
/// writer; the inverse of ReadTraceFile.
Status WriteTraceFile(const std::string& path, const std::vector<Event>& events,
                      const Schema& schema);

/// Serializes events to trace-format text (the bytes WriteTraceFile
/// writes).
std::string FormatTrace(const std::vector<Event>& events, const Schema& schema);

}  // namespace aseq

#endif  // ASEQ_STREAM_TRACE_IO_H_
