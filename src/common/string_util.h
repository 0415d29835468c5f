#ifndef ASEQ_COMMON_STRING_UTIL_H_
#define ASEQ_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace aseq {

/// Removes leading and trailing ASCII whitespace.
std::string_view TrimWhitespace(std::string_view s);

/// Joins pieces with `sep`.
std::string JoinStrings(const std::vector<std::string>& pieces,
                        std::string_view sep);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Upper-cases ASCII letters.
std::string ToUpperAscii(std::string_view s);

}  // namespace aseq

#endif  // ASEQ_COMMON_STRING_UTIL_H_
