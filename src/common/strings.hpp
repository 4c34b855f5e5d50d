// String helpers shared by the polyglot DSL parser and the bench printers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace grout {

/// Remove leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Split on a delimiter character; empty fields are preserved.
std::vector<std::string_view> split(std::string_view s, char delim);

/// Concatenate strings, string views, C strings and chars into one
/// std::string: `str_cat("a", std::to_string(i))`. It appends to one
/// string, so it avoids `"literal" + std::string&&`, which GCC 12 flags
/// with a false -Wrestrict once inlined at -O3.
template <typename... Parts>
std::string str_cat(const Parts&... parts) {
  std::string out;
  (out += ... += parts);
  return out;
}

}  // namespace grout
