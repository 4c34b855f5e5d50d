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

}  // namespace grout
