// Small string helpers shared across the library.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace qp {

/// Returns `s` lower-cased (ASCII only).
std::string ToLower(std::string_view s);

/// Returns `s` upper-cased (ASCII only).
std::string ToUpper(std::string_view s);

/// Case-insensitive equality (ASCII).
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Formats a double compactly (up to `precision` digits, no trailing zeros).
std::string FormatDouble(double v, int precision = 6);

/// 64-bit FNV-1a of `s`: the same value in every process and run, which
/// query fingerprints and scheduler shard assignment rely on.
uint64_t Fnv1a64(std::string_view s);

/// `s` as a JSON string literal: quotes, backslashes and every byte below
/// 0x20 escaped, as RFC 8259 requires.
std::string JsonQuote(std::string_view s);

}  // namespace qp
