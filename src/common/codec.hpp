// The text encodings shared by the sweep file formats (shard JSON, the
// checkpoint journal, Perfetto traces) and the text inputs that steer them
// (cello_cli flags, CELLO_FAILPOINTS).  Each encoding is defined once here,
// so every writer and reader of a format agrees on its bytes.  Callers keep
// their own range checks and error messages: the parsers report damage as
// nullopt and never throw.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "common/types.hpp"

namespace cello {

/// Escape for embedding inside a JSON string literal (quotes not included):
/// '"', '\\', '\n', '\r' and '\t' by name, other bytes below 0x20 as
/// "\u00xx"; every other byte passes through unchanged.
std::string json_escape(std::string_view s);

/// "0x" + 16 lowercase hex digits: the fixed-width text of fingerprints and
/// checksums.
std::string hex_u64(u64 v);
/// Strict inverse of hex_u64: "0x" and exactly 16 hex digits (either case),
/// nothing else — no sign, space or second prefix.
std::optional<u64> parse_hex_u64(std::string_view text);

/// Strict unsigned decimal: one or more ASCII digits and nothing else (no
/// sign, space, prefix or suffix), with a value that fits in a u64.
std::optional<u64> parse_decimal_u64(std::string_view text);

/// 64-bit FNV-1a offset basis.
inline constexpr u64 kFnv1aBasis = 14695981039346656037ull;
/// 64-bit FNV-1a over `bytes`, continuing from `h`.
u64 fnv1a(std::string_view bytes, u64 h = kFnv1aBasis);

}  // namespace cello
