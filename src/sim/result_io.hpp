// Machine-readable result I/O: JSON and CSV serialization of RunMetrics /
// SweepResult rows, exact to the bit.
//
// Doubles are emitted as C99 hexadecimal floating-point literals ("%a", e.g.
// "0x1.5c28f5c28f5c3p-3") inside JSON strings, because decimal JSON numbers
// only round-trip approximately; strtod parses a hexfloat back bit-exactly.
// All output is byte-deterministic for a given input (fixed key order, sorted
// traffic maps, locale-independent formatting), which is what lets sharded
// sweep result files be merged and diffed byte-for-byte (see sim/shard.hpp).
#pragma once

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/sweep.hpp"

namespace cello::sim {

/// Exact double -> string: C99 hexfloat ("%a").  Deterministic per value.
std::string hex_double(double v);
/// Exact string -> double via strtod (accepts hexfloat and decimal).  Throws
/// cello::Error when the text is not exactly one float literal.
double parse_hex_double(const std::string& text);

/// Minimal JSON document model — arrays, objects, strings, bools, null and
/// number tokens — just enough for the sweep result formats.  Numbers keep
/// their literal token; the typed getters convert (and throw cello::Error on
/// a type or syntax mismatch).
struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  std::string scalar;  ///< Number: literal token; String: decoded value
  std::vector<JsonValue> items;                            ///< Array elements
  std::vector<std::pair<std::string, JsonValue>> members;  ///< Object, file order

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(const std::string& key) const;
  /// Object member lookup that throws cello::Error when absent.
  const JsonValue& at(const std::string& key) const;

  const std::string& as_string() const;
  i64 as_i64() const;
  u64 as_u64() const;
  /// Number token, or a String holding a hexfloat/decimal literal.
  double as_double() const;
};

/// Parse one JSON document; throws cello::Error with the byte offset on any
/// syntax error or trailing garbage.
JsonValue json_parse(const std::string& text);

/// Escape for embedding inside a JSON string literal (quotes not included).
std::string json_escape(const std::string& s);

/// Throws cello::Error when the object holds a key outside `allowed` —
/// format drift fails loudly instead of being silently ignored.  `what`
/// names the context in the message.
void reject_unknown_keys(const JsonValue& v, std::initializer_list<const char*> allowed,
                         const char* what);

/// Append `m` as a JSON object at `indent` spaces of enclosing indentation.
/// Fixed key order; doubles as hexfloat strings; traffic_by_tensor in sorted
/// (std::map) key order — byte-deterministic.
void metrics_to_json(std::string& out, const RunMetrics& m, int indent);
/// Inverse of metrics_to_json.  Every field is required and unknown keys are
/// rejected, so format drift fails loudly instead of zero-filling.
RunMetrics metrics_from_json(const JsonValue& v);

/// Append one sweep cell: {"workload": ..., "config": ..., "metrics": {...}}.
void result_to_json(std::string& out, const SweepResult& r, int indent);
SweepResult result_from_json(const JsonValue& v);

/// CSV export of sweep cells, one row per cell, with the same bit-exact
/// hexfloat doubles.  Nested fields are packed into single cells
/// ("tensor=bytes;..." / "op:macs:bytes|...") so the round-trip stays exact;
/// tensor/op names containing CSV- or packing-reserved characters are
/// rejected at serialization time.
std::string results_to_csv(const std::vector<SweepResult>& rows);
std::vector<SweepResult> results_from_csv(const std::string& text);

}  // namespace cello::sim
