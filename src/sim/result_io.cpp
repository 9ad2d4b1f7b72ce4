#include "sim/result_io.hpp"

#include <bit>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"

namespace cello::sim {

// ---- exact float text -------------------------------------------------------

// Hand-rolled rather than printf("%a"): the exact text "%a" emits (leading
// digit, digit count, denormal normalization) is implementation-defined, and
// shard files written on different machines must be byte-identical.  This
// canonical form — sign, "0x1." + mantissa with trailing zeros trimmed,
// "p" + signed decimal exponent, denormals normalized to a 1.x mantissa —
// happens to match glibc for normal values and parses back bit-exactly with
// strtod on any platform.
std::string hex_double(double v) {
  const u64 bits = std::bit_cast<u64>(v);
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  u64 frac = bits & 0xfffffffffffffull;
  std::string out = (bits >> 63) ? "-" : "";
  if (biased == 0x7ff) return out + (frac != 0 ? "nan" : "inf");
  if (biased == 0 && frac == 0) return out + "0x0p+0";
  int exp;
  if (biased == 0) {
    // Denormal: shift the top set bit into the implicit-1 position so the
    // mantissa is 1.f like every other value.
    const int shift = std::countl_zero(frac) - 11;
    frac = (frac << shift) & 0xfffffffffffffull;
    exp = -1022 - shift;
  } else {
    exp = biased - 1023;
  }
  out += "0x1";
  if (frac != 0) {
    char digits[16];
    std::snprintf(digits, sizeof digits, "%013llx", static_cast<unsigned long long>(frac));
    int len = 13;
    while (len > 0 && digits[len - 1] == '0') --len;
    out += '.';
    out.append(digits, static_cast<size_t>(len));
  }
  out += 'p';
  if (exp >= 0) out += '+';
  out += std::to_string(exp);
  return out;
}

double parse_hex_double(const std::string& text) {
  if (text.empty()) throw Error("empty float literal");
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size())
    throw Error("malformed float literal '" + text + "'");
  return v;
}

// ---- JSON value -------------------------------------------------------------

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type != Type::Object) return nullptr;
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  if (type != Type::Object) throw Error("JSON: expected an object holding key '" + key + "'");
  if (const JsonValue* v = find(key)) return *v;
  throw Error("JSON: missing key '" + key + "'");
}

const std::string& JsonValue::as_string() const {
  if (type != Type::String) throw Error("JSON: expected a string");
  return scalar;
}

i64 JsonValue::as_i64() const {
  if (type != Type::Number) throw Error("JSON: expected a number");
  char* end = nullptr;
  const long long v = std::strtoll(scalar.c_str(), &end, 10);
  if (end != scalar.c_str() + scalar.size())
    throw Error("JSON: malformed integer '" + scalar + "'");
  return static_cast<i64>(v);
}

u64 JsonValue::as_u64() const {
  if (type != Type::Number) throw Error("JSON: expected a number");
  if (!scalar.empty() && scalar[0] == '-')
    throw Error("JSON: expected a non-negative integer, got '" + scalar + "'");
  char* end = nullptr;
  const unsigned long long v = std::strtoull(scalar.c_str(), &end, 10);
  if (end != scalar.c_str() + scalar.size())
    throw Error("JSON: malformed integer '" + scalar + "'");
  return static_cast<u64>(v);
}

double JsonValue::as_double() const {
  if (type == Type::String || type == Type::Number) return parse_hex_double(scalar);
  throw Error("JSON: expected a float (hexfloat string or number)");
}

// ---- JSON parser ------------------------------------------------------------

namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  const std::string& s_;
  size_t pos_ = 0;
  int depth_ = 0;
  // The deepest legitimate document (shard file -> results -> metrics ->
  // per_op entry) nests ~6 levels; 64 leaves headroom while keeping a
  // hostile "[[[[..." file a cello::Error instead of a stack overflow.
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& why) const {
    throw Error("JSON parse error at offset " + std::to_string(pos_) + ": " + why);
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }
  char peek() const {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  void literal(const char* word) {
    for (const char* p = word; *p; ++p) expect(*p);
  }

  JsonValue value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (++depth_ > kMaxDepth) fail("nesting deeper than " + std::to_string(kMaxDepth));
      JsonValue v = c == '{' ? object() : array();
      --depth_;
      return v;
    }
    if (c == '"') {
      JsonValue v;
      v.type = JsonValue::Type::String;
      v.scalar = string();
      return v;
    }
    if (c == 't' || c == 'f') {
      JsonValue v;
      v.type = JsonValue::Type::Bool;
      v.boolean = (c == 't');
      literal(c == 't' ? "true" : "false");
      return v;
    }
    if (c == 'n') {
      literal("null");
      return {};
    }
    return number();
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      // First-wins duplicate keys would silently drop data; fail loudly like
      // every other format deviation.
      if (v.find(key) != nullptr) fail("duplicate key '" + key + "'");
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else fail("malformed \\u escape");
          }
          // The writer only escapes ASCII control characters; larger code
          // points are out of scope for this format.
          if (code > 0xff) fail("\\u escape beyond latin-1 is not supported");
          out += static_cast<char>(code);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue number() {
    const size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' || s_[pos_] == 'e' ||
            s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.type = JsonValue::Type::Number;
    v.scalar = s_.substr(start, pos_ - start);
    return v;
  }
};

}  // namespace

JsonValue json_parse(const std::string& text) { return JsonParser(text).parse(); }

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ---- RunMetrics / SweepResult JSON ------------------------------------------

void reject_unknown_keys(const JsonValue& v, std::initializer_list<const char*> allowed,
                         const char* what) {
  for (const auto& [key, value] : v.members) {
    (void)value;
    bool known = false;
    for (const char* a : allowed)
      if (key == a) known = true;
    if (!known) throw Error(std::string(what) + ": unknown key '" + key + "'");
  }
}

void metrics_to_json(std::string& out, const RunMetrics& m, int indent) {
  const std::string in(static_cast<size_t>(indent), ' ');
  const std::string in2(static_cast<size_t>(indent) + 2, ' ');
  const std::string in4(static_cast<size_t>(indent) + 4, ' ');
  out += "{\n";
  out += in2 + "\"seconds\": \"" + hex_double(m.seconds) + "\",\n";
  out += in2 + "\"total_macs\": " + std::to_string(m.total_macs) + ",\n";
  out += in2 + "\"dram_bytes\": " + std::to_string(m.dram_bytes) + ",\n";
  out += in2 + "\"dram_read_bytes\": " + std::to_string(m.dram_read_bytes) + ",\n";
  out += in2 + "\"dram_write_bytes\": " + std::to_string(m.dram_write_bytes) + ",\n";
  out += in2 + "\"offchip_energy_pj\": \"" + hex_double(m.offchip_energy_pj) + "\",\n";
  out += in2 + "\"onchip_energy_pj\": \"" + hex_double(m.onchip_energy_pj) + "\",\n";
  out += in2 + "\"sram_line_accesses\": " + std::to_string(m.sram_line_accesses) + ",\n";
  // NoC fields appear only on multi-node runs, so single-chip result files
  // keep the exact bytes (and golden diffs) of the pre-scale-out format.
  if (m.nodes > 1) {
    out += in2 + "\"nodes\": " + std::to_string(m.nodes) + ",\n";
    out += in2 + "\"noc_bytes\": " + std::to_string(m.noc_bytes) + ",\n";
    out += in2 + "\"naive_noc_bytes\": " + std::to_string(m.naive_noc_bytes) + ",\n";
    out += in2 + "\"noc_seconds\": \"" + hex_double(m.noc_seconds) + "\",\n";
    out += in2 + "\"max_link_utilization\": \"" + hex_double(m.max_link_utilization) + "\",\n";
    out += in2 + "\"parallel_efficiency\": \"" + hex_double(m.parallel_efficiency) + "\",\n";
  }
  out += in2 + "\"traffic_by_tensor\": {";
  if (m.traffic_by_tensor.empty()) {
    out += "},\n";
  } else {
    out += "\n";
    size_t i = 0;
    for (const auto& [tensor, bytes] : m.traffic_by_tensor) {
      out += in4 + "\"" + json_escape(tensor) + "\": " + std::to_string(bytes);
      out += (++i < m.traffic_by_tensor.size()) ? ",\n" : "\n";
    }
    out += in2 + "},\n";
  }
  out += in2 + "\"per_op\": [";
  if (m.per_op.empty()) {
    out += "]\n";
  } else {
    out += "\n";
    for (size_t i = 0; i < m.per_op.size(); ++i) {
      const auto& op = m.per_op[i];
      out += in4 + "{ \"op\": \"" + json_escape(op.op) + "\", \"macs\": " +
             std::to_string(op.macs) + ", \"dram_bytes\": " + std::to_string(op.dram_bytes) +
             " }";
      out += (i + 1 < m.per_op.size()) ? ",\n" : "\n";
    }
    out += in2 + "]\n";
  }
  out += in + "}";
}

RunMetrics metrics_from_json(const JsonValue& v) {
  if (v.type != JsonValue::Type::Object) throw Error("metrics: expected a JSON object");
  reject_unknown_keys(v,
                      {"seconds", "total_macs", "dram_bytes", "dram_read_bytes",
                       "dram_write_bytes", "offchip_energy_pj", "onchip_energy_pj",
                       "sram_line_accesses", "nodes", "noc_bytes", "naive_noc_bytes",
                       "noc_seconds", "max_link_utilization", "parallel_efficiency",
                       "traffic_by_tensor", "per_op"},
                      "metrics");
  RunMetrics m;
  m.seconds = v.at("seconds").as_double();
  m.total_macs = v.at("total_macs").as_i64();
  m.dram_bytes = v.at("dram_bytes").as_u64();
  m.dram_read_bytes = v.at("dram_read_bytes").as_u64();
  m.dram_write_bytes = v.at("dram_write_bytes").as_u64();
  m.offchip_energy_pj = v.at("offchip_energy_pj").as_double();
  m.onchip_energy_pj = v.at("onchip_energy_pj").as_double();
  m.sram_line_accesses = v.at("sram_line_accesses").as_u64();
  // Conditionally-emitted multi-node fields: absent = single-chip defaults.
  if (const JsonValue* nodes = v.find("nodes")) {
    m.nodes = nodes->as_i64();
    if (m.nodes <= 1) throw Error("metrics: a nodes key must carry a count > 1");
    m.noc_bytes = v.at("noc_bytes").as_u64();
    m.naive_noc_bytes = v.at("naive_noc_bytes").as_u64();
    m.noc_seconds = v.at("noc_seconds").as_double();
    m.max_link_utilization = v.at("max_link_utilization").as_double();
    m.parallel_efficiency = v.at("parallel_efficiency").as_double();
  } else if (v.find("noc_bytes") != nullptr || v.find("noc_seconds") != nullptr) {
    throw Error("metrics: NoC fields require a nodes key");
  }
  const JsonValue& traffic = v.at("traffic_by_tensor");
  if (traffic.type != JsonValue::Type::Object)
    throw Error("metrics: traffic_by_tensor must be an object");
  for (const auto& [tensor, bytes] : traffic.members) {
    if (!m.traffic_by_tensor.emplace(tensor, bytes.as_u64()).second)
      throw Error("metrics: duplicate tensor '" + tensor + "' in traffic_by_tensor");
  }
  const JsonValue& per_op = v.at("per_op");
  if (per_op.type != JsonValue::Type::Array) throw Error("metrics: per_op must be an array");
  m.per_op.reserve(per_op.items.size());
  for (const JsonValue& entry : per_op.items) {
    if (entry.type != JsonValue::Type::Object)
      throw Error("metrics: per_op entries must be objects");
    reject_unknown_keys(entry, {"op", "macs", "dram_bytes"}, "metrics per_op");
    m.per_op.push_back({entry.at("op").as_string(), entry.at("macs").as_i64(),
                        entry.at("dram_bytes").as_u64()});
  }
  return m;
}

void result_to_json(std::string& out, const SweepResult& r, int indent) {
  const std::string in(static_cast<size_t>(indent), ' ');
  const std::string in2(static_cast<size_t>(indent) + 2, ' ');
  out += "{\n";
  out += in2 + "\"workload\": \"" + json_escape(r.workload) + "\",\n";
  out += in2 + "\"config\": \"" + json_escape(r.config) + "\",\n";
  // The fabric key appears only on rows from grids with a fabric axis, the
  // error key only on quarantined failure records: files from classic
  // all-success sweeps stay byte-identical to the historical format.
  if (!r.fabric.empty()) out += in2 + "\"fabric\": \"" + json_escape(r.fabric) + "\",\n";
  if (!r.error.empty()) out += in2 + "\"error\": \"" + json_escape(r.error) + "\",\n";
  out += in2 + "\"metrics\": ";
  metrics_to_json(out, r.metrics, indent + 2);
  out += "\n" + in + "}";
}

SweepResult result_from_json(const JsonValue& v) {
  if (v.type != JsonValue::Type::Object) throw Error("sweep result: expected a JSON object");
  reject_unknown_keys(v, {"workload", "config", "fabric", "error", "metrics"}, "sweep result");
  SweepResult r;
  r.workload = v.at("workload").as_string();
  r.config = v.at("config").as_string();
  if (const JsonValue* fabric = v.find("fabric")) {
    r.fabric = fabric->as_string();
    if (r.fabric.empty())
      throw Error("sweep result: a fabric key must carry a non-empty spec");
  }
  if (const JsonValue* error = v.find("error")) {
    r.error = error->as_string();
    if (r.error.empty())
      throw Error("sweep result: an error key must carry a non-empty message");
  }
  r.metrics = metrics_from_json(v.at("metrics"));
  return r;
}

// ---- CSV --------------------------------------------------------------------

namespace {

constexpr const char* kCsvHeader =
    "workload,config,fabric,seconds,total_macs,dram_bytes,dram_read_bytes,dram_write_bytes,"
    "offchip_energy_pj,onchip_energy_pj,sram_line_accesses,nodes,noc_bytes,naive_noc_bytes,"
    "noc_seconds,max_link_utilization,parallel_efficiency,traffic_by_tensor,per_op,error";

constexpr size_t kCsvFields = 20;

std::string csv_field(const std::string& raw) {
  if (raw.find_first_of(",\"\n\r") == std::string::npos) return raw;
  std::string quoted = "\"";
  for (const char c : raw) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

/// Packed sub-fields reuse ';', '|', '=' and ':' as separators; a name using
/// one would corrupt the cell, so refuse to serialize it.
void check_packable_name(const std::string& name, const char* what) {
  if (name.find_first_of("=;:|,\"\n\r") != std::string::npos)
    throw Error(std::string(what) + " name '" + name +
                "' contains a CSV-reserved character (one of = ; : | , \" or a newline)");
}

/// Split on `sep`, dropping nothing: "a;b" -> {"a","b"}; "" -> {}.
std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  if (text.empty()) return parts;
  size_t start = 0;
  while (true) {
    const size_t at = text.find(sep, start);
    parts.push_back(text.substr(start, at - start));
    if (at == std::string::npos) return parts;
    start = at + 1;
  }
}

u64 parse_u64(const std::string& text, const char* what) {
  if (text.empty() || text[0] == '-') throw Error(std::string(what) + ": malformed '" + text + "'");
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size())
    throw Error(std::string(what) + ": malformed '" + text + "'");
  return static_cast<u64>(v);
}

i64 parse_i64(const std::string& text, const char* what) {
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end != text.c_str() + text.size())
    throw Error(std::string(what) + ": malformed '" + text + "'");
  return static_cast<i64>(v);
}

/// Parse CSV text into records of fields, honoring quoted fields.
std::vector<std::vector<std::string>> parse_csv(const std::string& text) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> record;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;  ///< true once the current record has content
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    if (c == '"') {
      in_quotes = true;
      field_started = true;
    } else if (c == ',') {
      record.push_back(std::move(field));
      field.clear();
      field_started = true;
    } else if (c == '\n' || c == '\r') {
      if (c == '\r' && i + 1 < text.size() && text[i + 1] == '\n') ++i;
      if (field_started || !field.empty() || !record.empty()) {
        record.push_back(std::move(field));
        field.clear();
        records.push_back(std::move(record));
        record.clear();
        field_started = false;
      }
    } else {
      field += c;
      field_started = true;
    }
  }
  if (in_quotes) throw Error("CSV: unterminated quoted field");
  if (field_started || !field.empty() || !record.empty()) {
    record.push_back(std::move(field));
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace

std::string results_to_csv(const std::vector<SweepResult>& rows) {
  std::string out = kCsvHeader;
  out += '\n';
  for (const SweepResult& r : rows) {
    std::string traffic;
    for (const auto& [tensor, bytes] : r.metrics.traffic_by_tensor) {
      check_packable_name(tensor, "tensor");
      if (!traffic.empty()) traffic += ';';
      traffic += tensor + "=" + std::to_string(bytes);
    }
    std::string per_op;
    for (const auto& op : r.metrics.per_op) {
      check_packable_name(op.op, "op");
      if (!per_op.empty()) per_op += '|';
      per_op += op.op + ":" + std::to_string(op.macs) + ":" + std::to_string(op.dram_bytes);
    }
    out += csv_field(r.workload) + ',' + csv_field(r.config) + ',' + csv_field(r.fabric) + ',';
    out += hex_double(r.metrics.seconds) + ',';
    out += std::to_string(r.metrics.total_macs) + ',';
    out += std::to_string(r.metrics.dram_bytes) + ',';
    out += std::to_string(r.metrics.dram_read_bytes) + ',';
    out += std::to_string(r.metrics.dram_write_bytes) + ',';
    out += hex_double(r.metrics.offchip_energy_pj) + ',';
    out += hex_double(r.metrics.onchip_energy_pj) + ',';
    out += std::to_string(r.metrics.sram_line_accesses) + ',';
    out += std::to_string(r.metrics.nodes) + ',';
    out += std::to_string(r.metrics.noc_bytes) + ',';
    out += std::to_string(r.metrics.naive_noc_bytes) + ',';
    out += hex_double(r.metrics.noc_seconds) + ',';
    out += hex_double(r.metrics.max_link_utilization) + ',';
    out += hex_double(r.metrics.parallel_efficiency) + ',';
    out += csv_field(traffic) + ',' + csv_field(per_op) + ',' + csv_field(r.error) + '\n';
  }
  return out;
}

std::vector<SweepResult> results_from_csv(const std::string& text) {
  const auto records = parse_csv(text);
  if (records.empty()) throw Error("CSV: empty document");
  {
    std::string header;
    for (size_t i = 0; i < records[0].size(); ++i)
      header += (i ? "," : "") + records[0][i];
    if (header != kCsvHeader)
      throw Error("CSV: unexpected header '" + header + "'");
  }
  std::vector<SweepResult> rows;
  rows.reserve(records.size() - 1);
  for (size_t ri = 1; ri < records.size(); ++ri) {
    const auto& rec = records[ri];
    if (rec.size() != kCsvFields)
      throw Error("CSV: row " + std::to_string(ri) + " has " + std::to_string(rec.size()) +
                  " fields, expected " + std::to_string(kCsvFields));
    SweepResult r;
    r.workload = rec[0];
    r.config = rec[1];
    r.fabric = rec[2];
    r.metrics.seconds = parse_hex_double(rec[3]);
    r.metrics.total_macs = parse_i64(rec[4], "total_macs");
    r.metrics.dram_bytes = parse_u64(rec[5], "dram_bytes");
    r.metrics.dram_read_bytes = parse_u64(rec[6], "dram_read_bytes");
    r.metrics.dram_write_bytes = parse_u64(rec[7], "dram_write_bytes");
    r.metrics.offchip_energy_pj = parse_hex_double(rec[8]);
    r.metrics.onchip_energy_pj = parse_hex_double(rec[9]);
    r.metrics.sram_line_accesses = parse_u64(rec[10], "sram_line_accesses");
    r.metrics.nodes = parse_i64(rec[11], "nodes");
    r.metrics.noc_bytes = parse_u64(rec[12], "noc_bytes");
    r.metrics.naive_noc_bytes = parse_u64(rec[13], "naive_noc_bytes");
    r.metrics.noc_seconds = parse_hex_double(rec[14]);
    r.metrics.max_link_utilization = parse_hex_double(rec[15]);
    r.metrics.parallel_efficiency = parse_hex_double(rec[16]);
    for (const std::string& entry : split(rec[17], ';')) {
      const size_t eq = entry.find('=');
      if (eq == std::string::npos) throw Error("CSV: malformed traffic entry '" + entry + "'");
      if (!r.metrics.traffic_by_tensor
               .emplace(entry.substr(0, eq), parse_u64(entry.substr(eq + 1), "traffic bytes"))
               .second)
        throw Error("CSV: duplicate tensor '" + entry.substr(0, eq) + "' in traffic column");
    }
    for (const std::string& entry : split(rec[18], '|')) {
      const auto parts = split(entry, ':');
      if (parts.size() != 3) throw Error("CSV: malformed per_op entry '" + entry + "'");
      r.metrics.per_op.push_back({parts[0], parse_i64(parts[1], "per_op macs"),
                                  parse_u64(parts[2], "per_op dram_bytes")});
    }
    r.error = rec[19];
    rows.push_back(std::move(r));
  }
  return rows;
}

}  // namespace cello::sim
