#include "trace/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace cello::trace {

namespace {

/// Deterministic decimal rendering for JSON number tokens.  %.12g is stable
/// for a given double on every libc we build against and keeps timestamps
/// readable; exactness to the bit is not required here (metrics files own
/// that contract via hexfloat — which JSON numbers cannot carry).
std::string render(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string render(i64 v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  return buf;
}

std::string render(u64 v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

/// Escape for a JSON string literal (quotes included in the result).
std::string quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
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
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

/// Simulated seconds -> the trace_event format's microsecond unit.
std::string render_us(double seconds) { return render(seconds * 1e6); }

void write_args(std::ostream& out, const std::vector<TraceArg>& args) {
  out << ",\"args\":{";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out << ',';
    out << quote(args[i].key) << ':' << args[i].json;
  }
  out << '}';
}

}  // namespace

TraceArg arg(const std::string& key, i64 value) { return {key, render(value)}; }
TraceArg arg(const std::string& key, u64 value) { return {key, render(value)}; }
TraceArg arg(const std::string& key, double value) { return {key, render(value)}; }

std::ostream& ChromeTraceWriter::begin_event() {
  std::ostream& out = *out_;
  out << (events_ == 0 ? "{\"traceEvents\":[\n" : ",\n");
  ++events_;
  return out;
}

void ChromeTraceWriter::track(i32 pid, i32 tid, const std::string& process,
                              const std::string& name) {
  // One process_name metadata event per pid, then the thread_name lane.
  if (std::find(named_pids_.begin(), named_pids_.end(), pid) == named_pids_.end()) {
    named_pids_.push_back(pid);
    begin_event() << "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":" << pid
                  << ",\"tid\":" << tid << ",\"args\":{\"name\":" << quote(process) << "}}";
  }
  begin_event() << "{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":" << pid
                << ",\"tid\":" << tid << ",\"args\":{\"name\":" << quote(name) << "}}";
}

void ChromeTraceWriter::span(i32 pid, i32 tid, const std::string& name, double ts_seconds,
                             double dur_seconds, const std::vector<TraceArg>& args) {
  std::ostream& out = begin_event();
  out << "{\"name\":" << quote(name) << ",\"ph\":\"X\",\"ts\":" << render_us(ts_seconds)
      << ",\"dur\":" << render_us(dur_seconds) << ",\"pid\":" << pid << ",\"tid\":" << tid;
  write_args(out, args);
  out << '}';
}

void ChromeTraceWriter::counter(i32 pid, i32 tid, const std::string& series,
                                double ts_seconds, Bytes value) {
  begin_event() << "{\"name\":" << quote(series) << ",\"ph\":\"C\",\"ts\":"
                << render_us(ts_seconds) << ",\"pid\":" << pid << ",\"tid\":" << tid
                << ",\"args\":{\"bytes\":" << render(static_cast<u64>(value)) << "}}";
}

void ChromeTraceWriter::finish() {
  if (finished_) return;
  finished_ = true;
  // An empty trace is still a valid document.
  *out_ << (events_ == 0 ? "{\"traceEvents\":[\n]}\n" : "\n]}\n");
  out_->flush();
}

}  // namespace cello::trace
