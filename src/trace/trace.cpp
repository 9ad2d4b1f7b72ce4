#include "trace/trace.hpp"

#include <algorithm>
#include <cstdio>

#include "common/codec.hpp"

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

/// A JSON string literal, quotes included.
std::string quote(const std::string& s) { return '"' + json_escape(s) + '"'; }

/// Simulated seconds -> the trace_event format's microsecond unit.
std::string render_us(double seconds) { return render(seconds * 1e6); }

void append_args(std::string& out, const std::vector<TraceArg>& args) {
  out += ",\"args\":{";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ',';
    out += quote(args[i].key) + ':' + args[i].json;
  }
  out += '}';
}

}  // namespace

TraceArg arg(const std::string& key, i64 value) { return {key, std::to_string(value)}; }
TraceArg arg(const std::string& key, u64 value) { return {key, std::to_string(value)}; }
TraceArg arg(const std::string& key, double value) { return {key, render(value)}; }

std::string& ChromeTraceWriter::begin_event() {
  doc_ += events_ == 0 ? "{\"traceEvents\":[\n" : ",\n";
  ++events_;
  return doc_;
}

void ChromeTraceWriter::track(i32 pid, i32 tid, const std::string& process,
                              const std::string& name) {
  // One process_name metadata event per pid, then the thread_name lane.
  const std::string lane = std::to_string(pid) + ",\"tid\":" + std::to_string(tid);
  if (std::find(named_pids_.begin(), named_pids_.end(), pid) == named_pids_.end()) {
    named_pids_.push_back(pid);
    begin_event() += "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":" + lane +
                     ",\"args\":{\"name\":" + quote(process) + "}}";
  }
  begin_event() += "{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":" + lane +
                   ",\"args\":{\"name\":" + quote(name) + "}}";
}

void ChromeTraceWriter::span(i32 pid, i32 tid, const std::string& name, double ts_seconds,
                             double dur_seconds, const std::vector<TraceArg>& args) {
  std::string& out = begin_event();
  out += "{\"name\":" + quote(name) + ",\"ph\":\"X\",\"ts\":" + render_us(ts_seconds) +
         ",\"dur\":" + render_us(dur_seconds) + ",\"pid\":" + std::to_string(pid) +
         ",\"tid\":" + std::to_string(tid);
  append_args(out, args);
  out += '}';
}

void ChromeTraceWriter::counter(i32 pid, i32 tid, const std::string& series,
                                double ts_seconds, Bytes value) {
  begin_event() += "{\"name\":" + quote(series) + ",\"ph\":\"C\",\"ts\":" +
                   render_us(ts_seconds) + ",\"pid\":" + std::to_string(pid) +
                   ",\"tid\":" + std::to_string(tid) +
                   ",\"args\":{\"bytes\":" + std::to_string(value) + "}}";
}

void ChromeTraceWriter::finish() {
  if (finished_) return;
  finished_ = true;
  // An empty trace is still a valid document.
  doc_ += events_ == 0 ? "{\"traceEvents\":[\n]}\n" : "\n]}\n";
}

}  // namespace cello::trace
