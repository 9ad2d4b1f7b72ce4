// trace::ChromeTraceWriter — op-level run observability.
//
// The simulator narrates a run into a writer (per-step compute spans,
// per-group DRAM spans, buffer-occupancy counters, NoC collective spans) when
// one is armed through sim::RunArtifacts::trace; a null writer costs one
// pointer test per scheduled step.  Timestamps are *simulated* seconds —
// never wallclock — so the same run always produces the same events: traces
// are deterministic, diffable, and safe to check in as goldens.
//
// The writer serializes the events as Chrome trace_event JSON
// ({"traceEvents":[...]}, the "Trace Event Format"), which loads directly in
// Perfetto (https://ui.perfetto.dev) and chrome://tracing with zero custom
// viewer code.  See the README's Observability section for a walkthrough.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace cello::trace {

/// One event argument: a key plus a pre-rendered JSON number token ("3",
/// "1.5").  Pre-rendering keeps the writer interface free of a variant type
/// and makes the emitted bytes deterministic by construction.
struct TraceArg {
  std::string key;
  std::string json;
};

TraceArg arg(const std::string& key, i64 value);
TraceArg arg(const std::string& key, u64 value);
TraceArg arg(const std::string& key, double value);

/// One run's Chrome trace_event document, built in memory (one JSON object
/// per line inside "traceEvents").  (pid, tid) pairs name "tracks": the
/// simulator uses one pid per run with tid lanes for the schedule (compute),
/// DRAM, buffer occupancy and — on multi-node runs — NoC collectives.  A
/// traced run already holds O(steps) state, so the document adds no new
/// order of memory (the README lists measured sizes); the caller writes
/// document() out once.  Timestamps convert to the format's
/// microsecond unit with fixed decimal formatting (hexfloat — the repo's
/// result-file idiom — is not valid JSON).
class ChromeTraceWriter {
 public:
  /// Declare a (pid, tid) track before events appear on it: `process` names
  /// the pid group ("cello-sim"), `name` the tid lane ("schedule", "dram").
  void track(i32 pid, i32 tid, const std::string& process, const std::string& name);

  /// Complete event ("ph":"X"): `name` occupies [ts, ts + dur) on (pid, tid).
  void span(i32 pid, i32 tid, const std::string& name, double ts_seconds, double dur_seconds,
            const std::vector<TraceArg>& args);

  /// Counter sample ("ph":"C"): `series` has `value` from ts onward.
  void counter(i32 pid, i32 tid, const std::string& series, double ts_seconds, Bytes value);

  /// Close the traceEvents array; idempotent.
  void finish();

  /// The document's bytes; a whole JSON document once finish() has run.
  const std::string& document() const { return doc_; }
  u64 events() const { return events_; }

 private:
  /// Open the document / separate from the previous event, then return the
  /// document for the new event object to be appended to.
  std::string& begin_event();

  std::string doc_;
  std::vector<i32> named_pids_;  ///< pids whose process_name metadata went out
  u64 events_ = 0;
  bool finished_ = false;
};

}  // namespace cello::trace
