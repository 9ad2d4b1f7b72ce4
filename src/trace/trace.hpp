// trace::TraceSink — op-level run observability.
//
// The simulator narrates a run into a sink (per-step compute spans, per-group
// DRAM spans, buffer-occupancy counters, NoC collective spans) when one is
// armed through sim::RunArtifacts::trace; a null sink costs one pointer test
// per scheduled step.  Timestamps are *simulated* seconds — never wallclock —
// so the same run always produces the same events: traces are deterministic,
// diffable, and safe to check in as goldens.
//
// ChromeTraceWriter serializes the events as Chrome trace_event JSON
// ({"traceEvents":[...]}, the "Trace Event Format"), which loads directly in
// Perfetto (https://ui.perfetto.dev) and chrome://tracing with zero custom
// viewer code.  See the README's Observability section for a walkthrough.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace cello::trace {

/// One event argument: a key plus a pre-rendered JSON number token ("3",
/// "1.5").  Pre-rendering keeps the sink interface free of a
/// variant type and makes the emitted bytes deterministic by construction.
struct TraceArg {
  std::string key;
  std::string json;
};

TraceArg arg(const std::string& key, i64 value);
TraceArg arg(const std::string& key, u64 value);
TraceArg arg(const std::string& key, double value);

/// Consumer of one run's trace events.  (pid, tid) pairs name "tracks": the
/// simulator uses one pid per run with tid lanes for the schedule (compute),
/// DRAM, buffer occupancy and — on multi-node runs — NoC collectives.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// Declare a (pid, tid) track before events appear on it: `process` names
  /// the pid group ("cello-sim"), `name` the tid lane ("schedule", "dram").
  virtual void track(i32 pid, i32 tid, const std::string& process,
                     const std::string& name) = 0;

  /// Complete event ("ph":"X"): `name` occupies [ts, ts + dur) on (pid, tid).
  virtual void span(i32 pid, i32 tid, const std::string& name, double ts_seconds,
                    double dur_seconds, const std::vector<TraceArg>& args) = 0;

  /// Counter sample ("ph":"C"): `series` has `value` from ts onward.
  virtual void counter(i32 pid, i32 tid, const std::string& series, double ts_seconds,
                       Bytes value) = 0;
};

/// Streaming Chrome trace_event writer: every event is serialized to the
/// stream as it arrives (one JSON object per line inside "traceEvents"), so
/// arbitrarily long runs trace in constant memory.  finish() closes the
/// array; the destructor implies it.  Timestamps convert to the format's
/// microsecond unit with fixed decimal formatting (hexfloat — the repo's
/// result-file idiom — is not valid JSON).
class ChromeTraceWriter final : public TraceSink {
 public:
  explicit ChromeTraceWriter(std::ostream& out) : out_(&out) {}
  ~ChromeTraceWriter() override { finish(); }
  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;

  void track(i32 pid, i32 tid, const std::string& process,
             const std::string& name) override;
  void span(i32 pid, i32 tid, const std::string& name, double ts_seconds,
            double dur_seconds, const std::vector<TraceArg>& args) override;
  void counter(i32 pid, i32 tid, const std::string& series, double ts_seconds,
               Bytes value) override;

  /// Close the traceEvents array and flush the stream; idempotent.
  void finish();

  u64 events() const { return events_; }

 private:
  /// Open the document / separate from the previous event, then position the
  /// stream at the start of a new event object.
  std::ostream& begin_event();

  std::ostream* out_;
  std::vector<i32> named_pids_;  ///< pids whose process_name metadata went out
  u64 events_ = 0;
  bool finished_ = false;
};

}  // namespace cello::trace
