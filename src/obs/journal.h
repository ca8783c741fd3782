// Telemetry substrate, part 4: a structured per-job run journal.
//
// The tracer answers "where did the time go" visually; the journal
// answers "what did the run DO", machine-readably. When
// MANIMAL_JOURNAL=<path> is set, every run event (event.h) — plan
// selection, task start, retry, speculative launch, fault-injection
// hit, shuffle spill, partition merge, output commit, job finish — is
// appended to <path> as one JSON object per line (JSON lines), in
// emission order, with a stable versioned schema ("v" field,
// currently 1) and a process-monotonic sequence number.
//
// Journal lines and Chrome-trace events share identifiers and the
// timebase: the engine stamps the same job id ("job-<n>") and task id
// ("m0003" / "r0001") strings on both, and "ts_us" is microseconds
// since the tracer's epoch — each event's trace instant carries the
// very same timestamp — so a journal line can be located inside the
// trace timeline directly. See docs/observability.md for the event
// schema table.
//
// Lines are written only through obs::Emit() (event.h). When the
// variable is unset, an event costs one relaxed atomic load here —
// cheap enough to leave the emission sites compiled in everywhere.
// Events are task/job-level, never per-record.

#ifndef MANIMAL_OBS_JOURNAL_H_
#define MANIMAL_OBS_JOURNAL_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <span>
#include <string>
#include <string_view>

#include "obs/event.h"
#include "obs/metrics.h"

namespace manimal::obs {

// Version of the journal line schema. Bump when a field is renamed,
// removed, or changes meaning; adding fields is backward-compatible.
inline constexpr int kJournalSchemaVersion = 1;

class Journal {
 public:
  static Journal& Get();

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Total lines written since process start: the obs.journal_events
  // counter.
  uint64_t events_written() const;

  // ---- test hooks ----
  // Points the journal at `path` (truncating it) and enables
  // recording without the environment variable.
  void SetOutputPathForTest(const std::string& path);
  // Deterministic mode: ts_us and every Seconds field are written as
  // 0, so a single-threaded run under a fixed seed is byte-stable.
  void SetDeterministicForTest(bool on) {
    deterministic_.store(on, std::memory_order_relaxed);
  }
  bool deterministic() const {
    return deterministic_.load(std::memory_order_relaxed);
  }
  // Closes the output, resets the sequence counter, and re-disables
  // recording unless MANIMAL_JOURNAL is set in the environment.
  void ResetForTest();

 private:
  friend void EmitFields(size_t row, std::span<const FieldValue> values);
  Journal();

  // Appends one line: the envelope, then the pre-serialized fields.
  void Write(std::string_view type, double ts_us,
             const std::string& fields);

  std::atomic<bool> enabled_{false};
  std::atomic<bool> deterministic_{false};
  Counter* const events_written_;  // obs.journal_events
  std::mutex mu_;
  std::string path_;
  std::FILE* file_ = nullptr;  // opened lazily on first write
  uint64_t next_seq_ = 1;
};

}  // namespace manimal::obs

#endif  // MANIMAL_OBS_JOURNAL_H_
