// Telemetry substrate, part 5: the run-event table. Each run event is
// one row: its name, its fields in emission order, and the counters
// it bumps. obs::Emit<row>(values...) feeds three fixed sinks from
// the row: its counters, one trace instant named after the event with
// the fields as args, and one journal line (journal.h) with the same
// ts_us; fields are serialized only when the tracer or the journal is
// on. tools/obs_check validates against the same rows, and
// docs/observability.md mirrors the table.

#ifndef MANIMAL_OBS_EVENT_H_
#define MANIMAL_OBS_EVENT_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <span>
#include <string_view>
#include <type_traits>

namespace manimal::obs {

// A counter the event bumps: by one per event when `field` is null,
// else by the value of that integer field.
struct EventCounter {
  const char* name;
  const char* field = nullptr;
};

struct EventSpec {
  const char* name;
  std::initializer_list<const char*> fields;  // in emission order
  std::initializer_list<EventCounter> counters = {};
};

inline constexpr EventSpec kPlanSelected = {
    "plan_selected",
    {"program", "input", "mode", "access_path", "optimized", "candidates",
     "summary"}};
inline constexpr EventSpec kJobStart = {
    "job_start",
    {"job", "program", "access_path", "splits", "partitions",
     "input_file_bytes", "observe_predicates"}};
inline constexpr EventSpec kTaskStart = {
    "task_start", {"job", "task", "backend", "chain", "speculative"}};
inline constexpr EventSpec kTaskRetry = {
    "task_retry", {"job", "task", "chain", "attempt", "error"},
    {{"engine.task_retries"}}};
inline constexpr EventSpec kTaskCommit = {
    "task_commit", {"job", "task", "chain", "attempt"}};
inline constexpr EventSpec kTaskFailed = {
    "task_failed", {"job", "task", "chain", "error"},
    {{"engine.tasks_failed"}}};
inline constexpr EventSpec kSpeculativeLaunch = {
    "speculative_launch", {"job", "task", "elapsed_s", "threshold_s"},
    {{"engine.speculative_launches"}}};
// Spill volume is counted by the shuffle's own label-derived
// "<label>.spilled_runs" / "<label>.spilled_bytes" counters.
inline constexpr EventSpec kShuffleSpill = {
    "shuffle_spill", {"job", "mapper", "partition", "bytes"}};
inline constexpr EventSpec kShuffleMerge = {
    "shuffle_merge", {"job", "partition", "disk_runs", "memory_runs"}};
inline constexpr EventSpec kFaultInjected = {
    "fault_injected",
    {"job", "task", "op", "path", "site_ordinal", "injected_so_far"}};
inline constexpr EventSpec kPlanSwitched = {
    "plan_switched",
    {"job", "after_splits", "estimated", "observed", "drift_ratio", "from",
     "to"},
    {{"engine.plan_switches"}}};
inline constexpr EventSpec kDirectEval = {
    "direct_eval",
    {"job", "admitted", "blocks_total", "blocks_refuted", "detail"}};
inline constexpr EventSpec kOutputCommit = {
    "output_commit", {"job", "path", "records", "bytes"}};
inline constexpr EventSpec kJobFinish = {
    "job_finish",
    {"job", "input_records", "output_records", "task_retries",
     "speculative_launches", "shuffle_spilled_runs", "bytes_decoded",
     "blocks_skipped", "wall_seconds", "reported_seconds"},
    {{"engine.bytes_decoded", "bytes_decoded"},
     {"engine.blocks_skipped", "blocks_skipped"}}};
inline constexpr EventSpec kJobFailed = {"job_failed", {"job", "error"}};

// Every row, in documentation order.
inline constexpr const EventSpec* kEvents[] = {
    &kPlanSelected, &kJobStart,      &kTaskStart,         &kTaskRetry,
    &kTaskCommit,   &kTaskFailed,    &kSpeculativeLaunch, &kShuffleSpill,
    &kShuffleMerge, &kFaultInjected, &kPlanSwitched,      &kDirectEval,
    &kOutputCommit, &kJobFinish,     &kJobFailed,
};

// The row named `name`, or nullptr.
const EventSpec* FindEvent(std::string_view name);

// Creates every table counter in the metrics registry (idempotent),
// so a metrics dump lists them before any event fired.
void RegisterEventCounters();

// A wall-clock duration field: written %.6f, and as 0 in
// deterministic journal mode so golden files stay byte-stable.
struct Seconds {
  double value;
};

// One value passed to Emit(): a view of the caller's string, or a
// copied scalar whose C++ type decides how it is written.
struct FieldValue {
  enum class Kind : uint8_t { kStr, kInt, kUint, kNum, kSeconds, kBool };

  FieldValue(std::string_view s) : kind(Kind::kStr), str(s) {}
  template <std::same_as<bool> T>
  FieldValue(T b) : kind(Kind::kBool), bits(b) {}
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  FieldValue(T v)
      : kind(std::is_signed_v<T> ? Kind::kInt : Kind::kUint),
        bits(static_cast<uint64_t>(v)) {}
  FieldValue(double v) : kind(Kind::kNum), num(v) {}
  FieldValue(Seconds s) : kind(Kind::kSeconds), num(s.value) {}

  Kind kind;
  std::string_view str;
  uint64_t bits = 0;  // integers (two's complement for kInt) and bools
  double num = 0;
};

// Records one event of kEvents[row]; call sites use Emit<> instead.
void EmitFields(size_t row, std::span<const FieldValue> values);

namespace internal {
// By name: address comparisons of distinct objects are not constant
// expressions under every compiler mode (e.g. GCC with ASan).
constexpr size_t RowOf(const EventSpec& spec) {
  size_t row = 0;
  while (row < std::size(kEvents) &&
         std::string_view(kEvents[row]->name) != spec.name) {
    ++row;
  }
  return row;
}
}  // namespace internal

// Records one event of row E from its field values, in table order.
template <const EventSpec& E, typename... Args>
void Emit(const Args&... args) {
  static_assert(internal::RowOf(E) < std::size(kEvents),
                "Emit: the event is not a row of kEvents");
  static_assert(sizeof...(Args) == E.fields.size(),
                "Emit: pass exactly the event's fields, in table order");
  const FieldValue values[] = {FieldValue(args)...};
  EmitFields(internal::RowOf(E), values);
}

}  // namespace manimal::obs

#endif  // MANIMAL_OBS_EVENT_H_
