#include "obs/event.h"

#include <string>
#include <utility>
#include <vector>

#include "obs/journal.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace manimal::obs {

namespace {

constexpr int FieldIndex(const EventSpec& spec, std::string_view name) {
  int i = 0;
  for (std::string_view field : spec.fields) {
    if (field == name) return i;
    ++i;
  }
  return -1;
}

constexpr bool CounterFieldsExist() {
  for (const EventSpec* spec : kEvents) {
    for (const EventCounter& c : spec->counters) {
      if (c.field != nullptr && FieldIndex(*spec, c.field) < 0) return false;
    }
  }
  return true;
}
static_assert(CounterFieldsExist());

struct BoundCounter {
  Counter* counter;
  int field;  // index into the event's values; -1 counts the event
};

// Per kEvents row, its counters resolved to registry pointers once.
const std::vector<std::vector<BoundCounter>>& BoundCounters() {
  static const auto* bound = [] {
    auto* rows = new std::vector<std::vector<BoundCounter>>();
    for (const EventSpec* spec : kEvents) {
      std::vector<BoundCounter>& row = rows->emplace_back();
      for (const EventCounter& c : spec->counters) {
        row.push_back({MetricsRegistry::Get().GetCounter(c.name),
                       c.field == nullptr ? -1 : FieldIndex(*spec, c.field)});
      }
    }
    return rows;
  }();
  return *bound;
}

// JSON text of the value; a trace arg takes strings unquoted.
std::string Render(const FieldValue& v, bool quote, bool zero_seconds) {
  using Kind = FieldValue::Kind;
  switch (v.kind) {
    case Kind::kStr: return quote ? JsonQuote(v.str) : std::string(v.str);
    case Kind::kInt: return std::to_string(static_cast<int64_t>(v.bits));
    case Kind::kUint: return std::to_string(v.bits);
    case Kind::kNum: return JsonNumber(v.num);
    case Kind::kSeconds: return JsonFixed(zero_seconds ? 0.0 : v.num, 6);
    case Kind::kBool: return v.bits != 0 ? "true" : "false";
  }
  return "";
}

}  // namespace

const EventSpec* FindEvent(std::string_view name) {
  for (const EventSpec* spec : kEvents) {
    if (name == spec->name) return spec;
  }
  return nullptr;
}

void RegisterEventCounters() { (void)BoundCounters(); }

void EmitFields(size_t row, std::span<const FieldValue> values) {
  for (const BoundCounter& c : BoundCounters()[row]) {
    c.counter->Add(c.field < 0 ? 1
                               : static_cast<int64_t>(values[c.field].bits));
  }
  Journal& journal = Journal::Get();
  Tracer& tracer = Tracer::Get();
  const bool to_journal = journal.enabled();
  const bool to_trace = tracer.enabled();
  if (!to_journal && !to_trace) return;
  const EventSpec& spec = *kEvents[row];
  TraceEvent instant;
  instant.name = spec.name;
  instant.cat = "event";
  instant.phase = 'i';
  instant.ts_us = tracer.NowMicros();
  std::string fields;
  size_t i = 0;
  for (std::string_view name : spec.fields) {
    const FieldValue& v = values[i++];
    if (to_trace) instant.args.emplace_back(name, Render(v, false, false));
    if (to_journal) {
      if (!fields.empty()) fields += ',';
      fields += JsonQuote(name) + ':' +
                Render(v, true, journal.deterministic());
    }
  }
  if (to_journal) journal.Write(spec.name, instant.ts_us, fields);
  if (to_trace) tracer.Record(std::move(instant));
}

}  // namespace manimal::obs
