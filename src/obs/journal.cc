#include "obs/journal.h"

#include <cstdlib>

#include "obs/json.h"

namespace manimal::obs {

Journal::Journal()
    : events_written_(
          MetricsRegistry::Get().GetCounter("obs.journal_events")) {
  const char* path = std::getenv("MANIMAL_JOURNAL");
  if (path != nullptr && path[0] != '\0') {
    path_ = path;
    enabled_.store(true, std::memory_order_relaxed);
  }
}

Journal& Journal::Get() {
  // Leaked singleton, same rationale as the metrics registry: events
  // may still arrive from static destructors.
  static Journal* journal = new Journal();
  return *journal;
}

uint64_t Journal::events_written() const {
  return static_cast<uint64_t>(events_written_->Value());
}

void Journal::Write(std::string_view type, double ts_us,
                    const std::string& fields) {
  if (deterministic()) ts_us = 0;
  std::string line = "{\"v\":";
  line += std::to_string(kJournalSchemaVersion);
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) {
    if (path_.empty()) return;
    file_ = std::fopen(path_.c_str(), "a");
    if (file_ == nullptr) {
      // Journal IO must never fail a job; drop events.
      enabled_.store(false, std::memory_order_relaxed);
      return;
    }
  }
  line += ",\"seq\":" + std::to_string(next_seq_++);
  line += ",\"ts_us\":" + JsonFixed(ts_us, 3);
  line += ",\"event\":" + JsonQuote(type);
  if (!fields.empty()) {
    line += ',';
    line += fields;
  }
  line += "}\n";
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
  events_written_->Increment();
}

void Journal::SetOutputPathForTest(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  path_ = path;
  next_seq_ = 1;
  if (!path.empty()) {
    // Truncate so each test starts from a clean journal.
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f != nullptr) std::fclose(f);
  }
  enabled_.store(!path.empty(), std::memory_order_relaxed);
}

void Journal::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  next_seq_ = 1;
  deterministic_.store(false, std::memory_order_relaxed);
  const char* env = std::getenv("MANIMAL_JOURNAL");
  if (env != nullptr && env[0] != '\0') {
    path_ = env;
    enabled_.store(true, std::memory_order_relaxed);
  } else {
    path_.clear();
    enabled_.store(false, std::memory_order_relaxed);
  }
}

}  // namespace manimal::obs
