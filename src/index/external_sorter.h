// External merge sorting over (key-bytes, payload-bytes) entries.
//
// Used by the shuffle (sorting intermediate map output by partition
// key) and by index generation (sorting records by index key before
// B+Tree bulk-load). Entries are buffered in memory, spilled as sorted
// runs when the budget is exceeded, and merged with a k-way heap over
// block-buffered run readers. Comparison is plain memcmp on the key
// bytes — callers encode keys with the ordered key codec so byte
// order equals logical order.
//
// The building blocks (SpillBuffer, MemoryRun, MergeSortedRuns) are
// exported so the shuffle can run its own per-mapper buffering and
// per-partition merges without funneling every emit through one
// sorter; ExternalSorter composes them into the classic single-owner
// sort used by index builds.

#ifndef MANIMAL_INDEX_EXTERNAL_SORTER_H_
#define MANIMAL_INDEX_EXTERNAL_SORTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/env.h"
#include "common/status.h"

namespace manimal::index {

// Streaming view over sorted (key, payload) entries.
class SortedStream {
 public:
  virtual ~SortedStream() = default;

  virtual bool Valid() const = 0;
  virtual std::string_view key() const = 0;
  virtual std::string_view payload() const = 0;
  virtual Status Next() = 0;
};

// A sorted run held in memory: a contiguous arena of key/payload
// bytes plus per-entry offsets, ordered by key.
struct MemoryRun {
  struct Entry {
    uint32_t key_offset;
    uint32_t key_len;
    uint32_t payload_offset;
    uint32_t payload_len;
  };
  std::string arena;
  std::vector<Entry> entries;
};

// Accumulates (key, payload) entries in a contiguous arena and turns
// them into sorted runs — on disk (SpillToFile) or in memory
// (TakeSortedRun). The in-memory stage of both the external sorter
// and the shuffle's per-mapper partition buffers. Sorting is stable:
// entries with equal keys keep the order they were added in. Not
// thread-safe.
// Offsets are 32-bit: callers must spill before the arena reaches
// 4 GiB (the sorter and shuffle spill far earlier).
class SpillBuffer {
 public:
  void Add(std::string_view key, std::string_view payload);

  bool empty() const { return entries_.empty(); }
  uint64_t buffered_bytes() const { return arena_.size(); }
  uint64_t num_entries() const { return entries_.size(); }

  // Sorts the buffered entries and writes them as a run file
  // (varint-length-prefixed key/payload pairs), clearing the buffer.
  // Returns the file's byte size. The run is written to a sibling
  // temp file and renamed into place, so `path` either holds a
  // complete run or does not exist — a task killed (or fault-injected)
  // mid-spill can never leave a torn run a later merge reads as valid.
  Result<uint64_t> SpillToFile(const std::string& path);

  // Sorts the buffered entries and moves them out as an in-memory
  // run, leaving the buffer empty.
  MemoryRun TakeSortedRun();

 private:
  void SortEntries();

  std::string arena_;
  std::vector<MemoryRun::Entry> entries_;
};

// K-way merge over spilled run files plus in-memory sorted runs,
// driven by a min-heap so large fan-ins stay O(log k) per entry. Run
// files (SpillToFile format) are read through block-buffered readers.
// Equal keys drain sources in order: run files first (in the given
// order), then memory runs. The caller keeps the run files on disk
// until the stream is destroyed.
Result<std::unique_ptr<SortedStream>> MergeSortedRuns(
    const std::vector<std::string>& run_paths,
    std::vector<MemoryRun> memory_runs);

// As MergeSortedRuns, but borrows the in-memory runs instead of
// consuming them: the caller keeps them alive (and unmodified) until
// the stream is destroyed, and may merge the same runs again later.
// This is what makes a failed reduce task retryable — the shuffle
// retains each partition's memory runs and can re-merge on demand.
Result<std::unique_ptr<SortedStream>> MergeSortedRunsBorrowed(
    const std::vector<std::string>& run_paths,
    std::vector<const MemoryRun*> memory_runs);

class ExternalSorter {
 public:
  struct Options {
    std::string temp_dir;  // required: where spill runs live
    uint64_t memory_budget_bytes = 64u << 20;
    // Telemetry label: spills publish the "<label>.spilled_runs" /
    // "<label>.spilled_bytes" counters and "<label>.spill" trace
    // instants, so shuffle spills and index-build spills stay
    // distinguishable.
    std::string metric_label = "sort";
  };

  struct Stats {
    int spilled_runs = 0;
    uint64_t spilled_bytes = 0;
    uint64_t entries = 0;
  };

  explicit ExternalSorter(Options options);
  ~ExternalSorter();

  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  Status Add(std::string_view key, std::string_view payload);

  // Finalizes input and returns the globally sorted stream. Call at
  // most once; the sorter must outlive the stream.
  Result<std::unique_ptr<SortedStream>> Finish();

  const Stats& stats() const { return stats_; }

 private:
  Status SpillToRun();

  Options options_;
  Stats stats_;
  SpillBuffer buffer_;
  std::vector<std::string> run_paths_;
  bool finished_ = false;
};

}  // namespace manimal::index

#endif  // MANIMAL_INDEX_EXTERNAL_SORTER_H_
