// The benchmark's three workloads: sizes, job programs and system
// options, shared by the input generator and the measuring process.
// Why each workload exists is in perfbench/README.md.

#ifndef MANIMAL_PERFBENCH_WORKLOADS_H_
#define MANIMAL_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "core/manimal.h"
#include "workloads/pavlo.h"

namespace manimal::perfbench {

inline constexpr char kSelectSweep[] = "select-sweep";
inline constexpr char kAggregateSpill[] = "aggregate-spill";
inline constexpr char kUdfScan[] = "udf-scan";

// select-sweep: B1 over Rankings.
inline constexpr uint64_t kSelectPages = 800000;
inline constexpr int64_t kRankRange = 100000;
inline constexpr double kMinSelectivity = 0.0001;
inline constexpr double kMaxSelectivity = 0.5;
inline constexpr int kSelectJobs = 1000;  // more than any run submits

// aggregate-spill: B2 over UserVisits, with a sort budget far below
// the map output so every job spills and merges runs.
inline constexpr uint64_t kAggregateVisits = 300000;
inline constexpr uint64_t kAggregatePages = 40000;
inline constexpr uint64_t kAggregateSortBuffer = 1u << 20;

// udf-scan: B4 over Documents; the analyzer finds nothing to index.
inline constexpr uint64_t kUdfDocs = 12000;
inline constexpr uint64_t kUdfPages = 60000;

// Two map threads and two partitions: with four on a four-core host,
// per-run medians spread 36-45%; with two, 10-20%.
inline constexpr int kThreads = 2;

inline bool IsWorkload(const std::string& name) {
  return name == kSelectSweep || name == kAggregateSpill || name == kUdfScan;
}

// The program one job of `workload` submits; `param` is its line of
// jobs.txt (the B1 threshold; ignored by the other workloads).
inline mril::Program MakeProgram(const std::string& workload,
                                 int64_t param) {
  if (workload == kSelectSweep) {
    return workloads::Benchmark1Selection(param);
  }
  if (workload == kAggregateSpill) {
    return workloads::Benchmark2Aggregation();
  }
  return workloads::Benchmark4UdfAggregation();
}

// Every Options field not set here keeps its default.
inline core::ManimalSystem::Options MakeOptions(
    const std::string& workload, const std::string& workspace_dir) {
  core::ManimalSystem::Options options;
  options.workspace_dir = workspace_dir;
  options.map_parallelism = kThreads;
  options.num_partitions = kThreads;
  if (workload == kAggregateSpill) {
    options.sort_buffer_bytes = kAggregateSortBuffer;
  }
  return options;
}

}  // namespace manimal::perfbench

#endif  // MANIMAL_PERFBENCH_WORKLOADS_H_
