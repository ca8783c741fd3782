// perfbench_gen: writes one workload's seeded inputs before the
// measuring process starts, so data generation stays out of setup_s
// and peak_rss_mb.
//
//   perfbench_gen --workload <name> --seed <n> --dir <dir>
//
// Writes <dir>/input.msq (the job input) and <dir>/jobs.txt (one job
// parameter per line, in submission order). The same seed gives the
// same files; another seed gives other data and other thresholds.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/workloads.h"
#include "workloads/datagen.h"

namespace manimal::perfbench {
namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench_gen: %s\n", message.c_str());
  return 1;
}

// Job parameters for select-sweep: B1 thresholds whose selectivity is
// log-uniform in [kMinSelectivity, kMaxSelectivity]. The uniform
// variates come from a golden-ratio sequence with a seeded offset, so
// any run of consecutive jobs covers the range evenly and the median
// job does not hinge on a few unlucky draws.
std::string SelectThresholds(uint64_t seed) {
  const double lo = std::log(kMinSelectivity);
  const double hi = std::log(kMaxSelectivity);
  const double golden = 0.6180339887498949;
  // splitmix64 of the seed, so neighbouring seeds get unrelated offsets.
  uint64_t z = seed + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  double u = static_cast<double>(z >> 11) * 0x1.0p-53;
  std::string out;
  for (int i = 0; i < kSelectJobs; ++i) {
    u += golden;
    u -= std::floor(u);
    const double selectivity = std::exp(lo + u * (hi - lo));
    // pageRank is uniform in [0, kRankRange): P(rank > t) =
    // (kRankRange - 1 - t) / kRankRange.
    int64_t matching = std::llround(selectivity * kRankRange);
    if (matching < 1) matching = 1;
    out += std::to_string(kRankRange - 1 - matching) + "\n";
  }
  return out;
}

int Run(const std::string& workload, uint64_t seed, const std::string& dir) {
  const std::string input = dir + "/input.msq";
  std::string jobs = "0\n";
  Status status;
  if (workload == kSelectSweep) {
    workloads::RankingsOptions options;
    options.num_pages = kSelectPages;
    options.rank_range = kRankRange;
    options.seed = seed * 4 + 1;
    status = workloads::GenerateRankings(input, options).status();
    jobs = SelectThresholds(seed);
  } else if (workload == kAggregateSpill) {
    workloads::UserVisitsOptions options;
    options.num_visits = kAggregateVisits;
    options.num_pages = kAggregatePages;
    options.seed = seed * 4 + 2;
    status = workloads::GenerateUserVisits(input, options).status();
  } else if (workload == kUdfScan) {
    workloads::DocumentsOptions options;
    options.num_docs = kUdfDocs;
    options.num_pages = kUdfPages;
    options.seed = seed * 4 + 3;
    status = workloads::GenerateDocuments(input, options).status();
  } else {
    return Fail("unknown workload '" + workload + "'");
  }
  if (!status.ok()) return Fail("generate: " + status.ToString());
  std::FILE* f = std::fopen((dir + "/jobs.txt").c_str(), "w");
  if (f == nullptr) return Fail("cannot write jobs.txt");
  const bool written = std::fputs(jobs.c_str(), f) >= 0;
  if (std::fclose(f) != 0 || !written) return Fail("cannot write jobs.txt");
  return 0;
}

}  // namespace
}  // namespace manimal::perfbench

int main(int argc, char** argv) {
  std::string workload, dir;
  uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
      have_seed = true;
    } else if (flag == "--dir") {
      dir = argv[i + 1];
    }
  }
  if (workload.empty() || dir.empty() || !have_seed) {
    std::fprintf(stderr,
                 "usage: perfbench_gen --workload <name> --seed <n> "
                 "--dir <dir>\n");
    return 2;
  }
  return manimal::perfbench::Run(workload, seed, dir);
}
