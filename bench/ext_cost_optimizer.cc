// Cost-based planning ablation — the approach the paper defers (§2.2:
// the optimizer's choices "in the long run should be determined by a
// cost-based approach, but for now are solved with simple rule-based
// heuristics").
//
// A selection query sweeps selectivity with ONLY a locator B+Tree
// artifact cataloged. The planner prices it (selectivity off the
// stats histogram or the tree's own fan-out, base blocks charged by the
// expected number of distinct blocks the matches touch) and falls back
// to the scan once the index would read more than scanning — the
// classic index-abuse crossover. Each row compares the planner's run
// with the baseline full scan.

#include <cstdio>

#include "bench/bench_util.h"
#include "workloads/datagen.h"
#include "workloads/pavlo.h"

int main() {
  using namespace manimal;
  const int64_t scale = bench::ScaleFactor();
  bench::BenchWorkspace ws("ext-cost");

  workloads::WebPagesOptions pages;
  pages.num_pages = 60000 * scale;
  pages.content_len = 384;
  pages.rank_range = 100000;
  bench::CheckOk(
      workloads::GenerateWebPages(ws.file("pages.msq"), pages).status(),
      "gen webpages");

  core::ManimalSystem::Options options;
  options.workspace_dir = ws.file("ws");
  options.map_parallelism =
      static_cast<int>(EnvInt64("MANIMAL_THREADS", 4));
  options.num_partitions = options.map_parallelism;
  options.simulated_startup_seconds = 0.01;
  auto system = bench::CheckOk(core::ManimalSystem::Open(options), "open");

  // Build only the locator B+Tree.
  auto report = bench::CheckOk(
      analyzer::Analyze(workloads::SelectionCountQuery(0)), "analyze");
  auto specs = analyzer::SynthesizeIndexPrograms(
      workloads::SelectionCountQuery(0), report);
  const analyzer::IndexGenProgram* locator = nullptr;
  for (const auto& s : specs) {
    if (s.btree && !s.clustered && !s.projection) locator = &s;
  }
  bench::CheckOk(locator == nullptr ? Status::Internal("no locator spec")
                                    : Status::OK(),
                 "locator spec");
  bench::CheckOk(system->BuildIndex(*locator, ws.file("pages.msq")).status(),
                 "build index");

  std::printf(
      "Cost-based planning vs the baseline scan with only a locator "
      "B+Tree cataloged (scale=%lld)\n(paper: cost-based planning named "
      "as the long-run approach)\n\n",
      static_cast<long long>(scale));
  bench::TablePrinter table(
      {"Selectivity", "Baseline", "Planner", "Planner's plan", "Outputs"});
  bool all_match = true;

  for (int pct : {80, 40, 10, 1}) {
    int64_t threshold =
        pages.rank_range - (pages.rank_range * pct) / 100 - 1;
    mril::Program program = workloads::SelectionCountQuery(threshold);
    core::ManimalSystem::Submission job;
    job.program = program;
    job.input_path = ws.file("pages.msq");

    job.output_path = ws.file("base.prs");
    exec::JobResult baseline = bench::Averaged([&] {
      return bench::CheckOk(system->RunBaseline(job), "baseline");
    });

    job.output_path = ws.file("cost.prs");
    core::ManimalSystem::SubmitOutcome cost_outcome;
    exec::JobResult cost = bench::Averaged([&] {
      cost_outcome = bench::CheckOk(system->Submit(job), "submit");
      return cost_outcome.job;
    });

    auto a = bench::CheckOk(exec::ReadCanonicalPairs(ws.file("base.prs")),
                            "baseline out");
    auto b = bench::CheckOk(exec::ReadCanonicalPairs(ws.file("cost.prs")),
                            "cost out");
    bool match = a == b;
    all_match = all_match && match;

    bool declined = cost_outcome.plan.explanation.find(
                        "no cataloged artifact beats") !=
                    std::string::npos;
    table.AddRow({StrPrintf("%d%%", pct),
                  bench::Secs(baseline.reported_seconds),
                  bench::Secs(cost.reported_seconds),
                  declined ? "declined index (scan)" : "used index",
                  match ? "identical" : "MISMATCH"});
    bench::JsonRow("ext_cost_optimizer",
                   StrPrintf("selectivity-%d%%/baseline", pct))
        .Job(baseline)
        .Emit();
    bench::JsonRow("ext_cost_optimizer",
                   StrPrintf("selectivity-%d%%/cost", pct))
        .Str("plan", declined ? "scan" : "index")
        .Job(cost)
        .Emit();
  }
  table.Print();
  std::printf("\nAll outputs identical: %s\n",
              all_match ? "yes" : "NO (BUG)");
  return all_match ? 0 : 1;
}
