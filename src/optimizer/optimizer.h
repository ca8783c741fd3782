// The Manimal optimizer (paper §2.2 Step 2): "examines the
// descriptors, the user's input file, and the catalog to choose the
// most efficient execution plan currently possible."
//
// Planning is cost-based (the approach §2.2 says "in the long run
// should be determined"): every cataloged candidate is priced in
// estimated bytes moved — selectivity from column histograms or the
// B+Tree's own root fan-out — and the cheapest plan wins, INCLUDING
// the plain scan when no artifact beats it (an index at 60%
// selectivity can easily cost more than scanning).

#ifndef MANIMAL_OPTIMIZER_OPTIMIZER_H_
#define MANIMAL_OPTIMIZER_OPTIMIZER_H_

#include <string>

#include "analyzer/analyzer.h"
#include "common/status.h"
#include "exec/descriptor.h"
#include "index/catalog.h"
#include "optimizer/explain.h"

namespace manimal::optimizer {

struct Plan {
  exec::ExecutionDescriptor descriptor;
  // Why this plan was chosen (or why the baseline fell out).
  std::string explanation;
  // True when an indexed artifact is in use.
  bool optimized = false;
  // The full candidate set and estimates behind this choice —
  // everything EXPLAIN renders (explain.h). Always populated by
  // BuildPlan; rendering it is the caller's opt-in.
  PlanExplain explain;
};

// The unoptimized plan: full scan of the raw input with the unmodified
// program (what conventional Hadoop would do).
exec::ExecutionDescriptor BaselineDescriptor(const mril::Program& program,
                                             const std::string& input_path);

struct PlanningOptions {
  // Ground-truth predicate selectivity observed by a running job's
  // first committed splits. Set when re-entering BuildPlan for
  // adaptive mid-job replanning: it overrides every model estimate
  // (provenance "observed") so the cost comparison re-runs against
  // reality.
  std::optional<double> observed_selectivity;
};

// Chooses the best available plan given the analysis and catalog.
// Falls back to the baseline when no usable artifact exists.
Result<Plan> BuildPlan(const mril::Program& program,
                       const std::string& input_path,
                       const analyzer::AnalysisReport& report,
                       const index::Catalog& catalog,
                       const PlanningOptions& options);
Result<Plan> BuildPlan(const mril::Program& program,
                       const std::string& input_path,
                       const analyzer::AnalysisReport& report,
                       const index::Catalog& catalog);

}  // namespace manimal::optimizer

#endif  // MANIMAL_OPTIMIZER_OPTIMIZER_H_
