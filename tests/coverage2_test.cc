// Second-round coverage: corner cases surfaced by review — dead-code
// emits, multi-emit DNF unions, map-only jobs over B+Tree artifacts,
// opaque-input end-to-end via the assembler, and stack-shuffling
// opcodes.

#include <gtest/gtest.h>

#include <limits>

#include "analyzer/analyzer.h"
#include "analyzer/expr_eval.h"
#include "analyzer/select.h"
#include "core/manimal.h"
#include "exec/pairfile.h"
#include "mril/assembler.h"
#include "mril/builder.h"
#include "mril/verifier.h"
#include "mril/vm.h"
#include "tests/test_util.h"
#include "workloads/datagen.h"
#include "workloads/pavlo.h"
#include "workloads/schemas.h"

namespace manimal {
namespace {

using mril::ProgramBuilder;
using testing::TempDir;

TEST(Coverage2Test, EmitInDeadCodeIsIgnoredByFindSelect) {
  // An emit that control flow can never reach contributes no disjunct:
  // the recovered formula describes only live behaviour.
  ProgramBuilder b("dead-emit");
  b.SetValueSchema(workloads::WebPagesSchema());
  auto& m = b.Map();
  m.LoadParam(1).GetField("rank").LoadI64(10).CmpGt().JmpIfFalse("end");
  m.LoadParam(0).LoadI64(1).Emit();
  m.Label("end");
  m.Jmp("done");
  // Dead region below (no path reaches it).
  m.LoadParam(0).LoadI64(99).Emit();
  m.Label("done").Ret();
  mril::Program p = b.Build();
  ASSERT_OK(mril::VerifyProgram(p));

  analyzer::SelectResult r = analyzer::FindSelect(p);
  ASSERT_TRUE(r.descriptor.has_value()) << r.miss_reason;
  // Formula is exactly rank > 10 — dead emit added nothing.
  for (int64_t rank : {5, 10, 11, 50}) {
    Value row = Value::List(
        {Value::Str("u"), Value::I64(rank), Value::Str("c")});
    ASSERT_OK_AND_ASSIGN(
        bool says,
        analyzer::EvalFormula(r.descriptor->formula, Value::I64(0), row));
    EXPECT_EQ(says, rank > 10);
  }
}

TEST(Coverage2Test, TwoEmitsUnionTheirConditions) {
  // emit when rank < 10 (first site) or rank > 90 (second site).
  ProgramBuilder b("two-emits");
  b.SetValueSchema(workloads::WebPagesSchema());
  auto& m = b.Map();
  m.LoadParam(1).GetField("rank").LoadI64(10).CmpLt().JmpIfFalse("second");
  m.LoadParam(0).LoadI64(1).Emit();
  m.Label("second");
  m.LoadParam(1).GetField("rank").LoadI64(90).CmpGt().JmpIfFalse("end");
  m.LoadParam(0).LoadI64(2).Emit();
  m.Label("end").Ret();

  analyzer::SelectResult r = analyzer::FindSelect(b.Build());
  ASSERT_TRUE(r.descriptor.has_value()) << r.miss_reason;
  ASSERT_TRUE(r.descriptor->indexable());
  // Two intervals: (-inf,10) and (90,+inf).
  ASSERT_EQ(r.descriptor->intervals.size(), 2u);
  for (int64_t rank = 0; rank <= 100; ++rank) {
    bool expected = rank < 10 || rank > 90;
    bool covered = false;
    for (const analyzer::KeyInterval& iv : r.descriptor->intervals) {
      covered = covered || iv.Contains(Value::I64(rank));
    }
    if (expected) {
      EXPECT_TRUE(covered) << rank;
    }
  }
  // The low range also covers the rank<10-AND-rank>90 infeasible
  // overlap correctly (i.e. the intervals are an over-approximation of
  // the union, not an intersection).
  for (int64_t rank : {50, 40}) {
    Value row = Value::List(
        {Value::Str("u"), Value::I64(rank), Value::Str("c")});
    ASSERT_OK_AND_ASSIGN(
        bool says,
        analyzer::EvalFormula(r.descriptor->formula, Value::I64(0), row));
    EXPECT_FALSE(says);
  }
}

TEST(Coverage2Test, MapOnlyJobThroughLocatorBTree) {
  TempDir dir("cov-maponly");
  workloads::WebPagesOptions gen;
  gen.num_pages = 3000;
  gen.content_len = 64;
  gen.rank_range = 1000;
  ASSERT_OK(
      workloads::GenerateWebPages(dir.file("pages.msq"), gen).status());

  core::ManimalSystem::Options options;
  options.workspace_dir = dir.file("ws");
  options.simulated_startup_seconds = 0;
  ASSERT_OK_AND_ASSIGN(auto system, core::ManimalSystem::Open(options));

  // ProjectionQuery is map-only: if rank > t emit(url, rank).
  mril::Program program = workloads::ProjectionQuery(950);
  core::ManimalSystem::Submission job;
  job.program = program;
  job.input_path = dir.file("pages.msq");
  job.output_path = dir.file("base.prs");
  ASSERT_OK_AND_ASSIGN(auto baseline, system->RunBaseline(job));

  ASSERT_OK_AND_ASSIGN(auto report, analyzer::Analyze(program));
  auto specs = analyzer::SynthesizeIndexPrograms(program, report);
  ASSERT_FALSE(specs.empty());
  // The maximal candidate is a locator B+Tree over a projected
  // sibling.
  EXPECT_TRUE(specs[0].btree);
  EXPECT_TRUE(specs[0].projection);
  EXPECT_FALSE(specs[0].clustered);
  ASSERT_OK(system->BuildIndex(specs[0], job.input_path).status());

  job.output_path = dir.file("opt.prs");
  ASSERT_OK_AND_ASSIGN(auto outcome, system->Submit(job));
  EXPECT_TRUE(outcome.plan.optimized);
  EXPECT_LT(outcome.job.counters.map_invocations,
            baseline.counters.map_invocations / 5);
  ASSERT_OK_AND_ASSIGN(auto a,
                       exec::ReadCanonicalPairs(dir.file("base.prs")));
  ASSERT_OK_AND_ASSIGN(auto b,
                       exec::ReadCanonicalPairs(dir.file("opt.prs")));
  EXPECT_EQ(a, b);
}

TEST(Coverage2Test, OpaqueProgramFromAssemblerEndToEnd) {
  // Benchmark-1-style program written in assembler, run over opaque
  // Rankings through the full pipeline.
  constexpr char kText[] = R"(
.program asm-rankings-filter
.key_type i64
.value_schema <opaque>
.func map locals=1
  load_param 1
  load_const i64:1
  call opaque.get_i64
  store_local 0
  load_local 0
  load_const i64:90000
  cmp_gt
  jmp_if_false end
  load_param 1
  load_const i64:0
  call opaque.get_str
  load_local 0
  emit
end:
  return
.endfunc
)";
  ASSERT_OK_AND_ASSIGN(mril::Program program,
                       mril::AssembleProgram(kText));

  TempDir dir("cov-opaque");
  workloads::RankingsOptions gen;
  gen.num_pages = 3000;
  ASSERT_OK(
      workloads::GenerateRankings(dir.file("rank.msq"), gen).status());

  core::ManimalSystem::Options options;
  options.workspace_dir = dir.file("ws");
  options.simulated_startup_seconds = 0;
  ASSERT_OK_AND_ASSIGN(auto system, core::ManimalSystem::Open(options));

  core::ManimalSystem::Submission job;
  job.program = program;
  job.input_path = dir.file("rank.msq");
  job.output_path = dir.file("base.prs");
  ASSERT_OK_AND_ASSIGN(auto baseline, system->RunBaseline(job));

  job.output_path = dir.file("first.prs");
  ASSERT_OK_AND_ASSIGN(auto first, system->Submit(job));
  // At ~10% selectivity the matches touch every block of this small
  // file, so the locator tree alone prices above the scan; build both
  // proposed trees and let the planner pick the clustered one.
  int trees = 0;
  for (const auto& spec : first.index_programs) {
    if (!spec.btree) continue;
    ASSERT_OK(system->BuildIndex(spec, job.input_path).status());
    ++trees;
  }
  ASSERT_EQ(trees, 2);
  job.output_path = dir.file("opt.prs");
  ASSERT_OK_AND_ASSIGN(auto second, system->Submit(job));
  EXPECT_TRUE(second.plan.optimized);
  ASSERT_OK_AND_ASSIGN(auto a,
                       exec::ReadCanonicalPairs(dir.file("base.prs")));
  ASSERT_OK_AND_ASSIGN(auto b,
                       exec::ReadCanonicalPairs(dir.file("opt.prs")));
  EXPECT_EQ(a, b);
  EXPECT_LT(second.job.counters.map_invocations,
            baseline.counters.map_invocations / 2);
}

TEST(Coverage2Test, SwapAndDupSemantics) {
  ProgramBuilder b("stack-ops");
  b.SetValueSchema(workloads::WebPagesSchema());
  auto& m = b.Map();
  // Push rank then url, swap -> emit(rank, url); dup tested via
  // emitting rank twice.
  m.LoadParam(1).GetField("rank");
  m.LoadParam(1).GetField("url");
  m.Swap();
  m.Emit();  // emit(url, rank) after swap: key=url? Stack is
             // [rank, url] -> swap -> [url, rank] -> emit pops value
             // rank, key url.
  m.Ret();
  mril::Program p = b.Build();
  mril::VmInstance vm(&p);
  std::vector<std::pair<Value, Value>> out;
  vm.set_emit_sink([&out](const Value& k, const Value& v) {
    out.emplace_back(k, v);
    return Status::OK();
  });
  ASSERT_OK(vm.InvokeMap(
      Value::I64(0),
      Value::List({Value::Str("u"), Value::I64(5), Value::Str("c")})));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].first.str(), "u");
  EXPECT_EQ(out[0].second.i64(), 5);
}

TEST(Coverage2Test, WrappingArithmeticIsDefined) {
  // INT64_MAX + 1 wraps to INT64_MIN in both the VM and the evaluator.
  ProgramBuilder b("wrap");
  b.SetValueSchema(Schema({{"x", FieldType::kI64}}));
  auto& m = b.Map();
  m.LoadParam(1).GetFieldIndex(0).LoadI64(1).Add();
  m.LoadI64(0);
  m.Emit().Ret();
  mril::Program p = b.Build();
  mril::VmInstance vm(&p);
  Value emitted_key;
  vm.set_emit_sink([&emitted_key](const Value& k, const Value&) {
    emitted_key = k;
    return Status::OK();
  });
  ASSERT_OK(vm.InvokeMap(
      Value::I64(0),
      Value::List({Value::I64(std::numeric_limits<int64_t>::max())})));
  EXPECT_EQ(emitted_key.i64(), std::numeric_limits<int64_t>::min());
}

}  // namespace
}  // namespace manimal
