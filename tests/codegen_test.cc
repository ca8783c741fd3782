// Native codegen tier unit + equivalence tests (src/codegen/,
// docs/mril.md "Native kernels"): the admission gate must reject
// everything it cannot prove with a readable reason, and an admitted
// kernel must be observationally equivalent to the VM on every record
// — including the awkward ones: null and missing fields, strings on
// the inline-storage boundary, projected-away (remapped) fields,
// always-true/always-false selections, records that fail to decode,
// and records whose evaluation faults (where the kernel must bail out
// and the VM replay must reproduce the error byte-for-byte).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "codegen/kernel.h"
#include "codegen/shape.h"
#include "common/env.h"
#include "common/strings.h"
#include "mril/builder.h"
#include "mril/verifier.h"
#include "mril/vm.h"
#include "serde/record_codec.h"
#include "serde/value.h"
#include "tests/test_util.h"
#include "workloads/pavlo.h"
#include "workloads/schemas.h"

namespace manimal {
namespace {

using codegen::CompileFold;
using codegen::CompileKernel;
using codegen::CompileOptions;
using codegen::ExtractFoldShape;
using codegen::ExtractShape;
using codegen::FoldKernel;
using codegen::FoldShape;
using codegen::KernelOutcome;
using codegen::KernelScratch;
using codegen::NativeKernel;
using codegen::RelationalShape;
using mril::FunctionBuilder;
using mril::ProgramBuilder;

// ---------------------------------------------------------------
// Equivalence harness: the kernel with the engine's bailout-replay
// contract applied must match a pure VM run on emits and statuses.

struct Trace {
  std::vector<std::string> emits;
  std::vector<std::string> statuses;
  int bailouts = 0;  // kernel leg only
};

Trace RunVm(const mril::Program& program,
            const std::vector<Value>& records,
            const std::vector<int>& field_remap = {}) {
  Trace trace;
  mril::VmOptions options;
  options.field_remap = field_remap;
  mril::VmInstance vm(&program, options);
  vm.set_emit_sink([&](const Value& k, const Value& v) {
    trace.emits.push_back(k.ToString() + " -> " + v.ToString());
    return Status::OK();
  });
  for (size_t i = 0; i < records.size(); ++i) {
    Status s =
        vm.InvokeMap(Value::I64(static_cast<int64_t>(i)), records[i]);
    trace.statuses.push_back(s.ToString());
  }
  return trace;
}

Trace RunKernel(const mril::Program& program,
                const std::vector<Value>& records,
                const std::shared_ptr<const NativeKernel>& kernel,
                const std::vector<int>& field_remap = {}) {
  Trace trace;
  mril::VmOptions options;
  options.field_remap = field_remap;
  mril::VmInstance vm(&program, options);
  vm.set_emit_sink([&](const Value& k, const Value& v) {
    trace.emits.push_back(k.ToString() + " -> " + v.ToString());
    return Status::OK();
  });
  KernelScratch scratch;
  for (size_t i = 0; i < records.size(); ++i) {
    const Value key = Value::I64(static_cast<int64_t>(i));
    Value out_key, out_value;
    KernelOutcome outcome =
        kernel->Run(key, records[i], &scratch, &out_key, &out_value);
    if (outcome == KernelOutcome::kBailout) {
      ++trace.bailouts;
      trace.statuses.push_back(vm.InvokeMap(key, records[i]).ToString());
      continue;
    }
    if (outcome == KernelOutcome::kEmit) {
      trace.emits.push_back(out_key.ToString() + " -> " +
                            out_value.ToString());
    }
    trace.statuses.push_back(Status::OK().ToString());
  }
  return trace;
}

// Compiles `program` and checks kernel-vs-VM equivalence over
// `records`; returns the kernel trace so callers can additionally
// assert on bailout counts.
Trace ExpectKernelMatchesVm(const mril::Program& program,
                            const std::vector<Value>& records,
                            const std::vector<int>& field_remap = {}) {
  CompileOptions options;
  options.field_remap = field_remap;
  Result<std::shared_ptr<const NativeKernel>> kernel =
      CompileKernel(program, options);
  EXPECT_OK(kernel.status());
  if (!kernel.ok()) return Trace{};
  Trace vm = RunVm(program, records, field_remap);
  Trace native = RunKernel(program, records, *kernel, field_remap);
  EXPECT_EQ(vm.emits, native.emits);
  EXPECT_EQ(vm.statuses, native.statuses);
  return native;
}

// map: if (rank >= threshold) emit(url, rank)
mril::Program SelectProjectProgram(int64_t threshold) {
  ProgramBuilder b("sel-proj");
  b.SetKeyType(FieldType::kStr);
  b.SetValueSchema(workloads::WebPagesSchema());
  FunctionBuilder& m = b.Map();
  m.LoadParam(1).GetField("rank").LoadI64(threshold).CmpGe();
  m.JmpIfFalse("end");
  m.LoadParam(1).GetField("url");
  m.LoadParam(1).GetField("rank");
  m.Emit();
  m.Label("end").Ret();
  return b.Build();
}

Value WebPage(std::string url, int64_t rank, std::string content) {
  return Value::List({Value::Str(std::move(url)), Value::I64(rank),
                      Value::Str(std::move(content))});
}

// ---------------------------------------------------------------
// Admission gate.

TEST(ShapeAdmission, SelectionProjectionIsAdmitted) {
  mril::Program program = SelectProjectProgram(10);
  ASSERT_OK(mril::VerifyProgram(program));
  ASSERT_OK_AND_ASSIGN(RelationalShape shape, ExtractShape(program));
  EXPECT_FALSE(shape.always_emits);
  EXPECT_GE(shape.emit_pc, 0);
  EXPECT_NE(shape.Describe(), "");
}

TEST(ShapeAdmission, SideEffectsAreRejectedWithReadableReason) {
  ProgramBuilder b("logger");
  b.SetKeyType(FieldType::kStr);
  b.SetValueSchema(workloads::WebPagesSchema());
  FunctionBuilder& m = b.Map();
  m.LoadParam(1).GetField("url").Log();
  m.LoadParam(1).GetField("url").LoadI64(1).Emit().Ret();
  mril::Program program = b.Build();
  Result<RelationalShape> shape = ExtractShape(program);
  ASSERT_FALSE(shape.ok());
  EXPECT_EQ(shape.status().code(), StatusCode::kNotSupported);
  EXPECT_NE(shape.status().message().find("log"), std::string::npos)
      << shape.status().ToString();
}

TEST(ShapeAdmission, MemberStateIsRejected) {
  ProgramBuilder b("stateful");
  b.SetKeyType(FieldType::kStr);
  b.SetValueSchema(workloads::WebPagesSchema());
  b.AddMember("seen", Value::I64(0));
  FunctionBuilder& m = b.Map();
  m.LoadMember("seen").LoadI64(1).Add().StoreMember("seen");
  m.LoadParam(1).GetField("url").LoadI64(1).Emit().Ret();
  Result<RelationalShape> shape = ExtractShape(b.Build());
  ASSERT_FALSE(shape.ok());
  EXPECT_EQ(shape.status().code(), StatusCode::kNotSupported);
}

TEST(ShapeAdmission, LoopsAreRejected) {
  ProgramBuilder b("loopy");
  b.SetKeyType(FieldType::kI64);
  b.SetValueSchema(workloads::WebPagesSchema());
  FunctionBuilder& m = b.Map();
  int i = m.NewLocal();
  m.LoadI64(0).StoreLocal(i);
  m.Label("loop");
  m.LoadLocal(i).LoadI64(3).CmpGe().JmpIfTrue("done");
  m.LoadLocal(i).LoadI64(1).Add().StoreLocal(i);
  m.Jmp("loop");
  m.Label("done");
  m.LoadLocal(i).LoadI64(1).Emit().Ret();
  Result<RelationalShape> shape = ExtractShape(b.Build());
  ASSERT_FALSE(shape.ok());
  EXPECT_EQ(shape.status().code(), StatusCode::kNotSupported);
}

TEST(ShapeAdmission, MultipleEmitSitesAreRejected) {
  ProgramBuilder b("two-emits");
  b.SetKeyType(FieldType::kStr);
  b.SetValueSchema(workloads::WebPagesSchema());
  FunctionBuilder& m = b.Map();
  m.LoadParam(1).GetField("rank").LoadI64(5).CmpGe();
  m.JmpIfFalse("other");
  m.LoadParam(1).GetField("url").LoadI64(1).Emit().Ret();
  m.Label("other");
  m.LoadParam(1).GetField("url").LoadI64(2).Emit().Ret();
  Result<RelationalShape> shape = ExtractShape(b.Build());
  ASSERT_FALSE(shape.ok());
  EXPECT_EQ(shape.status().code(), StatusCode::kNotSupported);
}

TEST(ShapeAdmission, OpaqueValueIsRejected) {
  ProgramBuilder b("opaque");
  b.SetKeyType(FieldType::kI64);
  b.SetValueSchema(workloads::WebPagesSchema());
  b.SetOpaqueValue();
  FunctionBuilder& m = b.Map();
  m.LoadParam(0).LoadI64(1).Emit().Ret();
  Result<RelationalShape> shape = ExtractShape(b.Build());
  ASSERT_FALSE(shape.ok());
  EXPECT_EQ(shape.status().code(), StatusCode::kNotSupported);
}

// ---------------------------------------------------------------
// Equivalence edge cases.

TEST(KernelEquivalence, NullFieldsBailAndReplayIdentically) {
  mril::Program program = SelectProjectProgram(10);
  std::vector<Value> records = {
      WebPage("http://a", 50, "x"),
      // Null where the predicate field should be: the typed
      // comparator cannot prove VM behavior, so the kernel must bail
      // and the replay must reproduce whatever the VM does.
      Value::List({Value::Str("http://b"), Value::Null(),
                   Value::Str("y")}),
      // Null in a projected (emitted) field.
      Value::List({Value::Null(), Value::I64(99), Value::Str("z")}),
      WebPage("http://c", 3, "w"),
  };
  Trace native = ExpectKernelMatchesVm(program, records);
  EXPECT_GE(native.bailouts, 1);
}

TEST(KernelEquivalence, MissingFieldsMatchVmErrors) {
  mril::Program program = SelectProjectProgram(10);
  std::vector<Value> records = {
      WebPage("http://a", 50, "x"),
      Value::List({Value::Str("http://short")}),  // no rank field
      Value::List({}),                            // empty record
      WebPage("http://b", 11, "y"),
  };
  ExpectKernelMatchesVm(program, records);
}

TEST(KernelEquivalence, RecordsFailingDecodeMatchVmErrors) {
  mril::Program program = SelectProjectProgram(10);
  // Non-list map values: a record that failed zero-copy decode
  // surfaces to the UDF as whatever the split produced; the kernel
  // must not guess.
  std::vector<Value> records = {
      Value::I64(7),
      Value::Str("not a record at all"),
      Value::Null(),
      WebPage("http://ok", 42, "x"),
  };
  Trace native = ExpectKernelMatchesVm(program, records);
  EXPECT_GE(native.bailouts, 3);
}

TEST(KernelEquivalence, InlineStorageBoundaryStrings) {
  // kInlineStrCap-byte strings are stored inline; one byte longer
  // switches storage class (owned/borrowed). Comparison and emission
  // must be storage-class-blind in both tiers.
  ProgramBuilder b("sso");
  b.SetKeyType(FieldType::kStr);
  b.SetValueSchema(workloads::WebPagesSchema());
  FunctionBuilder& m = b.Map();
  const std::string at_cap(kInlineStrCap, 'u');
  m.LoadParam(1).GetField("url").LoadStr(at_cap).CmpEq();
  m.JmpIfFalse("end");
  m.LoadParam(1).GetField("url");
  m.LoadParam(1).GetField("content");
  m.Emit();
  m.Label("end").Ret();
  mril::Program program = b.Build();

  const std::string over_cap(kInlineStrCap + 1, 'u');
  const std::string under_cap(kInlineStrCap - 1, 'u');
  std::string borrowed_backing = at_cap;  // outlives every Run()
  std::vector<Value> records = {
      Value::List({Value::Str(at_cap), Value::I64(1),
                   Value::Str(std::string(kInlineStrCap, 'c'))}),
      Value::List({Value::Str(over_cap), Value::I64(2),
                   Value::Str(std::string(kInlineStrCap + 1, 'c'))}),
      Value::List({Value::Str(under_cap), Value::I64(3),
                   Value::Str("short")}),
      Value::List({Value::Borrowed(borrowed_backing), Value::I64(4),
                   Value::Borrowed(borrowed_backing)}),
  };
  Trace vm = RunVm(program, records);
  // Exactly the at-cap and borrowed-at-cap records match.
  ASSERT_EQ(vm.emits.size(), 2u);
  ExpectKernelMatchesVm(program, records);
}

TEST(KernelEquivalence, AlwaysTrueSelectionEmitsEveryRecord) {
  // No predicate at all: the canonical always-true shape.
  ProgramBuilder b("always");
  b.SetKeyType(FieldType::kStr);
  b.SetValueSchema(workloads::WebPagesSchema());
  FunctionBuilder& m = b.Map();
  m.LoadParam(1).GetField("url");
  m.LoadParam(1).GetField("rank");
  m.Emit().Ret();
  mril::Program program = b.Build();
  ASSERT_OK_AND_ASSIGN(RelationalShape shape, ExtractShape(program));
  EXPECT_TRUE(shape.always_emits);

  std::vector<Value> records = {WebPage("http://a", 1, "x"),
                                WebPage("http://b", 2, "y")};
  Trace native = ExpectKernelMatchesVm(program, records);
  EXPECT_EQ(native.emits.size(), 2u);
}

TEST(KernelEquivalence, AlwaysFalseSelectionNeverEmits) {
  // The map provably never emits (FALSE formula, no emit site).
  ProgramBuilder b("never");
  b.SetKeyType(FieldType::kI64);
  b.SetValueSchema(workloads::WebPagesSchema());
  b.Map().Ret();
  mril::Program program = b.Build();
  ASSERT_OK_AND_ASSIGN(RelationalShape shape, ExtractShape(program));
  EXPECT_EQ(shape.emit_pc, -1);

  std::vector<Value> records = {WebPage("http://a", 1, "x"),
                                WebPage("http://b", 100, "y")};
  Trace native = ExpectKernelMatchesVm(program, records);
  EXPECT_TRUE(native.emits.empty());
  EXPECT_EQ(native.bailouts, 0);
}

TEST(KernelEquivalence, ContradictorySelectionNeverEmits) {
  // rank < 5 AND rank > 10: term-level always-false — no interval
  // canonicalization may turn this into an emit.
  ProgramBuilder b("contradiction");
  b.SetKeyType(FieldType::kI64);
  b.SetValueSchema(workloads::WebPagesSchema());
  FunctionBuilder& m = b.Map();
  m.LoadParam(1).GetField("rank").LoadI64(5).CmpLt().JmpIfFalse("end");
  m.LoadParam(1).GetField("rank").LoadI64(10).CmpGt().JmpIfFalse("end");
  m.LoadParam(1).GetField("rank").LoadI64(1).Emit();
  m.Label("end").Ret();
  mril::Program program = b.Build();

  std::vector<Value> records;
  for (int64_t r = 0; r < 20; ++r) {
    records.push_back(WebPage(StrPrintf("http://%d", int(r)), r, "c"));
  }
  Trace native = ExpectKernelMatchesVm(program, records);
  EXPECT_TRUE(native.emits.empty());
}

TEST(KernelEquivalence, EmptyProjectionViaRemappedFields) {
  // Column-group plans hand the kernel a field remap. A projected-away
  // field reads as null at runtime (the linked VM's kGetFieldNull);
  // the kernel must observe the same null, not the original value.
  ProgramBuilder b("remapped");
  b.SetKeyType(FieldType::kI64);
  b.SetValueSchema(workloads::WebPagesSchema());
  FunctionBuilder& m = b.Map();
  m.LoadParam(1).GetField("rank").LoadI64(10).CmpGe().JmpIfFalse("end");
  m.LoadParam(1).GetField("rank");
  m.LoadParam(1).GetField("url");  // projected away below
  m.Emit();
  m.Label("end").Ret();
  mril::Program program = b.Build();

  // Runtime records carry only [rank]; url and content were dropped.
  const std::vector<int> remap = {-1, 0, -1};
  std::vector<Value> records = {
      Value::List({Value::I64(50)}),
      Value::List({Value::I64(3)}),
      Value::List({Value::I64(10)}),
  };
  Trace native = ExpectKernelMatchesVm(program, records, remap);
  EXPECT_EQ(native.emits.size(), 2u);
  // The projected-away operand really surfaced as null.
  EXPECT_NE(native.emits[0].find("null"), std::string::npos)
      << native.emits[0];
}

TEST(KernelEquivalence, FaultingArithmeticBailsToVmError) {
  // key = rank % rank: faults exactly when rank == 0. The term is
  // non-total, so the kernel evaluates it up front on every record
  // and must bail (never emit, never swallow) where the VM errors.
  ProgramBuilder b("modzero");
  b.SetKeyType(FieldType::kI64);
  b.SetValueSchema(workloads::WebPagesSchema());
  FunctionBuilder& m = b.Map();
  m.LoadParam(1).GetField("rank");
  m.LoadParam(1).GetField("rank");
  m.Mod();
  m.LoadI64(1).Emit().Ret();
  mril::Program program = b.Build();

  std::vector<Value> records = {
      WebPage("http://a", 7, "x"),
      WebPage("http://b", 0, "boom"),
      WebPage("http://c", 3, "y"),
  };
  Trace native = ExpectKernelMatchesVm(program, records);
  EXPECT_GE(native.bailouts, 1);
  // The VM error really surfaced through the replay.
  bool saw_error = false;
  for (const std::string& s : native.statuses) {
    if (s.find("OK") == std::string::npos) saw_error = true;
  }
  EXPECT_TRUE(saw_error);
}

TEST(KernelEquivalence, SelectivityOrderingDoesNotChangeResults) {
  // Two total terms with explicit selectivity hints, swapped between
  // compiles: short-circuit order is an optimization, never a
  // semantics change.
  ProgramBuilder b("ordered");
  b.SetKeyType(FieldType::kI64);
  b.SetValueSchema(workloads::WebPagesSchema());
  FunctionBuilder& m = b.Map();
  m.LoadParam(1).GetField("rank").LoadI64(10).CmpGe().JmpIfFalse("end");
  m.LoadParam(1).GetField("rank").LoadI64(90).CmpLt().JmpIfFalse("end");
  m.LoadParam(1).GetField("rank").LoadI64(1).Emit();
  m.Label("end").Ret();
  mril::Program program = b.Build();
  ASSERT_OK_AND_ASSIGN(RelationalShape shape, ExtractShape(program));
  ASSERT_EQ(shape.formula.disjuncts.size(), 1u);
  ASSERT_EQ(shape.formula.disjuncts[0].terms.size(), 2u);
  const std::string t0 = shape.formula.disjuncts[0].terms[0].ToString();
  const std::string t1 = shape.formula.disjuncts[0].terms[1].ToString();

  std::vector<Value> records;
  for (int64_t r = 0; r < 100; r += 7) {
    records.push_back(WebPage(StrPrintf("http://%d", int(r)), r, "c"));
  }
  Trace vm = RunVm(program, records);
  for (bool swap : {false, true}) {
    CompileOptions options;
    options.term_selectivity = {{t0, swap ? 0.9 : 0.1},
                                {t1, swap ? 0.1 : 0.9}};
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<const NativeKernel> kernel,
                         CompileKernel(program, options));
    Trace native = RunKernel(program, records, kernel);
    EXPECT_EQ(vm.emits, native.emits);
    EXPECT_EQ(vm.statuses, native.statuses);
    EXPECT_EQ(native.bailouts, 0);
  }
}

// ---------------------------------------------------------------
// Reduce folds (docs/mril.md "Reduce folds"): admission of sum/count
// reduce() bodies, and fold-vs-VM equivalence per group.

// A reduce shaped like the workloads' sum loop, with one deviation
// per knob. The map is a fixed pass-through; only reduce() matters.
struct ReduceSpec {
  Value init = Value::I64(0);
  bool init_from_key = false;  // acc := key (not a constant)
  bool multiply = false;       // acc := acc * term
  std::optional<Value> constant_term;  // acc := acc + c (a count)
  std::vector<int64_t> path;           // list.get chain into the value
  bool member_store = false;
  bool log = false;
  bool emit_in_loop = false;
  bool second_emit = false;
};

mril::Program FoldProgram(const ReduceSpec& spec) {
  ProgramBuilder b("fold");
  b.SetKeyType(FieldType::kI64);
  b.SetValueSchema(workloads::WebPagesSchema());
  b.AddMember("last", Value::I64(0));
  FunctionBuilder& m = b.Map();
  m.LoadParam(1).GetField("rank").LoadParam(1).GetField("rank").Emit();
  m.Ret();
  FunctionBuilder& r = b.Reduce();
  const int i = r.NewLocal();
  const int n = r.NewLocal();
  const int acc = r.NewLocal();
  if (spec.init_from_key) {
    r.LoadParam(0).StoreLocal(acc);
  } else {
    r.LoadConst(spec.init).StoreLocal(acc);
  }
  r.LoadI64(0).StoreLocal(i);
  r.LoadParam(1).Call("list.len").StoreLocal(n);
  r.Label("loop");
  r.LoadLocal(i).LoadLocal(n).CmpGe().JmpIfTrue("done");
  if (spec.log) r.LoadLocal(i).Log();
  if (spec.member_store) r.LoadLocal(i).StoreMember("last");
  r.LoadLocal(acc);
  if (spec.constant_term.has_value()) {
    r.LoadConst(*spec.constant_term);
  } else {
    r.LoadParam(1).LoadLocal(i).Call("list.get");
    for (int64_t k : spec.path) r.LoadI64(k).Call("list.get");
  }
  if (spec.multiply) {
    r.Mul();
  } else {
    r.Add();
  }
  r.StoreLocal(acc);
  if (spec.emit_in_loop) r.LoadParam(0).LoadLocal(acc).Emit();
  r.LoadLocal(i).LoadI64(1).Add().StoreLocal(i);
  r.Jmp("loop");
  r.Label("done");
  r.LoadParam(0).LoadLocal(acc).Emit();
  if (spec.second_emit) r.LoadParam(0).LoadLocal(acc).Emit();
  r.Ret();
  return b.Build();
}

TEST(FoldAdmission, WorkloadReducesAreAdmitted) {
  for (const mril::Program& program :
       {workloads::Benchmark2Aggregation(),
        workloads::Benchmark4UdfAggregation(),
        workloads::SelectionCountQuery(10)}) {
    SCOPED_TRACE(program.name);
    ASSERT_OK(mril::VerifyProgram(program));
    ASSERT_OK_AND_ASSIGN(FoldShape shape, ExtractFoldShape(program));
    EXPECT_EQ(shape.init, Value::I64(0));
    EXPECT_FALSE(shape.constant_term.has_value());
    EXPECT_TRUE(shape.path.empty());
    EXPECT_GT(shape.steps_per_value, 0);
  }
  // B3 sums one field of each joined tuple: a one-step list.get chain.
  ASSERT_OK_AND_ASSIGN(FoldShape b3, ExtractFoldShape(
                                         workloads::Benchmark3Join(0, 1)));
  EXPECT_EQ(b3.path, std::vector<int64_t>{workloads::kUvAdRevenue});
  EXPECT_NE(b3.Describe().find("v[3]"), std::string::npos)
      << b3.Describe();

  ReduceSpec count;
  count.constant_term = Value::I64(1);
  ASSERT_OK_AND_ASSIGN(FoldShape counted,
                       ExtractFoldShape(FoldProgram(count)));
  EXPECT_EQ(counted.constant_term, Value::I64(1));
  ReduceSpec f64_init;
  f64_init.init = Value::F64(0.5);
  ASSERT_OK_AND_ASSIGN(FoldShape promoted,
                       ExtractFoldShape(FoldProgram(f64_init)));
  EXPECT_EQ(promoted.init, Value::F64(0.5));
}

TEST(FoldAdmission, NonFoldsAreRejectedWithReadableReason) {
  struct Case {
    const char* name;
    ReduceSpec spec;
    const char* reason;
  };
  std::vector<Case> cases(6);
  cases[0] = {"member store", {}, "side effects"};
  cases[0].spec.member_store = true;
  cases[1] = {"log", {}, "log"};
  cases[1].spec.log = true;
  cases[2] = {"emit in loop", {}, "multiple emit sites"};
  cases[2].spec.emit_in_loop = true;
  cases[3] = {"two emits", {}, "multiple emit sites"};
  cases[3].spec.second_emit = true;
  cases[4] = {"non-constant init", {}, "init is not a numeric constant"};
  cases[4].spec.init_from_key = true;
  cases[5] = {"acc * v", {}, "not acc + term"};
  cases[5].spec.multiply = true;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    mril::Program program = FoldProgram(c.spec);
    ASSERT_OK(mril::VerifyProgram(program));
    Result<FoldShape> shape = ExtractFoldShape(program);
    ASSERT_FALSE(shape.ok());
    EXPECT_EQ(shape.status().code(), StatusCode::kNotSupported);
    EXPECT_NE(shape.status().message().find(c.reason), std::string::npos)
        << shape.status().ToString();
  }

  // An emit inside the loop is rejected for its placement even when it
  // is the only one.
  ProgramBuilder b("emit-in-loop-only");
  b.SetKeyType(FieldType::kI64);
  b.SetValueSchema(workloads::WebPagesSchema());
  b.Map().LoadParam(0).LoadI64(1).Emit().Ret();
  FunctionBuilder& r = b.Reduce();
  const int i = r.NewLocal();
  r.LoadI64(0).StoreLocal(i);
  r.Label("loop");
  r.LoadLocal(i).LoadParam(1).Call("list.len").CmpGe().JmpIfTrue("done");
  r.LoadParam(0).LoadParam(1).LoadLocal(i).Call("list.get").Emit();
  r.LoadLocal(i).LoadI64(1).Add().StoreLocal(i);
  r.Jmp("loop");
  r.Label("done").Ret();
  Result<FoldShape> shape = ExtractFoldShape(b.Build());
  ASSERT_FALSE(shape.ok());
  EXPECT_NE(shape.status().message().find("emit"), std::string::npos)
      << shape.status().ToString();

  // A map-only program has nothing to fold.
  EXPECT_FALSE(ExtractFoldShape(SelectProjectProgram(1)).ok());
}

TEST(FoldAdmission, DoWhileLoopIsRejected) {
  // The body runs before the test and the test compares the old i, so
  // the last iteration reads list.get(values, len): the VM faults on
  // every group, which a sum over the values would not reproduce.
  ProgramBuilder b("do-while");
  b.SetKeyType(FieldType::kI64);
  b.SetValueSchema(workloads::WebPagesSchema());
  b.Map().LoadParam(0).LoadI64(1).Emit().Ret();
  FunctionBuilder& r = b.Reduce();
  const int i = r.NewLocal();
  const int n = r.NewLocal();
  const int acc = r.NewLocal();
  r.LoadI64(0).StoreLocal(acc);
  r.LoadI64(0).StoreLocal(i);
  r.LoadParam(1).Call("list.len").StoreLocal(n);
  r.Label("loop");
  r.LoadLocal(acc).LoadParam(1).LoadLocal(i).Call("list.get").Add();
  r.StoreLocal(acc);
  r.LoadLocal(i).LoadLocal(n);
  r.LoadLocal(i).LoadI64(1).Add().StoreLocal(i);
  r.CmpLt().JmpIfTrue("loop");
  r.LoadParam(0).LoadLocal(acc).Emit().Ret();
  mril::Program program = b.Build();
  ASSERT_OK(mril::VerifyProgram(program));
  mril::VmInstance vm(&program);
  vm.set_emit_sink([](const Value&, const Value&) { return Status::OK(); });
  EXPECT_FALSE(vm.InvokeReduce(Value::I64(1), Value::List({Value::I64(2)}))
                   .ok());
  Result<FoldShape> shape = ExtractFoldShape(program);
  ASSERT_FALSE(shape.ok());
  EXPECT_NE(shape.status().message().find("before its exit test"),
            std::string::npos)
      << shape.status().ToString();
}

// One group through the engine's reduce path: values encoded and put
// in canonical (sorted encoded-bytes) order, then either the VM alone
// or the fold with VM replay on bailout. Returns "key -> acc" or the
// status, so the two legs compare byte for byte.
std::vector<std::string> CanonicalEncoding(const std::vector<Value>& values) {
  std::vector<std::string> encoded;
  for (const Value& v : values) {
    std::string e;
    EXPECT_OK(EncodeValue(v, &e));
    encoded.push_back(std::move(e));
  }
  std::sort(encoded.begin(), encoded.end());
  return encoded;
}

std::string RunReduceGroup(const mril::Program& program,
                           const std::vector<Value>& group,
                           const FoldKernel* fold, int64_t max_steps,
                           bool* bailed = nullptr) {
  const std::vector<std::string> encoded = CanonicalEncoding(group);
  const Value key = Value::I64(7);
  if (fold != nullptr) {
    Value acc;
    const bool folded = fold->Fold(encoded, &acc);
    if (bailed != nullptr) *bailed = !folded;
    if (folded) return key.ToString() + " -> " + acc.ToString();
  }
  ValueList values;
  for (const std::string& e : encoded) {
    std::string_view in = e;
    Value v;
    EXPECT_OK(DecodeValue(&in, &v));
    values.push_back(std::move(v));
  }
  mril::VmOptions options;
  options.max_steps_per_invocation = max_steps;
  mril::VmInstance vm(&program, options);
  std::string out;
  vm.set_emit_sink([&](const Value& k, const Value& v) {
    out = k.ToString() + " -> " + v.ToString();
    return Status::OK();
  });
  Status s = vm.InvokeReduce(key, Value::List(std::move(values)));
  return s.ok() ? out : s.ToString();
}

// Asserts fold-with-replay == VM on every group; returns how many
// groups the fold bailed on.
int ExpectFoldMatchesVm(const mril::Program& program,
                        const std::vector<std::vector<Value>>& groups,
                        int64_t max_steps = mril::VmOptions{}
                                                .max_steps_per_invocation) {
  Result<std::shared_ptr<const FoldKernel>> fold =
      CompileFold(program, max_steps);
  EXPECT_OK(fold.status());
  if (!fold.ok()) return -1;
  int bailouts = 0;
  for (size_t g = 0; g < groups.size(); ++g) {
    SCOPED_TRACE("group " + std::to_string(g));
    bool bailed = false;
    EXPECT_EQ(RunReduceGroup(program, groups[g], fold->get(), max_steps,
                             &bailed),
              RunReduceGroup(program, groups[g], nullptr, max_steps));
    bailouts += bailed ? 1 : 0;
  }
  return bailouts;
}

TEST(FoldEquivalence, I64OverflowWraps) {
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int64_t min = std::numeric_limits<int64_t>::min();
  std::vector<std::vector<Value>> groups = {
      {Value::I64(max), Value::I64(1), Value::I64(5)},
      {Value::I64(min), Value::I64(-1)},
      {Value::I64(max), Value::I64(max), Value::I64(max)},
  };
  EXPECT_EQ(ExpectFoldMatchesVm(workloads::Benchmark2Aggregation(), groups),
            0);
}

TEST(FoldEquivalence, F64SumFollowsCanonicalOrder) {
  // 1.0 is absorbed when added to 1e16 (half an ulp, ties to even)
  // but survives when the large terms cancel first.
  const std::vector<Value> group = {Value::F64(1e16), Value::F64(1.0),
                                    Value::F64(-1e16)};
  // The group is order-sensitive: folding it forwards and backwards
  // in its canonical order disagrees, so matching the VM proves the
  // fold used the VM's order, not just the same multiset.
  const std::vector<std::string> canonical = CanonicalEncoding(group);
  double forward = 0, backward = 0;
  for (size_t i = 0; i < canonical.size(); ++i) {
    std::string_view a = canonical[i];
    std::string_view b = canonical[canonical.size() - 1 - i];
    Value va, vb;
    ASSERT_OK(DecodeValue(&a, &va));
    ASSERT_OK(DecodeValue(&b, &vb));
    forward += va.f64();
    backward += vb.f64();
  }
  ASSERT_NE(forward, backward);
  EXPECT_EQ(ExpectFoldMatchesVm(workloads::Benchmark2Aggregation(), {group}),
            0);
}

TEST(FoldEquivalence, MixedI64F64PromotesLikeTheVm) {
  std::vector<std::vector<Value>> groups = {
      {Value::I64(3), Value::F64(2.5), Value::I64(7)},
      {Value::F64(-0.0), Value::I64(0)},
      {Value::I64(std::numeric_limits<int64_t>::max()), Value::F64(1.5)},
  };
  EXPECT_EQ(ExpectFoldMatchesVm(workloads::Benchmark2Aggregation(), groups),
            0);
  ReduceSpec f64_init;
  f64_init.init = Value::F64(0.25);
  EXPECT_EQ(ExpectFoldMatchesVm(FoldProgram(f64_init),
                                {{Value::I64(1), Value::I64(2)}}),
            0);
  ReduceSpec f64_count;
  f64_count.constant_term = Value::F64(0.5);
  EXPECT_EQ(ExpectFoldMatchesVm(FoldProgram(f64_count), groups), 0);
}

TEST(FoldEquivalence, NonNumericValuesBailToTheVmError) {
  const mril::Program program = workloads::Benchmark2Aggregation();
  std::vector<std::vector<Value>> groups = {
      {Value::I64(1), Value::Str("x")},
      {Value::Null()},
      {Value::Bool(true), Value::I64(2)},
      {Value::List({Value::I64(1)})},
  };
  EXPECT_EQ(ExpectFoldMatchesVm(program, groups), 4);
  // The replay is what surfaces the VM's error.
  EXPECT_NE(RunReduceGroup(program, groups[0], nullptr,
                           mril::VmOptions{}.max_steps_per_invocation)
                .find("InvalidArgument"),
            std::string::npos);
}

TEST(FoldEquivalence, ListGetChainsMatchAndOutOfRangeBails) {
  auto visit = [](double revenue) {
    Record r(9, Value::I64(0));
    r[workloads::kUvSourceIp] = Value::Str("ip");
    r[workloads::kUvAdRevenue] = Value::F64(revenue);
    return Value::List(std::move(r));
  };
  const mril::Program b3 = workloads::Benchmark3Join(0, 1);
  EXPECT_EQ(ExpectFoldMatchesVm(b3, {{visit(1.5), visit(2.25)},
                                     {visit(-4)}}),
            0);
  // A short tuple: list.get past its end faults in the VM.
  std::vector<Value> short_tuple = {
      visit(1.0), Value::List({Value::Str("a"), Value::I64(2)})};
  EXPECT_EQ(ExpectFoldMatchesVm(b3, {short_tuple}), 1);
  EXPECT_NE(RunReduceGroup(b3, short_tuple, nullptr,
                           mril::VmOptions{}.max_steps_per_invocation)
                .find("OutOfRange"),
            std::string::npos);
  // A chain index outside every tuple bails on every group.
  ReduceSpec far;
  far.path = {99};
  EXPECT_EQ(ExpectFoldMatchesVm(FoldProgram(far), {{visit(1.0)}}), 1);
  // Nested chains descend one list per step.
  ReduceSpec nested;
  nested.path = {1, 0};
  Value inner = Value::List({Value::Str("s"),
                             Value::List({Value::I64(40), Value::Null()})});
  EXPECT_EQ(ExpectFoldMatchesVm(FoldProgram(nested), {{inner, inner}}), 0);
}

TEST(FoldEquivalence, CountIgnoresValueKinds) {
  ReduceSpec count;
  count.constant_term = Value::I64(1);
  EXPECT_EQ(ExpectFoldMatchesVm(
                FoldProgram(count),
                {{Value::Str("a"), Value::Null(), Value::F64(2)},
                 {Value::List({Value::I64(1)})}}),
            0);
}

TEST(FoldEquivalence, StepLimitBoundNeverOutrunsTheVm) {
  // With a tight step limit the VM fails groups past some length; the
  // fold must bail on every such group (so the replay reproduces the
  // error) and still fold the short ones.
  const mril::Program program = workloads::Benchmark2Aggregation();
  const int64_t max_steps = 300;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const FoldKernel> fold,
                       CompileFold(program, max_steps));
  int folded = 0, vm_failed = 0;
  for (int n = 1; n <= 40; ++n) {
    SCOPED_TRACE("group of " + std::to_string(n));
    std::vector<Value> group(n, Value::I64(n));
    const std::string vm =
        RunReduceGroup(program, group, nullptr, max_steps);
    bool bailed = false;
    EXPECT_EQ(RunReduceGroup(program, group, fold.get(), max_steps, &bailed),
              vm);
    const bool vm_ok = vm.find("exceeded") == std::string::npos;
    if (!vm_ok) {
      ++vm_failed;
      EXPECT_TRUE(bailed);
    }
    if (!bailed) ++folded;
  }
  EXPECT_GT(folded, 0);
  EXPECT_GT(vm_failed, 0);
}

TEST(FoldEquivalence, CorruptValuesBailLikeDecode) {
  const mril::Program program = workloads::Benchmark2Aggregation();
  ASSERT_OK_AND_ASSIGN(
      std::shared_ptr<const FoldKernel> fold,
      CompileFold(program, mril::VmOptions{}.max_steps_per_invocation));
  Value acc;
  const std::vector<std::string> truncated = {std::string(1, '\x03')};
  EXPECT_FALSE(fold->Fold(truncated, &acc));
  const std::vector<std::string> empty = {std::string()};
  EXPECT_FALSE(fold->Fold(empty, &acc));
}

}  // namespace
}  // namespace manimal
