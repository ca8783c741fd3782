// Relational-shape extraction — the admission gate of the native
// codegen tier (ROADMAP item: bypass the interpretation ceiling; the
// Casper direction of lifting UDF semantics and retargeting them to a
// faster backend).
//
// A map() qualifies when the analyzer's recovered facts describe it
// EXACTLY: it is a pure selection+projection — a DNF emit condition
// (analyzer/select), functional emit operands (analysis/expr_recovery),
// no side effects (analysis/side_effects) — with no residual VM-only
// behavior. "No residual behavior" is the hard part: the VM evaluates
// every instruction on the executed path, so an arithmetic fault (div
// by zero, a type error) in code the recovered expressions do NOT
// cover would fire under the VM but not under a kernel that evaluates
// only the recovered expressions. ExtractShape therefore also proves
// coverage: every fault-capable instruction in map() must appear as an
// origin_pc inside the expressions the kernel will evaluate, and every
// conditional branch must test one of the formula's terms. Shapes that
// fail any test fall back to the VM — never a wrong answer, only a
// slower one.

#ifndef MANIMAL_CODEGEN_SHAPE_H_
#define MANIMAL_CODEGEN_SHAPE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analyzer/descriptor.h"
#include "common/status.h"
#include "mril/program.h"

namespace manimal::codegen {

// The exact relational semantics of one admitted map():
//   for each (key, record):
//     if formula(key, record): emit(key_expr, value_expr)
// An always-emitting map has a TRUE formula (one empty conjunct); a
// never-emitting map has a FALSE formula (no disjuncts) and null
// key/value expressions.
struct RelationalShape {
  analyzer::DnfFormula formula;
  analysis::ExprRef key_expr;    // null iff the map never emits
  analysis::ExprRef value_expr;  // null iff the map never emits
  bool always_emits = false;
  int emit_pc = -1;  // -1 iff the map never emits

  // Value-parameter fields referenced anywhere in the shape's
  // expressions (original schema indexes, pre-remap). Empty with
  // whole_record=false means the record content is never consulted.
  std::vector<int> used_fields;
  // True when some expression uses the record other than via plain
  // field access (e.g. emits the whole record).
  bool whole_record = false;

  std::string Describe() const;
};

// Decides admission. Errors are always StatusCode::kNotSupported with
// a human-readable reason (surfaced through EXPLAIN as the
// native-eligibility detail); any other code indicates an internal
// inconsistency.
Result<RelationalShape> ExtractShape(const mril::Program& program);

// The exact semantics of one admitted reduce() — a fold:
//   acc := init
//   for i in [0, list.len(values)): acc := acc + term(values[i])
//   emit(key, acc)
// where term is the value itself (empty `path`), a constant-index
// list.get chain into it (`path`, outermost index first), or a
// constant (`constant_term`: a count).
struct FoldShape {
  Value init;                          // numeric
  std::optional<Value> constant_term;  // numeric; set => path empty
  std::vector<int64_t> path;
  bool acc_on_left = true;  // bytecode operand order of the add
  // Upper bound on the VM steps one group of n values costs:
  // fixed_steps + n * steps_per_value. Counted in unlinked
  // instructions, which linking only fuses or drops.
  int64_t fixed_steps = 0;
  int64_t steps_per_value = 0;

  std::string Describe() const;
};

// Decides reduce-side admission from the analysis passes: the one
// natural loop of reduce() must count an induction variable over
// [0, list.len(values)) and update exactly one accumulator by a term
// of the current value, the loop's exit test must be the only
// conditional branch, the single emit must follow the loop and emit
// (key, acc), there must be no side effects and no builtin other than
// list.len / list.get, and every fault-capable instruction must feed
// the recovered fold. Errors are StatusCode::kNotSupported with a
// readable reason.
Result<FoldShape> ExtractFoldShape(const mril::Program& program);

}  // namespace manimal::codegen

#endif  // MANIMAL_CODEGEN_SHAPE_H_
