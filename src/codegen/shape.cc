#include "codegen/shape.h"

#include <algorithm>
#include <map>
#include <set>
#include <string_view>
#include <utility>

#include "analysis/cfg.h"
#include "analysis/expr_recovery.h"
#include "analysis/reaching_defs.h"
#include "analysis/side_effects.h"
#include "analyzer/select.h"
#include "common/strings.h"
#include "mril/builtins.h"

namespace manimal::codegen {

using analysis::Cfg;
using analysis::Expr;
using analysis::ExprRef;
using analysis::VarRef;
using mril::Opcode;

namespace {

// Opcodes whose VM handler can return an error status. Anything in
// map() drawn from this set must be reachable through the expressions
// the kernel evaluates, or a record could fault under the VM while the
// kernel silently succeeds.
bool CanFault(Opcode op) {
  switch (op) {
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kDiv:
    case Opcode::kMod:
    case Opcode::kNeg:
    case Opcode::kCmpLt:
    case Opcode::kCmpLe:
    case Opcode::kCmpGt:
    case Opcode::kCmpGe:
    case Opcode::kCmpEq:
    case Opcode::kCmpNe:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kNot:
    case Opcode::kCall:
    case Opcode::kGetField:
      return true;
    default:
      return false;
  }
}

void CollectOriginPcs(const ExprRef& expr, std::set<int>* pcs) {
  if (expr == nullptr) return;
  if (expr->origin_pc >= 0) pcs->insert(expr->origin_pc);
  for (const ExprRef& a : expr->args) CollectOriginPcs(a, pcs);
}

}  // namespace

std::string RelationalShape::Describe() const {
  std::string fields;
  if (whole_record) {
    fields = "whole-record";
  } else {
    for (int f : used_fields) {
      if (!fields.empty()) fields += ",";
      fields += std::to_string(f);
    }
    fields = "fields{" + fields + "}";
  }
  if (emit_pc < 0) return "never-emits " + fields;
  return StrPrintf(
      "select[%s] emit(%s, %s) %s", formula.ToString().c_str(),
      key_expr ? key_expr->ToString().c_str() : "?",
      value_expr ? value_expr->ToString().c_str() : "?", fields.c_str());
}

Result<RelationalShape> ExtractShape(const mril::Program& program) {
  const mril::Function& fn = program.map_fn;
  if (program.value_param_kind != mril::ValueParamKind::kRecord) {
    return Status::NotSupported("opaque value parameter");
  }
  std::vector<analysis::SideEffect> effects =
      analysis::FindSideEffects(fn);
  if (!effects.empty()) {
    return Status::NotSupported(
        StrPrintf("map() has side effects (%s at pc %d)",
                  effects[0].description.c_str(), effects[0].pc));
  }

  std::vector<int> emit_pcs;
  for (size_t pc = 0; pc < fn.code.size(); ++pc) {
    if (fn.code[pc].op == Opcode::kEmit) {
      emit_pcs.push_back(static_cast<int>(pc));
    }
  }
  if (emit_pcs.size() > 1) {
    return Status::NotSupported("multiple emit sites");
  }

  Cfg cfg = Cfg::Build(fn);
  if (cfg.HasCycle()) {
    return Status::NotSupported("loop in map()");
  }

  RelationalShape shape;
  analyzer::SelectResult sel = analyzer::FindSelect(program);
  if (emit_pcs.empty()) {
    // FALSE formula: the kernel skips every record (but the shape
    // still has to pass the fault-coverage test below — a never-emit
    // map may still divide by zero).
  } else if (sel.descriptor.has_value()) {
    shape.formula = sel.descriptor->formula;
  } else if (sel.always_emits) {
    shape.formula.disjuncts.push_back(analyzer::Conjunct{});
    shape.always_emits = true;
  } else {
    return Status::NotSupported("selection not detected: " +
                                sel.miss_reason);
  }

  analysis::ReachingDefs reaching(fn, cfg);
  analysis::ExprRecovery recovery(program, fn, cfg, reaching);

  std::string reason;
  std::vector<ExprRef> kernel_exprs;  // everything the kernel evaluates
  for (const analyzer::Conjunct& c : shape.formula.disjuncts) {
    for (const analyzer::SelectTerm& t : c.terms) {
      if (!analysis::IsFunctional(t.expr, &reason)) {
        return Status::NotSupported("non-functional selection term: " +
                                    reason);
      }
      kernel_exprs.push_back(t.expr);
    }
  }
  if (!emit_pcs.empty()) {
    shape.emit_pc = emit_pcs[0];
    auto [key_expr, value_expr] = recovery.EmitOperands(shape.emit_pc);
    if (!analysis::IsFunctional(key_expr, &reason)) {
      return Status::NotSupported("non-functional emit key: " + reason);
    }
    if (!analysis::IsFunctional(value_expr, &reason)) {
      return Status::NotSupported("non-functional emit value: " + reason);
    }
    shape.key_expr = key_expr;
    shape.value_expr = value_expr;
    kernel_exprs.push_back(key_expr);
    kernel_exprs.push_back(value_expr);
  }

  // Every conditional branch must test a formula term: the kernel
  // evaluates exactly the terms, so a branch over any other
  // expression could fault (non-bool condition, faulting operand)
  // invisibly to the kernel.
  for (size_t pc = 0; pc < fn.code.size(); ++pc) {
    if (!mril::IsConditionalBranch(fn.code[pc].op)) continue;
    ExprRef cond = recovery.BranchCondition(static_cast<int>(pc));
    bool matched = false;
    for (const ExprRef& term : kernel_exprs) {
      if (cond != nullptr && term->Equals(*cond)) {
        matched = true;
        break;
      }
    }
    if (!matched) {
      return Status::NotSupported(StrPrintf(
          "branch at pc %zu tests an expression outside the recovered "
          "selection formula", pc));
    }
  }

  // Fault coverage: every fault-capable instruction must feed an
  // expression the kernel evaluates. Dead computations (e.g. a stored
  // local nothing reads, a popped call result) fail this test — the
  // VM would still execute them, and they could fault.
  std::set<int> covered;
  for (const ExprRef& e : kernel_exprs) CollectOriginPcs(e, &covered);
  for (size_t pc = 0; pc < fn.code.size(); ++pc) {
    if (CanFault(fn.code[pc].op) &&
        covered.count(static_cast<int>(pc)) == 0) {
      return Status::NotSupported(StrPrintf(
          "instruction at pc %zu (%s) is not covered by the recovered "
          "expressions", pc,
          std::string(mril::GetOpcodeInfo(fn.code[pc].op).mnemonic)
              .c_str()));
    }
  }

  // Field usage, for the kernel's record-arity gate and for Describe.
  int num_fields = program.value_schema.opaque()
                       ? 1
                       : program.value_schema.num_fields();
  std::vector<bool> used(static_cast<size_t>(num_fields), false);
  for (const ExprRef& e : kernel_exprs) {
    if (!analysis::CollectUsedFields(e, &used)) {
      shape.whole_record = true;
    }
  }
  for (size_t i = 0; i < used.size(); ++i) {
    if (used[i]) shape.used_fields.push_back(static_cast<int>(i));
  }
  return shape;
}

namespace {

bool IsValuesParam(const ExprRef& e) {
  return e->kind == Expr::Kind::kParam &&
         e->index == mril::kReduceValuesParam;
}

bool IsCall(const ExprRef& e, std::string_view name, size_t arity) {
  return e->kind == Expr::Kind::kCall && e->builtin != nullptr &&
         e->builtin->name == name && e->args.size() == arity;
}

bool IsNumericConst(const ExprRef& e) {
  return e->kind == Expr::Kind::kConst && e->constant.is_numeric();
}

// A local the loop carries: one store before the loop, one inside it.
struct LoopVar {
  int slot = -1;
  int init_pc = -1;
  int update_pc = -1;
};

}  // namespace

std::string FoldShape::Describe() const {
  std::string term = "v";
  if (constant_term.has_value()) {
    term = constant_term->ToString();
  } else {
    for (int64_t k : path) {
      term += StrPrintf("[%lld]", static_cast<long long>(k));
    }
  }
  return StrPrintf("fold acc := %s; acc += %s per value; emit(key, acc)",
                   init.ToString().c_str(), term.c_str());
}

Result<FoldShape> ExtractFoldShape(const mril::Program& program) {
  if (!program.has_reduce()) return Status::NotSupported("no reduce()");
  const mril::Function& fn = *program.reduce_fn;
  std::vector<analysis::SideEffect> effects =
      analysis::FindSideEffects(fn);
  if (!effects.empty()) {
    return Status::NotSupported(
        StrPrintf("reduce() has side effects (%s at pc %d)",
                  effects[0].description.c_str(), effects[0].pc));
  }
  std::vector<int> emit_pcs;
  for (size_t pc = 0; pc < fn.code.size(); ++pc) {
    const mril::Instruction& inst = fn.code[pc];
    if (inst.op == Opcode::kEmit) emit_pcs.push_back(static_cast<int>(pc));
    if (inst.op == Opcode::kCall) {
      const mril::Builtin* b =
          mril::BuiltinRegistry::Get().FindById(inst.operand);
      if (b == nullptr || (b->name != "list.len" && b->name != "list.get")) {
        return Status::NotSupported(StrPrintf(
            "reduce() calls %s", b != nullptr ? b->name.c_str() : "?"));
      }
    }
  }
  if (emit_pcs.size() != 1) {
    return Status::NotSupported(emit_pcs.empty() ? "reduce() never emits"
                                                 : "multiple emit sites");
  }

  // The loop: exactly one natural loop whose exit test is the only
  // conditional branch, so every other block has at most one
  // successor and the code is three straight-line runs — before the
  // loop, its body, and after it.
  Cfg cfg = Cfg::Build(fn);
  std::vector<analysis::NaturalLoop> loops = cfg.NaturalLoops();
  if (loops.size() != 1) {
    return Status::NotSupported(loops.empty() ? "no loop over the values"
                                              : "more than one loop");
  }
  const analysis::NaturalLoop& loop = loops[0];
  const analysis::BasicBlock& header = cfg.block(loop.header);
  for (size_t pc = 0; pc < fn.code.size(); ++pc) {
    if (mril::IsConditionalBranch(fn.code[pc].op) &&
        static_cast<int>(pc) != header.last_pc) {
      return Status::NotSupported(StrPrintf(
          "conditional branch at pc %zu besides the loop's exit test", pc));
    }
  }
  int exit_edge = -1, stay_edge = -1;
  for (int eid : header.succ_edges) {
    (loop.body[cfg.edge(eid).to] ? stay_edge : exit_edge) = eid;
  }
  if (header.succ_edges.size() != 2 || exit_edge < 0 || stay_edge < 0) {
    return Status::NotSupported("loop header does not end in an exit test");
  }
  // Follows single-successor flow from `b` to `until` (-1: through the
  // returning block), counting instructions; false on any branch, a
  // revisit, or a block on the wrong side of the loop.
  auto walk = [&](int b, int until, bool in_loop, int64_t* steps,
                  std::vector<bool>* seen) {
    while (b != until) {
      const analysis::BasicBlock& bb = cfg.block(b);
      if ((*seen)[b] || loop.body[b] != in_loop) return false;
      (*seen)[b] = true;
      *steps += bb.last_pc - bb.first_pc + 1;
      if (bb.succ_edges.empty()) return until == -1;
      if (bb.succ_edges.size() != 1) return false;
      b = cfg.edge(bb.succ_edges[0]).to;
    }
    return true;
  };
  FoldShape shape;
  int64_t pre = 0, body = 0, post = 0;
  std::vector<bool> visited(cfg.blocks().size(), false);
  std::vector<bool> after_loop(cfg.blocks().size(), false);
  if (!walk(cfg.entry_block(), loop.header, false, &pre, &visited) ||
      !walk(cfg.edge(stay_edge).to, loop.header, true, &body, &visited) ||
      !walk(cfg.edge(exit_edge).to, -1, false, &post, &after_loop)) {
    return Status::NotSupported("control flow is not loop-then-emit");
  }
  const int emit_block = cfg.BlockOf(emit_pcs[0]);
  if (!after_loop[emit_block]) {
    return Status::NotSupported(loop.body[emit_block]
                                    ? "emit inside the loop"
                                    : "emit does not follow the loop");
  }
  const int64_t header_steps = header.last_pc - header.first_pc + 1;
  shape.fixed_steps = pre + header_steps + post;
  shape.steps_per_value = header_steps + body;

  // The loop-carried locals: exactly two, each stored once in the loop
  // and once before it. No store may share the header with the exit
  // test: each iteration must test before it updates (a do-while
  // would add one more term than the values hold).
  std::map<int, std::vector<int>> loop_stores;  // slot -> store pcs
  for (size_t b = 0; b < cfg.blocks().size(); ++b) {
    if (!loop.body[b]) continue;
    for (int pc = cfg.block(b).first_pc; pc <= cfg.block(b).last_pc; ++pc) {
      if (fn.code[pc].op != Opcode::kStoreLocal) continue;
      if (static_cast<int>(b) == loop.header) {
        return Status::NotSupported(
            "the loop updates a local before its exit test");
      }
      loop_stores[fn.code[pc].operand].push_back(pc);
    }
  }
  analysis::ReachingDefs reaching(fn, cfg);
  std::vector<LoopVar> vars;
  for (const auto& [slot, pcs] : loop_stores) {
    std::vector<int> defs = reaching.DefsReaching(
        header.first_pc, VarRef{VarRef::Kind::kLocal, slot});
    if (pcs.size() != 1 || defs.size() != 2 ||
        (defs[0] != pcs[0] && defs[1] != pcs[0])) {
      vars.clear();
      break;
    }
    vars.push_back(
        LoopVar{slot, defs[0] == pcs[0] ? defs[1] : defs[0], pcs[0]});
  }
  if (vars.size() != 2) {
    return Status::NotSupported(
        "the loop must update exactly an accumulator and an induction "
        "variable, each initialized before it");
  }

  // ExprRecovery leaves a loop-carried load Unknown at the load's pc;
  // a load whose reaching definitions are exactly a variable's pre-loop
  // and in-loop stores reads the value it holds on entry to the
  // current iteration (after the loop: its final value).
  analysis::ExprRecovery recovery(program, fn, cfg, reaching);
  auto carried = [&](const ExprRef& e, const LoopVar& v) {
    if (e->kind != Expr::Kind::kUnknown || e->origin_pc < 0) return false;
    const mril::Instruction& inst = fn.code[e->origin_pc];
    if (inst.op != Opcode::kLoadLocal || inst.operand != v.slot) {
      return false;
    }
    std::vector<int> defs = reaching.DefsReaching(
        e->origin_pc, VarRef{VarRef::Kind::kLocal, v.slot});
    return defs == std::vector<int>{std::min(v.init_pc, v.update_pc),
                                    std::max(v.init_pc, v.update_pc)};
  };
  auto is_const_i64 = [](const ExprRef& e, int64_t x) {
    return e->kind == Expr::Kind::kConst && e->constant.is_i64() &&
           e->constant.i64() == x;
  };
  auto counts_up = [&](const LoopVar& v, ExprRef* update) {
    *update = recovery.StoredValue(v.update_pc);
    const ExprRef& u = *update;
    if (!is_const_i64(recovery.StoredValue(v.init_pc), 0) ||
        u->kind != Expr::Kind::kOp || u->op != Opcode::kAdd ||
        u->args.size() != 2) {
      return false;
    }
    return (carried(u->args[0], v) && is_const_i64(u->args[1], 1)) ||
           (is_const_i64(u->args[0], 1) && carried(u->args[1], v));
  };
  ExprRef ind_update;
  if (!counts_up(vars[0], &ind_update)) {
    std::swap(vars[0], vars[1]);
    if (!counts_up(vars[0], &ind_update)) {
      return Status::NotSupported(
          "no induction variable counting i := 0, 1, ... over the values");
    }
  }
  const LoopVar& ind = vars[0];
  const LoopVar& acc = vars[1];

  ExprRef init = recovery.StoredValue(acc.init_pc);
  if (!IsNumericConst(init)) {
    return Status::NotSupported(
        "accumulator init is not a numeric constant: " + init->ToString());
  }
  shape.init = init->constant;
  ExprRef update = recovery.StoredValue(acc.update_pc);
  if (update->kind != Expr::Kind::kOp || update->op != Opcode::kAdd ||
      update->args.size() != 2) {
    return Status::NotSupported("accumulator update is not acc + term: " +
                                update->ToString());
  }
  ExprRef term;
  if (carried(update->args[0], acc)) {
    term = update->args[1];
  } else if (carried(update->args[1], acc)) {
    term = update->args[0];
    shape.acc_on_left = false;
  } else {
    return Status::NotSupported("accumulator update is not acc + term: " +
                                update->ToString());
  }
  if (IsNumericConst(term)) {
    shape.constant_term = term->constant;
  } else {
    ExprRef e = term;
    while (IsCall(e, "list.get", 2) && !IsValuesParam(e->args[0]) &&
           e->args[1]->kind == Expr::Kind::kConst &&
           e->args[1]->constant.is_i64()) {
      shape.path.insert(shape.path.begin(), e->args[1]->constant.i64());
      e = e->args[0];
    }
    if (!IsCall(e, "list.get", 2) || !IsValuesParam(e->args[0]) ||
        !carried(e->args[1], ind)) {
      return Status::NotSupported(
          "term is not the value, a constant-index list.get chain into "
          "it, or a constant: " + term->ToString());
    }
  }

  // The exit test: the loop runs while i < list.len(values).
  ExprRef cond = recovery.BranchCondition(header.last_pc);
  const bool exit_on_true = cfg.edge(exit_edge).kind ==
                            analysis::EdgeKind::kTrue;
  auto is_len = [](const ExprRef& e) {
    return IsCall(e, "list.len", 1) && IsValuesParam(e->args[0]);
  };
  bool bounded = false;
  if (cond->kind == Expr::Kind::kOp && cond->args.size() == 2) {
    const ExprRef& a = cond->args[0];
    const ExprRef& b = cond->args[1];
    const bool i_len = carried(a, ind) && is_len(b);
    const bool len_i = is_len(a) && carried(b, ind);
    bounded = exit_on_true ? (cond->op == Opcode::kCmpGe && i_len) ||
                                 (cond->op == Opcode::kCmpLe && len_i)
                           : (cond->op == Opcode::kCmpLt && i_len) ||
                                 (cond->op == Opcode::kCmpGt && len_i);
  }
  if (!bounded) {
    return Status::NotSupported(
        "loop bound is not i in [0, list.len(values)): " +
        cond->ToString());
  }

  auto [emit_key, emit_value] = recovery.EmitOperands(emit_pcs[0]);
  if (emit_key->kind != Expr::Kind::kParam ||
      emit_key->index != mril::kReduceKeyParam ||
      !carried(emit_value, acc)) {
    return Status::NotSupported(
        "emit is not (key, acc): emit(" + emit_key->ToString() + ", " +
        emit_value->ToString() + ")");
  }

  // Fault coverage, as for map(): every fault-capable instruction must
  // be one the fold accounts for.
  std::set<int> covered;
  for (const ExprRef& e : {cond, ind_update, update}) {
    CollectOriginPcs(e, &covered);
  }
  for (size_t pc = 0; pc < fn.code.size(); ++pc) {
    if (CanFault(fn.code[pc].op) &&
        covered.count(static_cast<int>(pc)) == 0) {
      return Status::NotSupported(StrPrintf(
          "instruction at pc %zu (%s) is not covered by the recovered "
          "fold", pc,
          std::string(mril::GetOpcodeInfo(fn.code[pc].op).mnemonic)
              .c_str()));
    }
  }
  return shape;
}

}  // namespace manimal::codegen
