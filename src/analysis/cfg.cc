#include "analysis/cfg.h"

#include <algorithm>
#include <set>

#include "common/check.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace manimal::analysis {

using mril::GetOpcodeInfo;
using mril::Instruction;
using mril::IsConditionalBranch;
using mril::Opcode;

const char* EdgeKindName(EdgeKind kind) {
  switch (kind) {
    case EdgeKind::kFallthrough:
      return "fall";
    case EdgeKind::kJump:
      return "jump";
    case EdgeKind::kTrue:
      return "true";
    case EdgeKind::kFalse:
      return "false";
  }
  return "?";
}

Cfg Cfg::Build(const Function& fn) {
  obs::ScopedSpan span("analysis.cfg_build", "analysis");
  span.AddArg("function", fn.name);
  obs::MetricsRegistry::Get().GetCounter("analysis.cfgs_built")
      ->Increment();
  const int n = static_cast<int>(fn.code.size());
  MANIMAL_CHECK(n > 0);

  // 1. Find leaders.
  std::set<int> leaders;
  leaders.insert(0);
  for (int pc = 0; pc < n; ++pc) {
    const Instruction& inst = fn.code[pc];
    if (mril::IsBranch(inst.op)) {
      leaders.insert(inst.operand);
      if (pc + 1 < n) leaders.insert(pc + 1);
    } else if (inst.op == Opcode::kReturn && pc + 1 < n) {
      leaders.insert(pc + 1);
    }
  }

  Cfg cfg;
  cfg.block_of_.assign(n, -1);

  // 2. Carve blocks.
  std::vector<int> sorted_leaders(leaders.begin(), leaders.end());
  for (size_t i = 0; i < sorted_leaders.size(); ++i) {
    BasicBlock bb;
    bb.id = static_cast<int>(i);
    bb.first_pc = sorted_leaders[i];
    bb.last_pc = (i + 1 < sorted_leaders.size() ? sorted_leaders[i + 1]
                                                : n) -
                 1;
    for (int pc = bb.first_pc; pc <= bb.last_pc; ++pc) {
      cfg.block_of_[pc] = bb.id;
    }
    cfg.blocks_.push_back(bb);
  }

  // 3. Edges.
  auto add_edge = [&cfg](int from, int to, EdgeKind kind, int branch_pc) {
    CfgEdge e;
    e.from = from;
    e.to = to;
    e.kind = kind;
    e.branch_pc = branch_pc;
    int eid = static_cast<int>(cfg.edges_.size());
    cfg.edges_.push_back(e);
    cfg.blocks_[from].succ_edges.push_back(eid);
    cfg.blocks_[to].pred_edges.push_back(eid);
  };

  for (const BasicBlock& bb : cfg.blocks_) {
    int last = bb.last_pc;
    const Instruction& inst = fn.code[last];
    switch (inst.op) {
      case Opcode::kReturn:
        break;  // flows to the (virtual) exit
      case Opcode::kJmp:
        add_edge(bb.id, cfg.block_of_[inst.operand], EdgeKind::kJump, -1);
        break;
      case Opcode::kJmpIfTrue:
        add_edge(bb.id, cfg.block_of_[inst.operand], EdgeKind::kTrue, last);
        MANIMAL_CHECK(last + 1 < n);
        add_edge(bb.id, cfg.block_of_[last + 1], EdgeKind::kFalse, last);
        break;
      case Opcode::kJmpIfFalse:
        add_edge(bb.id, cfg.block_of_[inst.operand], EdgeKind::kFalse,
                 last);
        MANIMAL_CHECK(last + 1 < n);
        add_edge(bb.id, cfg.block_of_[last + 1], EdgeKind::kTrue, last);
        break;
      default:
        // Verifier guarantees the function never falls off the end.
        MANIMAL_CHECK(last + 1 < n);
        add_edge(bb.id, cfg.block_of_[last + 1], EdgeKind::kFallthrough,
                 -1);
        break;
    }
  }
  return cfg;
}

bool Cfg::HasCycle() const {
  // Iterative DFS three-color cycle detection.
  enum { kWhite, kGray, kBlack };
  std::vector<int> color(blocks_.size(), kWhite);
  std::vector<std::pair<int, size_t>> stack;  // (block, next succ index)
  for (size_t root = 0; root < blocks_.size(); ++root) {
    if (color[root] != kWhite) continue;
    stack.emplace_back(static_cast<int>(root), 0);
    color[root] = kGray;
    while (!stack.empty()) {
      auto& [b, i] = stack.back();
      if (i < blocks_[b].succ_edges.size()) {
        int to = edges_[blocks_[b].succ_edges[i]].to;
        ++i;
        if (color[to] == kGray) return true;
        if (color[to] == kWhite) {
          color[to] = kGray;
          stack.emplace_back(to, 0);
        }
      } else {
        color[b] = kBlack;
        stack.pop_back();
      }
    }
  }
  return false;
}

std::vector<NaturalLoop> Cfg::NaturalLoops() const {
  const size_t n = blocks_.size();
  const std::vector<bool> reachable = ReachableBlocks();
  // Iterative dominator sets: dom(entry) = {entry},
  // dom(b) = {b} + the intersection of dom(p) over reachable preds p.
  std::vector<std::vector<bool>> dom(n, std::vector<bool>(n, true));
  dom[entry_block()].assign(n, false);
  dom[entry_block()][entry_block()] = true;
  for (bool changed = true; changed;) {
    changed = false;
    for (size_t b = 0; b < n; ++b) {
      if (!reachable[b] || static_cast<int>(b) == entry_block()) continue;
      std::vector<bool> next(n, true);
      for (int eid : blocks_[b].pred_edges) {
        const int p = edges_[eid].from;
        if (!reachable[p]) continue;
        for (size_t i = 0; i < n; ++i) next[i] = next[i] && dom[p][i];
      }
      next[b] = true;
      if (next != dom[b]) {
        dom[b] = std::move(next);
        changed = true;
      }
    }
  }
  std::vector<NaturalLoop> loops;
  for (const CfgEdge& e : edges_) {
    if (!reachable[e.from] || !dom[e.from][e.to]) continue;
    NaturalLoop loop;
    loop.header = e.to;
    loop.latch = e.from;
    loop.body.assign(n, false);
    loop.body[e.to] = true;
    // The body: every block that reaches the latch without passing
    // the header.
    std::vector<int> worklist = {e.from};
    while (!worklist.empty()) {
      const int b = worklist.back();
      worklist.pop_back();
      if (!reachable[b] || loop.body[b]) continue;
      loop.body[b] = true;
      for (int eid : blocks_[b].pred_edges) {
        worklist.push_back(edges_[eid].from);
      }
    }
    loops.push_back(std::move(loop));
  }
  return loops;
}

std::vector<bool> Cfg::BlocksReaching(int target) const {
  std::vector<bool> reaches(blocks_.size(), false);
  std::vector<int> worklist = {target};
  reaches[target] = true;
  while (!worklist.empty()) {
    int b = worklist.back();
    worklist.pop_back();
    for (int eid : blocks_[b].pred_edges) {
      int p = edges_[eid].from;
      if (!reaches[p]) {
        reaches[p] = true;
        worklist.push_back(p);
      }
    }
  }
  return reaches;
}

std::vector<bool> Cfg::ReachableBlocks() const {
  std::vector<bool> seen(blocks_.size(), false);
  std::vector<int> worklist = {entry_block()};
  seen[entry_block()] = true;
  while (!worklist.empty()) {
    int b = worklist.back();
    worklist.pop_back();
    for (int eid : blocks_[b].succ_edges) {
      int to = edges_[eid].to;
      if (!seen[to]) {
        seen[to] = true;
        worklist.push_back(to);
      }
    }
  }
  return seen;
}

std::string Cfg::ToDot(const Program& program, const Function& fn) const {
  std::string out = "digraph cfg {\n  node [shape=box, fontname=\"monospace\"];\n";
  out += "  entry [shape=ellipse, label=\"fn entry\"];\n";
  out += "  exit [shape=ellipse, label=\"fn exit\"];\n";
  auto dot_escape = [](const std::string& s) {
    std::string r;
    for (char c : s) {
      if (c == '"') r += "\\\"";
      else r.push_back(c);
    }
    return r;
  };
  for (const BasicBlock& bb : blocks_) {
    std::string label;
    for (int pc = bb.first_pc; pc <= bb.last_pc; ++pc) {
      label += dot_escape(mril::FormatInstruction(program, fn, pc));
      label += "\\l";
    }
    out += StrPrintf("  b%d [label=\"%s\"];\n", bb.id, label.c_str());
  }
  out += "  entry -> b0;\n";
  for (const CfgEdge& e : edges_) {
    out += StrPrintf("  b%d -> b%d [label=\"%s\"];\n", e.from, e.to,
                     EdgeKindName(e.kind));
  }
  // Return-terminated blocks flow to exit.
  for (const BasicBlock& bb : blocks_) {
    if (fn.code[bb.last_pc].op == Opcode::kReturn) {
      out += StrPrintf("  b%d -> exit;\n", bb.id);
    }
  }
  out += "}\n";
  return out;
}

}  // namespace manimal::analysis
