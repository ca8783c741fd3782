// Control-flow graph over an MRIL function (paper §3.1, Figure 4).
//
// Basic blocks are maximal single-entry single-exit instruction runs;
// edges carry the branch polarity that selects them, which the
// selection analyzer uses to build path conditions (conds(path) in the
// Figure 3 algorithm).

#ifndef MANIMAL_ANALYSIS_CFG_H_
#define MANIMAL_ANALYSIS_CFG_H_

#include <string>
#include <vector>

#include "mril/program.h"

namespace manimal::analysis {

using mril::Function;
using mril::Program;

enum class EdgeKind {
  kFallthrough,  // sequential flow
  kJump,         // unconditional jmp
  kTrue,         // conditional branch taken-on-true side
  kFalse,        // conditional branch taken-on-false side
};

const char* EdgeKindName(EdgeKind kind);

struct CfgEdge {
  int from = 0;
  int to = 0;
  EdgeKind kind = EdgeKind::kFallthrough;
  // The conditional-branch instruction that decides this edge
  // (meaningful for kTrue/kFalse; -1 otherwise).
  int branch_pc = -1;
};

// A natural loop: the blocks of one back edge latch -> header, where
// the header dominates the latch (every path from entry to the latch
// passes the header).
struct NaturalLoop {
  int header = -1;
  int latch = -1;
  std::vector<bool> body;  // per block id; includes header and latch
};

struct BasicBlock {
  int id = 0;
  int first_pc = 0;  // inclusive
  int last_pc = 0;   // inclusive
  std::vector<int> succ_edges;  // indexes into Cfg::edges()
  std::vector<int> pred_edges;
};

class Cfg {
 public:
  // The function must have passed the verifier.
  static Cfg Build(const Function& fn);

  const std::vector<BasicBlock>& blocks() const { return blocks_; }
  const std::vector<CfgEdge>& edges() const { return edges_; }
  const BasicBlock& block(int id) const { return blocks_.at(id); }
  const CfgEdge& edge(int id) const { return edges_.at(id); }

  // Entry block is always id 0 (contains pc 0).
  int entry_block() const { return 0; }

  // Block containing the given instruction.
  int BlockOf(int pc) const { return block_of_.at(pc); }

  // True if any cycle exists (loops make path enumeration unsafe for
  // selection analysis; the analyzer then declines to optimize).
  bool HasCycle() const;

  // One natural loop per back edge of the reachable CFG (an edge whose
  // target dominates its source). A cycle that is not a natural loop
  // (irreducible flow) has no back edge and is not reported, so
  // callers that need loop-free code must still check HasCycle().
  std::vector<NaturalLoop> NaturalLoops() const;

  // Blocks from which `target` is reachable (including target itself).
  std::vector<bool> BlocksReaching(int target) const;

  // Blocks reachable from entry.
  std::vector<bool> ReachableBlocks() const;

  // GraphViz rendering (Figure 4). Instruction text is resolved
  // against the program.
  std::string ToDot(const Program& program, const Function& fn) const;

 private:
  std::vector<BasicBlock> blocks_;
  std::vector<CfgEdge> edges_;
  std::vector<int> block_of_;  // pc -> block id
};

}  // namespace manimal::analysis

#endif  // MANIMAL_ANALYSIS_CFG_H_
