// Block-skip filters — direct predicate evaluation on compressed
// blocks (paper §2.1 "operate directly on compressed data", ROADMAP
// item 3). Every seqfile's footer carries per-block [min, max] frames
// for every i64-valued stored slot (including dictionary CODES, which
// is sound because direct operation rewrites string predicates into
// code space). When the map()'s emit condition is a DNF of simple
// total comparisons, those frames can prove — before the block is
// read or decompressed — that no row in it satisfies the condition,
// and the whole block is elided from the scan.
//
// Admission is deliberately stricter than the native-kernel gate:
// EVERY term of the formula must be `field <op> const` (either
// order) over a total, fault-free comparison. A term that could fault
// (a call, arithmetic) or that we cannot read exactly disqualifies the
// whole program, because skipping a block also skips whatever the VM
// would have done on its rows — the bailout-replay exactness contract
// only holds if the skipped rows provably produce nothing, including
// no faults. Simple comparisons over decoded i64s are total, so a
// block whose bounds refute every disjunct is dead weight by
// construction.
//
// Elision rule, per block:
//   for each disjunct D of the DNF:
//     D is refuted iff some term of D is provably violated for every
//     value in the block's [min, max] frame (polarity-aware);
//   skip the block iff every disjunct is refuted.

#ifndef MANIMAL_CODEGEN_SKIP_H_
#define MANIMAL_CODEGEN_SKIP_H_

#include <memory>
#include <string>
#include <vector>

#include "columnar/seqfile.h"
#include "common/status.h"
#include "mril/program.h"

namespace manimal::codegen {

// Why a program/file pair was (or wasn't) admitted, for EXPLAIN and
// the journal.
struct BlockSkipReport {
  // True once the predicate passed admission, even if no block turned
  // out refutable (blocks_skipped == 0).
  bool admitted = false;
  std::string detail;          // reason when !admitted; summary when admitted
  uint64_t blocks_total = 0;
  uint64_t blocks_skipped = 0;  // true bits in the filter
};

// Builds the per-block skip bitmap (index = absolute block number,
// true = provably no row matches) for `program` scanning `reader`.
// `field_remap` maps original field index -> stored slot (empty =
// identity); pass the same remap the execution descriptor uses.
//
// Returns nullptr — with report->detail saying why — when the pair is
// inadmissible (no skip frames, formula not simple-total, no frame-
// provable term) or when no block can be skipped. Inadmissibility is
// never an error: the scan just runs un-elided.
std::shared_ptr<const std::vector<bool>> BuildBlockSkipFilter(
    const mril::Program& program, const columnar::SeqFileReader& reader,
    const std::vector<int>& field_remap, BlockSkipReport* report);

}  // namespace manimal::codegen

#endif  // MANIMAL_CODEGEN_SKIP_H_
