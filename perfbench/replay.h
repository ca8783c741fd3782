// Single-threaded replay of one job's work through each layer's public
// functions, batch by batch, with one span per call into a layer:
//
//   columnar.read   raw file bytes via RandomAccessFile (SeqFile scans)
//   index.seek      BTreeReader open + seek + range iterate (B+Tree plans)
//   columnar.scan   InputSplit::Next over a batch (read+decode+deserialize)
//   mril.map        VmInstance::InvokeMap over the batch
//   exec.emit       reduce-key filter + key/value encoding +
//                   Shuffle::Mapper::Add / Seal
//   exec.merge      Shuffle::FinishPartition + draining the merged stream
//   exec.group      GroupIterator over a batch of groups (merges again)
//   mril.reduce     VmInstance::InvokeReduce over the batch
//   exec.output_write  PairFileWriter appends and Finish
//
// The replay's output file must equal the job's (canonical pairs).

#ifndef MANIMAL_PERFBENCH_REPLAY_H_
#define MANIMAL_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "exec/descriptor.h"
#include "perfbench/trace.h"

namespace manimal::perfbench {

struct ReplayResult {
  uint64_t map_steps = 0;     // VM instructions in map()
  uint64_t reduce_steps = 0;  // VM instructions in reduce()
};

// Replays `descriptor` into `output_path`, using `scratch_dir` for
// shuffle spills and `mapper_budget_bytes` as the one mapper's sort
// budget (the per-task share the job had).
Result<ReplayResult> Replay(const exec::ExecutionDescriptor& descriptor,
                            const std::string& output_path,
                            const std::string& scratch_dir,
                            uint64_t mapper_budget_bytes, int job,
                            Tracer* tracer);

}  // namespace manimal::perfbench

#endif  // MANIMAL_PERFBENCH_REPLAY_H_
