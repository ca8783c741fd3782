#include "perfbench/replay.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "analyzer/expr_eval.h"
#include "common/env.h"
#include "exec/pairfile.h"
#include "exec/shuffle.h"
#include "mril/vm.h"
#include "serde/key_codec.h"
#include "serde/record_codec.h"

namespace manimal::perfbench {
namespace {

// Records (or groups) per batch: large enough that span overhead is
// negligible, small enough that a batch stays in cache.
constexpr size_t kBatch = 4096;

// Reads the whole file through RandomAccessFile in 1 MiB chunks.
Status ReadRaw(const std::string& path) {
  MANIMAL_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> file,
                           RandomAccessFile::Open(path));
  constexpr uint64_t kChunk = 1u << 20;
  std::string buffer;
  for (uint64_t offset = 0; offset < file->size(); offset += kChunk) {
    const uint64_t n = std::min(kChunk, file->size() - offset);
    MANIMAL_RETURN_IF_ERROR(file->ReadAt(offset, n, &buffer));
  }
  return Status::OK();
}

// The fabric's Appendix E pre-shuffle filter: true when the pair
// survives.
Result<bool> PassesKeyFilter(const exec::ExecutionDescriptor& d,
                             const Value& key) {
  if (!d.reduce_key_filter.has_value()) return true;
  for (const analyzer::SelectTerm& term :
       d.reduce_key_filter->required.terms) {
    MANIMAL_ASSIGN_OR_RETURN(
        Value verdict, analyzer::EvalExpr(term.expr, key, Value::Null()));
    if (!verdict.is_bool()) {
      return Status::Internal("non-boolean reduce filter term");
    }
    if (verdict.bool_value() != term.polarity) return false;
  }
  return true;
}

}  // namespace

Result<ReplayResult> Replay(const exec::ExecutionDescriptor& d,
                            const std::string& output_path,
                            const std::string& scratch_dir,
                            uint64_t mapper_budget_bytes, int job,
                            Tracer* tracer) {
  ReplayResult result;
  if (d.access_path == exec::AccessPath::kBTree) {
    ScopedSpan span(tracer, "index.seek", job);
    uint64_t index_bytes = 0;
    MANIMAL_RETURN_IF_ERROR(
        exec::CollectBTreeLocators(d.data_path, d.intervals, &index_bytes)
            .status());
  } else if (d.access_path == exec::AccessPath::kSeqScan) {
    ScopedSpan span(tracer, "columnar.read", job);
    MANIMAL_RETURN_IF_ERROR(ReadRaw(d.data_path));
  }

  std::unique_ptr<exec::InputPlan> plan;
  {
    ScopedSpan span(tracer, "columnar.scan", job);
    MANIMAL_ASSIGN_OR_RETURN(plan, exec::PlanInput(d, 1));
  }
  mril::VmOptions vm_options;
  vm_options.field_remap =
      d.field_remap.empty() ? plan->DerivedFieldRemap() : d.field_remap;
  mril::VmInstance map_vm(&d.program, vm_options);
  std::vector<std::pair<Value, Value>> emitted;
  map_vm.set_emit_sink([&emitted](const Value& k, const Value& v) {
    emitted.emplace_back(k, v);
    return Status::OK();
  });
  map_vm.set_log_sink([](const Value&) {});

  const bool has_reduce = d.program.has_reduce();
  std::unique_ptr<exec::Shuffle> shuffle;
  std::unique_ptr<exec::Shuffle::Mapper> mapper;
  std::unique_ptr<exec::PairFileWriter> out;
  if (has_reduce) {
    exec::Shuffle::Options options;
    options.temp_dir = scratch_dir;
    options.num_partitions = 1;
    options.mapper_budget_bytes = mapper_budget_bytes;
    options.metric_label = "perfbench.replay";
    MANIMAL_RETURN_IF_ERROR(CreateDirIfMissing(scratch_dir));
    shuffle = std::make_unique<exec::Shuffle>(options);
    mapper = shuffle->NewMapper();
  } else {
    ScopedSpan span(tracer, "exec.output_write", job);
    MANIMAL_ASSIGN_OR_RETURN(out, exec::PairFileWriter::Create(output_path));
  }

  std::vector<std::pair<int64_t, Value>> batch;
  std::string key_bytes, value_bytes, chunk;
  for (int s = 0; s < plan->num_splits(); ++s) {
    std::unique_ptr<exec::InputSplit> split;
    {
      ScopedSpan span(tracer, "columnar.scan", job);
      MANIMAL_ASSIGN_OR_RETURN(split, plan->OpenSplit(s));
    }
    bool more = true;
    while (more) {
      batch.clear();
      {
        ScopedSpan span(tracer, "columnar.scan", job);
        int64_t key = 0;
        Value value;
        while (batch.size() < kBatch) {
          MANIMAL_ASSIGN_OR_RETURN(more, split->Next(&key, &value));
          if (!more) break;
          batch.emplace_back(key, value.ToOwned());
        }
      }
      emitted.clear();
      {
        ScopedSpan span(tracer, "mril.map", job);
        for (const auto& [key, value] : batch) {
          MANIMAL_RETURN_IF_ERROR(map_vm.InvokeMap(Value::I64(key), value));
        }
      }
      uint64_t chunk_pairs = 0;
      {
        ScopedSpan span(tracer, "exec.emit", job);
        for (const auto& [k, v] : emitted) {
          MANIMAL_ASSIGN_OR_RETURN(bool keep, PassesKeyFilter(d, k));
          if (!keep) continue;
          if (has_reduce) {
            key_bytes.clear();
            MANIMAL_RETURN_IF_ERROR(EncodeOrderedKey(k, &key_bytes));
            value_bytes.clear();
            MANIMAL_RETURN_IF_ERROR(EncodeValue(v, &value_bytes));
            MANIMAL_RETURN_IF_ERROR(mapper->Add(0, key_bytes, value_bytes));
          } else {
            MANIMAL_RETURN_IF_ERROR(EncodeValue(k, &chunk));
            MANIMAL_RETURN_IF_ERROR(EncodeValue(v, &chunk));
            ++chunk_pairs;
          }
        }
      }
      if (!has_reduce && chunk_pairs > 0) {
        ScopedSpan span(tracer, "exec.output_write", job);
        MANIMAL_RETURN_IF_ERROR(out->AppendEncodedChunk(chunk, chunk_pairs));
        chunk.clear();
      }
    }
  }
  result.map_steps = static_cast<uint64_t>(map_vm.total_steps());

  if (has_reduce) {
    {
      ScopedSpan span(tracer, "exec.emit", job);
      MANIMAL_RETURN_IF_ERROR(mapper->Seal());
    }
    {
      ScopedSpan span(tracer, "exec.merge", job);
      MANIMAL_ASSIGN_OR_RETURN(std::unique_ptr<index::SortedStream> stream,
                               shuffle->FinishPartition(0));
      while (stream->Valid()) MANIMAL_RETURN_IF_ERROR(stream->Next());
    }
    {
      ScopedSpan span(tracer, "exec.output_write", job);
      MANIMAL_ASSIGN_OR_RETURN(out, exec::PairFileWriter::Create(output_path));
    }
    mril::VmInstance reduce_vm(&d.program);
    uint64_t chunk_pairs = 0;
    reduce_vm.set_emit_sink([&](const Value& k, const Value& v) {
      MANIMAL_RETURN_IF_ERROR(EncodeValue(k, &chunk));
      ++chunk_pairs;
      return EncodeValue(v, &chunk);
    });
    reduce_vm.set_log_sink([](const Value&) {});
    std::unique_ptr<index::SortedStream> stream;
    {
      ScopedSpan span(tracer, "exec.group", job);
      MANIMAL_ASSIGN_OR_RETURN(stream, shuffle->FinishPartition(0));
    }
    exec::GroupIterator groups(stream.get());
    std::vector<std::pair<Value, ValueList>> group_batch(kBatch);
    bool more = true;
    while (more) {
      size_t n = 0;
      {
        ScopedSpan span(tracer, "exec.group", job);
        while (n < kBatch) {
          auto& [key, values] = group_batch[n];
          MANIMAL_ASSIGN_OR_RETURN(more, groups.Next(&key, &values));
          if (!more) break;
          ++n;
        }
      }
      {
        ScopedSpan span(tracer, "mril.reduce", job);
        for (size_t i = 0; i < n; ++i) {
          MANIMAL_RETURN_IF_ERROR(reduce_vm.InvokeReduce(
              group_batch[i].first,
              Value::List(std::move(group_batch[i].second))));
        }
      }
      if (chunk_pairs > 0) {
        ScopedSpan span(tracer, "exec.output_write", job);
        MANIMAL_RETURN_IF_ERROR(out->AppendEncodedChunk(chunk, chunk_pairs));
        chunk.clear();
        chunk_pairs = 0;
      }
    }
    result.reduce_steps = static_cast<uint64_t>(reduce_vm.total_steps());
  }
  {
    ScopedSpan span(tracer, "exec.output_write", job);
    MANIMAL_RETURN_IF_ERROR(out->Finish().status());
  }
  return result;
}

}  // namespace manimal::perfbench
