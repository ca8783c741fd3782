// perfbench_measure: the measuring process. It receives only file
// paths (inputs were generated beforehand by perfbench_gen), runs one
// workload as one client in a closed loop, and writes raw samples as
// JSON for perfbench/metrics.py to reduce.
//
//   perfbench_measure --workload <name> --input <input.msq>
//       --jobs <jobs.txt> --workspace <dir> --seconds <s>
//       --trace <0|1> --out <raw.json>
//
// --trace 0: set up several times (setup_s samples), then alternate
//   Submit and RunBaseline on each job's program until --seconds pass;
//   every job's output is checked against its program's first baseline.
// --trace 1: set up once, then alternate an untraced Submit with a
//   traced job of the same program (spans around analyzer::Analyze,
//   SubmitWithReport and optimizer::BuildPlan); then replay jobs
//   single-threaded through each layer (replay.h) and time native-kernel
//   compilation.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <malloc.h>
#include <unistd.h>

#include "codegen/kernel.h"
#include "codegen/shape.h"
#include "common/env.h"
#include "core/manimal.h"
#include "exec/pairfile.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "perfbench/replay.h"
#include "perfbench/trace.h"
#include "perfbench/workloads.h"

namespace manimal::perfbench {
namespace {

namespace fs = std::filesystem;
using core::ManimalSystem;

// setup_s is the median of at least kSetupRuns set-ups, repeated until
// they add up to kSetupMinSeconds so a short set-up (udf-scan builds
// nothing) still yields a steady median.
constexpr int kSetupRuns = 3;
constexpr int kSetupMaxRuns = 20;
constexpr double kSetupMinSeconds = 1.0;
constexpr int kMinJobs = 21;        // job_tail_s needs >= 10 beyond it
constexpr int kReplays = 3;         // replays per traced run

struct Args {
  std::string workload, input, jobs, workspace, out;
  double seconds = 0;
  bool trace = false;
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string Num(double v) { return obs::JsonNumber(v); }
std::string Int(uint64_t v) { return std::to_string(v); }
std::string Bool(bool v) { return v ? "true" : "false"; }

// FNV-1a over the job's canonical (sorted, encoded) output pairs, each
// length-prefixed; equal digests mean equal output multisets.
Result<uint64_t> OutputDigest(const std::string& path) {
  MANIMAL_ASSIGN_OR_RETURN(std::vector<std::string> pairs,
                           exec::ReadCanonicalPairs(path));
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ull;
  };
  for (const std::string& pair : pairs) {
    for (int i = 0; i < 8; ++i) {
      mix(static_cast<unsigned char>(pair.size() >> (8 * i)));
    }
    for (char c : pair) mix(static_cast<unsigned char>(c));
  }
  return h;
}

std::string CountersJson(const exec::JobCounters& c) {
  return "{\"input_records\":" + Int(c.input_records) +
         ",\"input_bytes\":" + Int(c.input_bytes) +
         ",\"bytes_decoded\":" + Int(c.bytes_decoded) +
         ",\"blocks_skipped\":" + Int(c.blocks_skipped) +
         ",\"map_output_records\":" + Int(c.map_output_records) +
         ",\"map_output_bytes\":" + Int(c.map_output_bytes) +
         ",\"output_records\":" + Int(c.output_records) +
         ",\"output_bytes\":" + Int(c.output_bytes) +
         ",\"shuffle_spilled_runs\":" + Int(c.shuffle_spilled_runs) +
         ",\"shuffle_spilled_bytes\":" + Int(c.shuffle_spilled_bytes) +
         ",\"task_retries\":" + Int(c.task_retries) +
         ",\"speculative_launches\":" + Int(c.speculative_launches) +
         ",\"tasks_failed\":" + Int(c.tasks_failed) +
         ",\"native_tasks\":" + Int(c.native_tasks) +
         ",\"native_bailout_records\":" + Int(c.native_bailout_records) +
         "}";
}

std::string PhasesJson(const exec::JobResult& job) {
  std::string out = "{";
  for (const auto& [name, phase] : job.phase_breakdown) {
    if (out.size() > 1) out += ",";
    out += obs::JsonQuote(name) + ":" + Num(phase.seconds);
  }
  return out + "}";
}

// The peak resident set (VmHWM) of this process, in KiB.
uint64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

class Bench {
 public:
  explicit Bench(Args args) : args_(std::move(args)) {}

  int Run() {
    std::ifstream jobs(args_.jobs);
    for (std::string line; std::getline(jobs, line);) {
      if (!line.empty()) {
        params_.push_back(std::strtoll(line.c_str(), nullptr, 10));
      }
    }
    if (params_.empty()) return Fail("no jobs in " + args_.jobs);
    Result<uint64_t> input_bytes = GetFileSize(args_.input);
    if (!input_bytes.ok()) return Fail(input_bytes.status().ToString());
    input_bytes_ = *input_bytes;
    out_dir_ = args_.workspace + "/out";

    Status status = FindIndexPrograms();
    if (status.ok()) status = args_.trace ? RunTraced() : RunPlain();
    if (!status.ok()) return Fail(status.ToString());
    return WriteRaw();
  }

 private:
  struct JobRecord {
    int64_t param = 0;
    bool traced = false;
    double seconds = 0;
    bool ok = false;
    bool match = false;
    std::string error;
    std::string access_path;
    double est_selectivity = -1;
    int64_t map_tasks = 0;
    exec::JobCounters counters;
    std::string phases = "{}";
  };
  struct BaselineRecord {
    int64_t param = 0;
    double seconds = 0;
    bool ok = false;
    uint64_t input_records = 0;
    uint64_t map_output_records = 0;
  };
  struct ReplayRecord {
    int job = 0;
    int64_t param = 0;
    bool ok = false;
    bool match = false;
    std::string error;
    ReplayResult result;
  };

  int Fail(const std::string& message) {
    std::fprintf(stderr, "perfbench_measure: %s\n", message.c_str());
    return 1;
  }

  // OutputDigest whose own memory does not count toward peak_rss_mb:
  // the high-water mark is folded in before the check, and after it the
  // check's memory is handed back and the mark reset to the current
  // resident set (clear_refs 5). Where the reset is refused, the peak
  // includes the checks.
  Result<uint64_t> CheckOutput(const std::string& path) {
    peak_rss_kb_ = std::max(peak_rss_kb_, PeakRssKb());
    Result<uint64_t> digest = OutputDigest(path);
    ::malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
    return digest;
  }

  ManimalSystem::Submission MakeSubmission(int64_t param,
                                           const std::string& out) const {
    ManimalSystem::Submission submission;
    submission.program = MakeProgram(args_.workload, param);
    submission.input_path = args_.input;
    submission.output_path = out_dir_ + "/" + out;
    return submission;
  }

  // The index-generation programs the analyzer hands back for the
  // workload's programs; the administrator accepts all of them.
  Status FindIndexPrograms() {
    std::set<std::string> signatures;
    for (int64_t param : std::set<int64_t>(params_.begin(), params_.end())) {
      mril::Program program = MakeProgram(args_.workload, param);
      MANIMAL_ASSIGN_OR_RETURN(analyzer::AnalysisReport report,
                               analyzer::Analyze(program));
      for (analyzer::IndexGenProgram& spec :
           analyzer::SynthesizeIndexPrograms(program, report)) {
        if (signatures.insert(spec.Signature()).second) {
          specs_.push_back(std::move(spec));
        }
      }
    }
    return Status::OK();
  }

  // One set-up on a fresh workspace: Open, BuildIndex for every index
  // program, and one warm-up Submit of the first job's program, so
  // lazy first-use work counts as set-up and timed jobs run warm.
  Status Setup(Tracer* tracer) {
    system_.reset();
    std::error_code ec;
    fs::remove_all(args_.workspace, ec);
    fs::create_directories(out_dir_, ec);
    if (ec) return Status::IOError("cannot create " + out_dir_);

    const double start = Now();
    {
      ScopedSpan span(tracer, "core.Open", -1);
      MANIMAL_ASSIGN_OR_RETURN(
          system_, ManimalSystem::Open(MakeOptions(args_.workload,
                                                   args_.workspace + "/ws")));
    }
    builds_.clear();
    for (const analyzer::IndexGenProgram& spec : specs_) {
      ScopedSpan span(tracer, "index.BuildIndex", -1);
      const double build_start = Now();
      MANIMAL_ASSIGN_OR_RETURN(exec::IndexBuildResult build,
                               system_->BuildIndex(spec, args_.input));
      builds_.push_back({spec.Signature(), Now() - build_start,
                         build.entry.artifact_bytes});
    }
    {
      // A failing system fails again in the timed loop, where it is
      // counted; set-up only needs the attempt.
      ScopedSpan span(tracer, "core.Submit", -1);
      (void)system_->Submit(MakeSubmission(params_[0], "warmup.out"));
    }
    setup_seconds_.push_back(Now() - start);
    // Flush what set-up wrote so its write-back does not overlap the
    // next set-up or the timed loop.
    ::sync();
    return Status::OK();
  }

  // One timed RunBaseline of `param`'s program; the first successful
  // one's output digest is the reference for that program's jobs.
  Status TimeBaseline(int64_t param, Tracer* tracer, int job) {
    ManimalSystem::Submission submission = MakeSubmission(param, "base.out");
    BaselineRecord record;
    record.param = param;
    Result<exec::JobResult> result = Status::Internal("not run");
    {
      ScopedSpan span(tracer, "core.RunBaseline", job);
      const double start = Now();
      result = system_->RunBaseline(submission);
      record.seconds = Now() - start;
    }
    // A job whose program has no reference counts as failed.
    record.ok = result.ok();
    if (result.ok()) {
      record.input_records = result->counters.input_records;
      record.map_output_records = result->counters.map_output_records;
      if (baseline_digest_.count(param) == 0) {
        Result<uint64_t> digest = CheckOutput(submission.output_path);
        record.ok = digest.ok();
        if (digest.ok()) baseline_digest_[param] = *digest;
      }
    }
    baselines_.push_back(record);
    return Status::OK();
  }

  // Fills the parts of `record` that come from a finished Submit.
  void RecordOutcome(const Result<ManimalSystem::SubmitOutcome>& outcome,
                     const std::string& output_path, int64_t map_tasks_before,
                     JobRecord* record) {
    record->ok = outcome.ok();
    if (!outcome.ok()) {
      record->error = outcome.status().ToString();
      return;
    }
    const exec::JobResult& job = outcome->job;
    record->access_path =
        exec::AccessPathName(outcome->plan.descriptor.access_path);
    record->est_selectivity = outcome->plan.explain.est_selectivity;
    record->counters = job.counters;
    record->phases = PhasesJson(job);
    record->map_tasks = MapTasks() - map_tasks_before -
                        static_cast<int64_t>(job.counters.speculative_launches);
    Result<uint64_t> digest = CheckOutput(output_path);
    auto expected = baseline_digest_.find(record->param);
    record->match = digest.ok() && expected != baseline_digest_.end() &&
                    expected->second == *digest;
    if (!digest.ok()) record->error = digest.status().ToString();
    if (record->match && replay_targets_.size() < kReplays &&
        replay_params_.insert(record->param).second) {
      replay_targets_.push_back(
          {static_cast<int>(jobs_.size()), record->param,
           outcome->plan.descriptor});
    }
  }

  static int64_t MapTasks() {
    return obs::MetricsRegistry::Get().GetCounter("exec.map_tasks")->Value();
  }

  bool KeepGoing(double start) const {
    const double elapsed = Now() - start;
    if (elapsed >= 3 * args_.seconds) return false;  // hard stop
    return elapsed < args_.seconds || jobs_.size() < kMinJobs;
  }

  Status RunPlain() {
    double total = 0;
    for (int i = 0; i < kSetupMaxRuns &&
                    (i < kSetupRuns || total < kSetupMinSeconds);
         ++i) {
      MANIMAL_RETURN_IF_ERROR(Setup(nullptr));
      total += setup_seconds_.back();
    }
    const double start = Now();
    for (size_t i = 0; KeepGoing(start); ++i) {
      JobRecord record;
      record.param = params_[i % params_.size()];
      ManimalSystem::Submission submission =
          MakeSubmission(record.param, "job.out");
      const int64_t tasks_before = MapTasks();
      const double job_start = Now();
      Result<ManimalSystem::SubmitOutcome> outcome =
          system_->Submit(submission);
      record.seconds = Now() - job_start;
      MANIMAL_RETURN_IF_ERROR(TimeBaseline(record.param, nullptr, -1));
      RecordOutcome(outcome, submission.output_path, tasks_before, &record);
      jobs_.push_back(std::move(record));
    }
    return Status::OK();
  }

  Status RunTraced() {
    MANIMAL_RETURN_IF_ERROR(Setup(&tracer_));
    const double start = Now();
    for (size_t i = 0; KeepGoing(start); ++i) {
      JobRecord record;
      // Each program runs once untraced and once traced, in alternating
      // order, so neither kind always runs second (on a warmer cache).
      record.param = params_[(i / 2) % params_.size()];
      record.traced = (i % 2 == 1) != ((i / 2) % 2 == 1);
      const int job = static_cast<int>(jobs_.size());
      if (baseline_digest_.count(record.param) == 0) {
        MANIMAL_RETURN_IF_ERROR(TimeBaseline(record.param, &tracer_, job));
      }
      ManimalSystem::Submission submission =
          MakeSubmission(record.param, "job.out");
      const int64_t tasks_before = MapTasks();
      Result<ManimalSystem::SubmitOutcome> outcome =
          Status::Internal("not run");
      Result<analyzer::AnalysisReport> report = Status::Internal("not run");
      if (!record.traced) {
        const double job_start = Now();
        outcome = system_->Submit(submission);
        record.seconds = Now() - job_start;
      } else {
        const double job_start = Now();
        {
          ScopedSpan span(&tracer_, "job", job);
          {
            ScopedSpan analyze(&tracer_, "analyzer.Analyze", job);
            report = analyzer::Analyze(submission.program);
          }
          if (report.ok()) {
            ScopedSpan submit(&tracer_, "core.SubmitWithReport", job);
            outcome = system_->SubmitWithReport(submission, *report);
          } else {
            outcome = report.status();
          }
        }
        record.seconds = Now() - job_start;
        if (report.ok()) {
          // Planning errors already failed the job above.
          ScopedSpan plan(&tracer_, "optimizer.BuildPlan", job);
          (void)optimizer::BuildPlan(submission.program, submission.input_path,
                                     *report, system_->catalog());
        }
      }
      RecordOutcome(outcome, submission.output_path, tasks_before, &record);
      jobs_.push_back(std::move(record));
    }
    // Workloads with fewer distinct programs replay them again, so
    // every workload's replay medians rest on kReplays samples.
    for (size_t i = 0; !replay_targets_.empty() && i < kReplays; ++i) {
      const ReplayTarget& target = replay_targets_[i % replay_targets_.size()];
      ReplayJob(target);
      CompileJob(target);
    }
    return Status::OK();
  }

  struct ReplayTarget {
    int job = 0;
    int64_t param = 0;
    exec::ExecutionDescriptor descriptor;
  };

  void ReplayJob(const ReplayTarget& target) {
    ReplayRecord record;
    record.job = target.job;
    record.param = target.param;
    const std::string out = out_dir_ + "/replay.out";
    const uint64_t budget =
        system_->options().sort_buffer_bytes / kThreads;
    Result<ReplayResult> result = Status::Internal("not run");
    {
      ScopedSpan span(&tracer_, "replay", target.job);
      result = Replay(target.descriptor, out, args_.workspace + "/replay",
                      budget, target.job, &tracer_);
    }
    record.ok = result.ok();
    if (!result.ok()) {
      record.error = result.status().ToString();
    } else {
      record.result = *result;
      Result<uint64_t> digest = CheckOutput(out);
      record.match =
          digest.ok() && digest.value() == baseline_digest_[target.param];
    }
    replays_.push_back(record);
  }

  // ExtractShape + CompileKernel for a plan the native tier admits.
  void CompileJob(const ReplayTarget& target) {
    const exec::ExecutionDescriptor& d = target.descriptor;
    if (!d.native_eligible) return;
    ScopedSpan span(&tracer_, "codegen.compile", target.job);
    if (!codegen::ExtractShape(d.program).ok()) return;
    codegen::CompileOptions options;
    options.field_remap = d.field_remap;
    options.term_selectivity = d.native_term_selectivity;
    (void)codegen::CompileKernel(d.program, options);
  }

  int WriteRaw() {
    std::string out = "{\"workload\":" + obs::JsonQuote(args_.workload) +
                      ",\"trace\":" + Bool(args_.trace) +
                      ",\"threads\":" + Int(kThreads) +
                      ",\"input_bytes\":" + Int(input_bytes_) +
                      ",\"index_programs\":" + Int(specs_.size()) +
                      ",\"peak_rss_kb\":" +
                      Int(std::max(peak_rss_kb_, PeakRssKb())) +
                      ",\"setup_s\":[";
    for (size_t i = 0; i < setup_seconds_.size(); ++i) {
      out += (i ? "," : "") + Num(setup_seconds_[i]);
    }
    out += "],\"builds\":[";
    for (size_t i = 0; i < builds_.size(); ++i) {
      out += std::string(i ? "," : "") + "{\"signature\":" +
             obs::JsonQuote(builds_[i].signature) +
             ",\"seconds\":" + Num(builds_[i].seconds) +
             ",\"artifact_bytes\":" + Int(builds_[i].artifact_bytes) + "}";
    }
    out += "],\"jobs\":[";
    for (size_t i = 0; i < jobs_.size(); ++i) {
      const JobRecord& j = jobs_[i];
      out += std::string(i ? ",\n" : "") +
             "{\"param\":" + std::to_string(j.param) +
             ",\"traced\":" + Bool(j.traced) +
             ",\"seconds\":" + Num(j.seconds) +
             ",\"ok\":" + Bool(j.ok) + ",\"match\":" + Bool(j.match) +
             ",\"error\":" + obs::JsonQuote(j.error) +
             ",\"access_path\":" + obs::JsonQuote(j.access_path) +
             ",\"est_selectivity\":" + Num(j.est_selectivity) +
             ",\"map_tasks\":" + std::to_string(j.map_tasks) +
             ",\"counters\":" + CountersJson(j.counters) +
             ",\"phases\":" + j.phases + "}";
    }
    out += "],\"baselines\":[";
    for (size_t i = 0; i < baselines_.size(); ++i) {
      const BaselineRecord& b = baselines_[i];
      out += std::string(i ? ",\n" : "") +
             "{\"param\":" + std::to_string(b.param) +
             ",\"seconds\":" + Num(b.seconds) + ",\"ok\":" + Bool(b.ok) +
             ",\"input_records\":" + Int(b.input_records) +
             ",\"map_output_records\":" + Int(b.map_output_records) + "}";
    }
    out += "],\"replays\":[";
    for (size_t i = 0; i < replays_.size(); ++i) {
      const ReplayRecord& r = replays_[i];
      out += std::string(i ? ",\n" : "") + "{\"job\":" + std::to_string(r.job) +
             ",\"param\":" + std::to_string(r.param) + ",\"ok\":" + Bool(r.ok) +
             ",\"match\":" + Bool(r.match) +
             ",\"error\":" + obs::JsonQuote(r.error) +
             ",\"map_steps\":" + Int(r.result.map_steps) +
             ",\"reduce_steps\":" + Int(r.result.reduce_steps) + "}";
    }
    out += "],\"spans\":" + tracer_.ToJson() + "}\n";

    std::ofstream file(args_.out, std::ios::binary | std::ios::trunc);
    file << out;
    file.close();
    if (!file) return Fail("cannot write " + args_.out);
    return 0;
  }

  struct BuildRecord {
    std::string signature;
    double seconds = 0;
    uint64_t artifact_bytes = 0;
  };

  const Args args_;
  std::vector<int64_t> params_;
  uint64_t input_bytes_ = 0;
  uint64_t peak_rss_kb_ = 0;
  std::string out_dir_;
  std::unique_ptr<ManimalSystem> system_;
  std::vector<analyzer::IndexGenProgram> specs_;
  std::vector<double> setup_seconds_;
  std::vector<BuildRecord> builds_;
  std::vector<JobRecord> jobs_;
  std::vector<BaselineRecord> baselines_;
  std::map<int64_t, uint64_t> baseline_digest_;
  std::set<int64_t> replay_params_;
  std::vector<ReplayTarget> replay_targets_;
  std::vector<ReplayRecord> replays_;
  Tracer tracer_;
};

}  // namespace
}  // namespace manimal::perfbench

int main(int argc, char** argv) {
  manimal::perfbench::Args args;
  std::string trace;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--input") args.input = value;
    else if (flag == "--jobs") args.jobs = value;
    else if (flag == "--workspace") args.workspace = value;
    else if (flag == "--out") args.out = value;
    else if (flag == "--seconds") args.seconds = std::atof(value.c_str());
    else if (flag == "--trace") trace = value;
  }
  if (!manimal::perfbench::IsWorkload(args.workload) || args.input.empty() ||
      args.jobs.empty() || args.workspace.empty() || args.out.empty() ||
      args.seconds <= 0 || (trace != "0" && trace != "1")) {
    std::fprintf(stderr,
                 "usage: perfbench_measure --workload <name> --input <file> "
                 "--jobs <file> --workspace <dir> --seconds <s> "
                 "--trace <0|1> --out <file>\n");
    return 2;
  }
  args.trace = trace == "1";
  return manimal::perfbench::Bench(std::move(args)).Run();
}
