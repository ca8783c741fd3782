// Journal tests: the JSON-lines run journal's schema invariants
// (every line parses, versioned, monotonically sequenced) and a
// golden-file test pinning the exact byte output of a deterministic
// single-threaded run — the journal is a machine-readable contract,
// so accidental field renames/reorders must fail loudly.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/faulty_env.h"
#include "core/manimal.h"
#include "exec/engine.h"
#include "mril/builder.h"
#include "obs/event.h"
#include "obs/journal.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "tests/test_util.h"
#include "workloads/datagen.h"
#include "workloads/pavlo.h"
#include "workloads/schemas.h"

namespace manimal::obs {
namespace {

using testing::TempDir;

// Replaces every occurrence of `from` with `to`.
std::string ReplaceAll(std::string s, const std::string& from,
                       const std::string& to) {
  for (size_t pos = 0; (pos = s.find(from, pos)) != std::string::npos;
       pos += to.size()) {
    s.replace(pos, from.size(), to);
  }
  return s;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

// Runs the full Manimal pipeline once (seqscan, 1 mapper, 1
// partition, speculation off) with the journal recording
// deterministically, and returns the journal text with the workspace
// root and auto-assigned job id normalized.
std::string RunDeterministicJob(const TempDir& dir) {
  Journal::Get().ResetForTest();
  Journal::Get().SetOutputPathForTest(dir.file("journal.jsonl"));
  Journal::Get().SetDeterministicForTest(true);

  workloads::WebPagesOptions gen;
  gen.num_pages = 400;
  gen.content_len = 32;
  gen.rank_range = 100;
  EXPECT_TRUE(
      workloads::GenerateWebPages(dir.file("pages.msq"), gen).ok());

  core::ManimalSystem::Options options;
  options.workspace_dir = dir.file("ws");
  options.simulated_startup_seconds = 0;
  options.map_parallelism = 1;
  options.num_partitions = 1;
  options.enable_speculation = false;
  auto system_or = core::ManimalSystem::Open(options);
  EXPECT_TRUE(system_or.ok()) << system_or.status().ToString();
  core::ManimalSystem::Submission job;
  job.program = workloads::SelectionCountQuery(50);
  job.input_path = dir.file("pages.msq");
  job.output_path = dir.file("out.prs");
  auto outcome_or = (*system_or)->Submit(job);
  EXPECT_TRUE(outcome_or.ok()) << outcome_or.status().ToString();

  Journal::Get().SetDeterministicForTest(false);
  Journal::Get().ResetForTest();

  auto text_or = ReadFileToString(dir.file("journal.jsonl"));
  EXPECT_TRUE(text_or.ok()) << text_or.status().ToString();
  std::string text = ReplaceAll(*text_or, dir.path(), "<ws>");
  return ReplaceAll(text, "\"" + outcome_or->job.job_id + "\"",
                    "\"job-0\"");
}

TEST(JournalTest, DisabledByDefaultAndCostsNothing) {
  Journal::Get().ResetForTest();
  ASSERT_FALSE(Journal::Get().enabled());
  const uint64_t before = Journal::Get().events_written();
  Emit<kJobFailed>("job-0", "error");
  EXPECT_EQ(Journal::Get().events_written(), before);
}

TEST(JournalTest, EveryLineIsVersionedSequencedJson) {
  TempDir dir("journal1");
  const std::string text = RunDeterministicJob(dir);
  const std::vector<std::string> lines = SplitLines(text);
  ASSERT_FALSE(lines.empty());

  uint64_t prev_seq = 0;
  bool saw_job_start = false, saw_job_finish = false,
       saw_plan = false, saw_commit = false;
  for (const std::string& line : lines) {
    JsonValue value;
    std::string error;
    ASSERT_TRUE(JsonParse(line, &value, &error))
        << error << " in: " << line;
    ASSERT_TRUE(value.is_object());
    EXPECT_EQ(value.NumberOr("v", -1), kJournalSchemaVersion);
    const double seq = value.NumberOr("seq", -1);
    EXPECT_GT(seq, static_cast<double>(prev_seq));
    prev_seq = static_cast<uint64_t>(seq);
    EXPECT_NE(value.Find("ts_us"), nullptr);
    const std::string event = value.StringOr("event", "");
    EXPECT_FALSE(event.empty());
    saw_job_start |= event == "job_start";
    saw_job_finish |= event == "job_finish";
    saw_plan |= event == "plan_selected";
    saw_commit |= event == "task_commit";
  }
  EXPECT_TRUE(saw_plan);
  EXPECT_TRUE(saw_job_start);
  EXPECT_TRUE(saw_commit);
  EXPECT_TRUE(saw_job_finish);
}

TEST(JournalTest, TaskEventsShareJobAndTaskIds) {
  TempDir dir("journal2");
  const std::string text = RunDeterministicJob(dir);
  for (const std::string& line : SplitLines(text)) {
    JsonValue value;
    std::string error;
    ASSERT_TRUE(JsonParse(line, &value, &error)) << error;
    const std::string event = value.StringOr("event", "");
    if (event == "task_start" || event == "task_commit") {
      EXPECT_EQ(value.StringOr("job", ""), "job-0") << line;
      const std::string task = value.StringOr("task", "");
      ASSERT_EQ(task.size(), 5u) << line;
      EXPECT_TRUE(task[0] == 'm' || task[0] == 'r') << line;
    }
  }
}

// The byte-exact contract: a fixed-seed single-threaded run must
// reproduce tests/golden/journal_submit.jsonl exactly (timestamps and
// wall-clock fields are zeroed by deterministic mode; workspace root
// and job id are normalized). If this fails because the schema
// INTENTIONALLY changed, regenerate the golden file from the
// "=== actual journal ===" dump below and bump kJournalSchemaVersion
// when a field was renamed, removed, or changed meaning.
TEST(JournalTest, GoldenFileIsByteStable) {
  TempDir dir("journal3");
  const std::string actual = RunDeterministicJob(dir);
  auto golden_or = ReadFileToString(
      std::string(MANIMAL_TEST_GOLDEN_DIR) + "/journal_submit.jsonl");
  ASSERT_TRUE(golden_or.ok()) << golden_or.status().ToString();
  EXPECT_EQ(actual, *golden_or)
      << "=== actual journal ===\n" << actual;
}

// One source, three sinks: a job with a forced shuffle spill and an
// injected fault (so a task retries) runs with the journal and the
// tracer both on. Every journal line must have exactly one trace
// instant of the same name, job, task and timestamp, and every event
// counter must have moved by exactly what the journal recorded.
TEST(JournalTest, JournalTraceAndCountersAgree) {
  TempDir dir("journal4");
  workloads::WebPagesOptions gen;
  gen.num_pages = 4000;
  gen.content_len = 128;
  gen.rank_range = 100;
  ASSERT_TRUE(
      workloads::GenerateWebPages(dir.file("pages.msq"), gen).ok());

  // Emits the whole content column through the shuffle.
  mril::ProgramBuilder b("spiller");
  b.SetKeyType(FieldType::kI64)
      .SetValueSchema(workloads::WebPagesSchema());
  auto& m = b.Map();
  m.LoadParam(1).GetField("rank");
  m.LoadParam(1).GetField("content");
  m.Emit().Ret();
  auto& r = b.Reduce();
  r.LoadParam(0);
  r.LoadParam(1).Call("list.len");
  r.Emit().Ret();

  exec::JobConfig config;
  config.map_parallelism = 2;
  config.num_partitions = 2;
  config.sort_buffer_bytes = 1;  // floored to 64 KiB per mapper: spills
  config.temp_dir = dir.file("tmp");
  config.output_path = dir.file("out.prs");
  config.simulated_startup_seconds = 0;
  config.simulated_disk_bytes_per_sec = 0;
  config.retry_backoff_ms = 0;
  config.enable_speculation = false;

  std::map<std::string, int64_t> before;
  for (const EventSpec* spec : kEvents) {
    for (const EventCounter& counter : spec->counters) {
      before[counter.name] =
          MetricsRegistry::Get().CounterValue(counter.name);
    }
  }
  Journal::Get().ResetForTest();
  Journal::Get().SetOutputPathForTest(dir.file("journal.jsonl"));
  Tracer::Get().ClearForTest();
  Tracer::Get().SetEnabledForTest(true);
  {
    FaultyEnv::Config fault;
    fault.fail_nth = 1;  // the first armed IO fails; its task retries
    ScopedFaultInjection inject(fault);
    auto result = exec::RunJob(
        optimizer::BaselineDescriptor(b.Build(), dir.file("pages.msq")),
        config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  Tracer::Get().SetEnabledForTest(false);
  const std::string trace_json = Tracer::Get().ExportJson();
  Tracer::Get().ClearForTest();
  Journal::Get().ResetForTest();

  // (event, job, task, ts) -> trace instants not yet matched by a
  // journal line.
  using Key = std::tuple<std::string, std::string, std::string, double>;
  std::map<Key, int> instants;
  JsonValue trace;
  std::string error;
  ASSERT_TRUE(JsonParse(trace_json, &trace, &error)) << error;
  for (const JsonValue& ev : trace.Find("traceEvents")->items) {
    const std::string name = ev.StringOr("name", "");
    if (ev.StringOr("ph", "") != "i" || FindEvent(name) == nullptr) {
      continue;
    }
    const JsonValue* args = ev.Find("args");
    ASSERT_NE(args, nullptr) << name;
    ++instants[{name, args->StringOr("job", ""), args->StringOr("task", ""),
                ev.NumberOr("ts", -1)}];
  }

  auto text_or = ReadFileToString(dir.file("journal.jsonl"));
  ASSERT_TRUE(text_or.ok()) << text_or.status().ToString();
  std::map<std::string, int64_t> lines_of;
  std::map<std::string, int64_t> field_sums;  // "<event>.<field>"
  for (const std::string& line : SplitLines(*text_or)) {
    JsonValue value;
    ASSERT_TRUE(JsonParse(line, &value, &error)) << error;
    const std::string event = value.StringOr("event", "");
    ++lines_of[event];
    for (const auto& [key, field] : value.members) {
      if (field.is_number()) {
        field_sums[event + "." + key] += static_cast<int64_t>(field.number);
      }
    }
    int& unmatched = instants[{event, value.StringOr("job", ""),
                               value.StringOr("task", ""),
                               value.NumberOr("ts_us", -1)}];
    EXPECT_GT(unmatched, 0) << "no trace instant for: " << line;
    --unmatched;
  }
  for (const auto& [key, unmatched] : instants) {
    EXPECT_EQ(unmatched, 0) << "journal lines and trace instants differ for "
                            << std::get<0>(key);
  }
  EXPECT_GT(lines_of["shuffle_spill"], 0);
  EXPECT_GT(lines_of["task_retry"], 0);
  EXPECT_EQ(lines_of["fault_injected"], 1);

  for (const EventSpec* spec : kEvents) {
    for (const EventCounter& counter : spec->counters) {
      const int64_t want =
          counter.field == nullptr
              ? lines_of[spec->name]
              : field_sums[std::string(spec->name) + "." + counter.field];
      EXPECT_EQ(MetricsRegistry::Get().CounterValue(counter.name) -
                    before[counter.name],
                want)
          << counter.name;
    }
  }
}

// Every event counter is listed by a metrics dump, including in a
// process that never fired its event.
TEST(JournalTest, MetricsDumpListsEveryEventCounter) {
  JsonValue dump;
  std::string error;
  ASSERT_TRUE(
      JsonParse(core::ManimalSystem::DumpMetricsJson(), &dump, &error))
      << error;
  const JsonValue* counters = dump.Find("counters");
  ASSERT_NE(counters, nullptr);
  int listed = 0;
  for (const EventSpec* spec : kEvents) {
    for (const EventCounter& counter : spec->counters) {
      EXPECT_NE(counters->Find(counter.name), nullptr) << counter.name;
      ++listed;
    }
  }
  EXPECT_EQ(listed, 6);
  EXPECT_NE(counters->Find("engine.plan_switches"), nullptr);
}

}  // namespace
}  // namespace manimal::obs
