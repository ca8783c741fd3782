// Tests for the workload layer: data generators (determinism, schema
// conformance, statistical shape) and the Pavlo benchmark programs'
// semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "columnar/seqfile.h"
#include "mril/builtins.h"
#include "mril/vm.h"
#include "serde/record_codec.h"
#include "tests/test_util.h"
#include "workloads/datagen.h"
#include "workloads/pavlo.h"
#include "workloads/schemas.h"

namespace manimal::workloads {
namespace {

using testing::TempDir;

// ---------------- generators ----------------

TEST(DatagenTest, WebPagesSchemaAndDeterminism) {
  TempDir dir("gen1");
  WebPagesOptions gen;
  gen.num_pages = 500;
  gen.seed = 7;
  ASSERT_OK_AND_ASSIGN(auto s1,
                       GenerateWebPages(dir.file("a.msq"), gen));
  ASSERT_OK_AND_ASSIGN(auto s2,
                       GenerateWebPages(dir.file("b.msq"), gen));
  EXPECT_EQ(s1.bytes, s2.bytes);  // deterministic given the seed

  ASSERT_OK_AND_ASSIGN(auto reader,
                       columnar::SeqFileReader::Open(dir.file("a.msq")));
  EXPECT_EQ(reader->meta().original_schema, WebPagesSchema());
  ASSERT_OK_AND_ASSIGN(auto stream, reader->ScanAll());
  Record record;
  uint64_t count = 0;
  for (;;) {
    ASSERT_OK_AND_ASSIGN(bool more, stream.Next(&record));
    if (!more) break;
    ++count;
    EXPECT_OK(ValidateRecord(WebPagesSchema(), record));
    EXPECT_GE(record[kWpRank].i64(), 0);
    EXPECT_LT(record[kWpRank].i64(), gen.rank_range);
    EXPECT_NE(record[kWpUrl].str().find("http://"), std::string::npos);
  }
  EXPECT_EQ(count, gen.num_pages);
}

TEST(DatagenTest, DifferentSeedsDiffer) {
  TempDir dir("gen2");
  WebPagesOptions a, b;
  a.num_pages = b.num_pages = 200;
  a.seed = 1;
  b.seed = 2;
  ASSERT_OK(GenerateWebPages(dir.file("a.msq"), a).status());
  ASSERT_OK(GenerateWebPages(dir.file("b.msq"), b).status());
  ASSERT_OK_AND_ASSIGN(std::string fa, ReadFileToString(dir.file("a.msq")));
  ASSERT_OK_AND_ASSIGN(std::string fb, ReadFileToString(dir.file("b.msq")));
  EXPECT_NE(fa, fb);
}

TEST(DatagenTest, UserVisitsFieldsInRange) {
  TempDir dir("gen3");
  UserVisitsOptions gen;
  gen.num_visits = 1000;
  gen.num_pages = 100;
  ASSERT_OK(GenerateUserVisits(dir.file("v.msq"), gen).status());
  ASSERT_OK_AND_ASSIGN(auto reader,
                       columnar::SeqFileReader::Open(dir.file("v.msq")));
  ASSERT_OK_AND_ASSIGN(auto stream, reader->ScanAll());
  Record record;
  std::map<std::string, int> url_counts;
  for (;;) {
    ASSERT_OK_AND_ASSIGN(bool more, stream.Next(&record));
    if (!more) break;
    EXPECT_OK(ValidateRecord(UserVisitsSchema(), record));
    EXPECT_GE(record[kUvVisitDate].i64(), gen.date_epoch);
    EXPECT_LT(record[kUvVisitDate].i64(),
              gen.date_epoch + gen.date_range);
    EXPECT_GE(record[kUvAdRevenue].i64(), 0);
    EXPECT_GE(record[kUvDuration].i64(), 1);
    url_counts[std::string(record[kUvDestUrl].str())]++;
  }
  // Zipfian destination popularity: the most popular URL must dominate.
  int max_count = 0, total = 0;
  for (auto& [url, n] : url_counts) {
    max_count = std::max(max_count, n);
    total += n;
  }
  EXPECT_EQ(total, 1000);
  EXPECT_GT(max_count, 30);  // far above uniform (10 per URL)
}

TEST(DatagenTest, RankingsOpaqueBlobsUnpack) {
  TempDir dir("gen4");
  RankingsOptions gen;
  gen.num_pages = 100;
  ASSERT_OK(GenerateRankings(dir.file("r.msq"), gen).status());
  ASSERT_OK_AND_ASSIGN(auto reader,
                       columnar::SeqFileReader::Open(dir.file("r.msq")));
  EXPECT_TRUE(reader->meta().original_schema.opaque());
  ASSERT_OK_AND_ASSIGN(auto stream, reader->ScanAll());
  Record record;
  for (;;) {
    ASSERT_OK_AND_ASSIGN(bool more, stream.Next(&record));
    if (!more) break;
    ASSERT_OK_AND_ASSIGN(Record tuple,
                         OpaqueTupleCodec::Unpack(record[0].str()));
    ASSERT_EQ(tuple.size(), 3u);
    EXPECT_TRUE(tuple[kRankPageUrl].is_str());
    EXPECT_TRUE(tuple[kRankPageRank].is_i64());
    EXPECT_TRUE(tuple[kRankAvgDuration].is_i64());
  }
}

TEST(DatagenTest, RankingsPlainVariant) {
  TempDir dir("gen5");
  RankingsOptions gen;
  gen.num_pages = 50;
  gen.opaque_serialization = false;
  ASSERT_OK(GenerateRankings(dir.file("r.msq"), gen).status());
  ASSERT_OK_AND_ASSIGN(auto reader,
                       columnar::SeqFileReader::Open(dir.file("r.msq")));
  EXPECT_FALSE(reader->meta().original_schema.opaque());
  EXPECT_EQ(reader->meta().original_schema.num_fields(), 3);
}

TEST(DatagenTest, DocumentsEmbedUrls) {
  TempDir dir("gen6");
  DocumentsOptions gen;
  gen.num_docs = 50;
  gen.num_pages = 200;
  ASSERT_OK(GenerateDocuments(dir.file("d.msq"), gen).status());
  ASSERT_OK_AND_ASSIGN(auto reader,
                       columnar::SeqFileReader::Open(dir.file("d.msq")));
  ASSERT_OK_AND_ASSIGN(auto stream, reader->ScanAll());
  Record record;
  int docs_with_urls = 0;
  for (;;) {
    ASSERT_OK_AND_ASSIGN(bool more, stream.Next(&record));
    if (!more) break;
    if (record[1].str().find("http://") != std::string::npos) {
      ++docs_with_urls;
    }
  }
  EXPECT_EQ(docs_with_urls, 50);
}

// ---------------- benchmark program semantics ----------------

std::vector<std::pair<Value, Value>> RunMapOnce(
    const mril::Program& program, const Value& key, const Value& value) {
  mril::VmInstance vm(&program);
  std::vector<std::pair<Value, Value>> out;
  vm.set_emit_sink([&out](const Value& k, const Value& v) {
    out.emplace_back(k, v);
    return Status::OK();
  });
  EXPECT_OK(vm.InvokeMap(key, value));
  return out;
}

TEST(PavloProgramsTest, Benchmark1FiltersOnRank) {
  mril::Program p = Benchmark1Selection(100);
  Record high = {Value::Str("http://a"), Value::I64(500), Value::I64(9)};
  Record low = {Value::Str("http://b"), Value::I64(50), Value::I64(9)};
  ASSERT_OK_AND_ASSIGN(std::string high_blob,
                       OpaqueTupleCodec::Pack(high));
  ASSERT_OK_AND_ASSIGN(std::string low_blob, OpaqueTupleCodec::Pack(low));
  auto pass = RunMapOnce(p, Value::I64(0), Value::Str(high_blob));
  ASSERT_EQ(pass.size(), 1u);
  EXPECT_EQ(pass[0].first.str(), "http://a");
  EXPECT_EQ(pass[0].second.i64(), 500);
  EXPECT_TRUE(RunMapOnce(p, Value::I64(1), Value::Str(low_blob)).empty());
}

TEST(PavloProgramsTest, Benchmark1EmitsAnOwnedUrlFromABorrowedBlob) {
  // opaque.get_str slices a borrowed blob without copying it; the URL
  // the map emits must still be owned, because scans reuse the buffer
  // the blob points into.
  const std::string url = "http://www.example.com/long/enough/to/not/inline";
  Record row = {Value::Str(url), Value::I64(500), Value::I64(9)};
  ASSERT_OK_AND_ASSIGN(std::string blob, OpaqueTupleCodec::Pack(row));
  const mril::Builtin* get_str =
      mril::BuiltinRegistry::Get().FindByName("opaque.get_str");
  ASSERT_NE(get_str, nullptr);
  Value args[2] = {Value::Borrowed(blob), Value::I64(kRankPageUrl)};
  Value slice;
  ASSERT_OK(get_str->fn(args, &slice));
  EXPECT_EQ(slice.str(), url);
  ASSERT_TRUE(slice.is_borrowed_str());
  EXPECT_GT(slice.str().data(), blob.data());
  EXPECT_LE(slice.str().data() + url.size(), blob.data() + blob.size());
  args[0] = Value::Str(blob);
  ASSERT_OK(get_str->fn(args, &slice));
  EXPECT_EQ(slice.str(), url);
  EXPECT_FALSE(slice.is_borrowed_str());
  args[1] = Value::I64(kRankPageRank);
  EXPECT_FALSE(get_str->fn(args, &slice).ok());

  auto out = RunMapOnce(Benchmark1Selection(100), Value::I64(0),
                        Value::Borrowed(blob));
  std::fill(blob.begin(), blob.end(), 'x');  // the scan reuses its buffer
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].first.is_borrowed_str());
  EXPECT_EQ(out[0].first.str(), url);
  EXPECT_EQ(out[0].second.i64(), 500);
}

TEST(PavloProgramsTest, Benchmark3FiltersOnDateRange) {
  mril::Program p = Benchmark3Join(100, 200);
  Record visit = {Value::Str("1.2.3.4"), Value::Str("http://x"),
                  Value::I64(150),       Value::I64(10),
                  Value::Str("ua"),      Value::Str("USA"),
                  Value::Str("en"),      Value::Str("w"),
                  Value::I64(5)};
  auto in_range = RunMapOnce(p, Value::I64(0), Value::List(visit));
  ASSERT_EQ(in_range.size(), 1u);
  EXPECT_EQ(in_range[0].first.str(), "http://x");
  EXPECT_TRUE(in_range[0].second.is_list());  // whole tuple emitted

  visit[kUvVisitDate] = Value::I64(250);
  EXPECT_TRUE(RunMapOnce(p, Value::I64(1), Value::List(visit)).empty());
}

TEST(PavloProgramsTest, Benchmark4DeduplicatesPerDocument) {
  mril::Program p = Benchmark4UdfAggregation();
  Record doc = {
      Value::Str("http://self.example.com/"),
      Value::Str("see http://a.com/x twice http://a.com/x and "
                 "http://b.com/y plus http://self.example.com/ self")};
  auto out = RunMapOnce(p, Value::I64(0), Value::List(doc));
  // http://a.com/x deduped to one; self-link skipped; b.com kept.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].first.str(), "http://a.com/x");
  EXPECT_EQ(out[1].first.str(), "http://b.com/y");
}

TEST(PavloProgramsTest, Figure2MemberChangesBehaviour) {
  mril::Program p = Figure2Unsafe(1000);
  mril::VmInstance vm(&p);
  int emitted = 0;
  vm.set_emit_sink([&emitted](const Value&, const Value&) {
    ++emitted;
    return Status::OK();
  });
  Record row = {Value::Str("u"), Value::I64(0), Value::Str("c")};
  for (int i = 0; i < 201; ++i) {
    ASSERT_OK(vm.InvokeMap(Value::I64(i), Value::List(row)));
  }
  // Only invocation 201 (numMapsRun=201 > 200) emits.
  EXPECT_EQ(emitted, 1);
}

TEST(PavloProgramsTest, SelectionCountReduceCounts) {
  mril::Program p = SelectionCountQuery(0);
  mril::VmInstance vm(&p);
  std::vector<std::pair<Value, Value>> out;
  vm.set_emit_sink([&out](const Value& k, const Value& v) {
    out.emplace_back(k, v);
    return Status::OK();
  });
  ASSERT_OK(vm.InvokeReduce(
      Value::I64(7),
      Value::List({Value::I64(1), Value::I64(1), Value::I64(1)})));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].first.i64(), 7);
  EXPECT_EQ(out[0].second.i64(), 3);
}

TEST(PavloProgramsTest, DirectOpReduceNeverEmitsTheUrl) {
  mril::Program p = DirectOpQuery();
  mril::VmInstance vm(&p);
  std::vector<std::pair<Value, Value>> out;
  vm.set_emit_sink([&out](const Value& k, const Value& v) {
    out.emplace_back(k, v);
    return Status::OK();
  });
  ASSERT_OK(vm.InvokeReduce(
      Value::Str("http://secret"),
      Value::List({Value::I64(5), Value::I64(6)})));
  ASSERT_EQ(out.size(), 1u);
  // The sum, not the URL, is in the output.
  EXPECT_EQ(out[0].first.i64(), 11);
  EXPECT_FALSE(out[0].second.is_str());
}

}  // namespace
}  // namespace manimal::workloads
