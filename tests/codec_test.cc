// Tests for the SeqFile block codec (columnar/codec/): raw and mlz
// frame round-trips over adversarial and fuzzed column data, SeqFile
// round-trips with skip-frame verification on every file, corrupt
// frame and header handling (an unknown method byte, a multi-codec
// frame or a version-1 header must be a Corruption, never silent
// garbage), the MANIMAL_CODECS artifact policy, direct evaluation end
// to end, and the catalog's codec columns.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "analyzer/analyzer.h"
#include "analyzer/index_gen.h"
#include "columnar/codec/codec.h"
#include "columnar/dictionary.h"
#include "columnar/seqfile.h"
#include "common/coding.h"
#include "common/random.h"
#include "core/manimal.h"
#include "exec/pairfile.h"
#include "index/catalog.h"
#include "mril/builder.h"
#include "tests/test_util.h"

namespace manimal::columnar {
namespace {

using testing::TempDir;

Schema NumSchema() {
  return Schema({{"name", FieldType::kStr},
                 {"a", FieldType::kI64},
                 {"b", FieldType::kI64}});
}

Record Row(const std::string& name, int64_t a, int64_t b) {
  return {Value::Str(name), Value::I64(a), Value::I64(b)};
}

// ---------------- frames ----------------

std::string RoundTrip(bool compress, const std::string& in) {
  std::string framed;
  EncodeBlockFrame(in, compress, &framed);
  std::string out;
  EXPECT_OK(DecodeBlockFrame(framed, &out));
  return out;
}

TEST(CodecTest, EveryCodecRoundTripsAdversarialPayloads) {
  Rng rng(11);
  std::string random_bytes, text, runs, zeros(4096, '\0');
  for (int i = 0; i < 5000; ++i) {
    random_bytes.push_back(static_cast<char>(rng.Uniform(256)));
  }
  for (int i = 0; i < 200; ++i) {
    text += "field=" + std::to_string(i % 17) + "&rank=" +
            std::to_string(i) + ";";
  }
  for (int i = 0; i < 40; ++i) {
    runs.append(1 + rng.Uniform(400), static_cast<char>(rng.Uniform(4)));
  }
  const std::string payloads[] = {"", "x", "ab", zeros, random_bytes,
                                  text, runs};
  for (bool compress : {false, true}) {
    for (const std::string& payload : payloads) {
      SCOPED_TRACE(std::string(compress ? "mlz" : "raw") +
                   " payload size " + std::to_string(payload.size()));
      EXPECT_EQ(RoundTrip(compress, payload), payload);
    }
  }
}

TEST(CodecTest, MlzActuallyCompressesRepetitiveData) {
  std::string in;
  for (int i = 0; i < 500; ++i) in += "the quick brown fox 42 ";
  std::string framed;
  EncodeBlockFrame(in, /*compress=*/true, &framed);
  EXPECT_LT(framed.size(), in.size() / 4);
}

TEST(CodecTest, FuzzRandomChainsOverRandomColumnData) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    // Column-shaped data: blocks of varint-ish small ints, repeated
    // strings, and occasional incompressible noise.
    std::string payload;
    const uint32_t rows = rng.Uniform(600);  // 0 = empty block
    for (uint32_t r = 0; r < rows; ++r) {
      switch (rng.Uniform(3)) {
        case 0:
          payload += static_cast<char>(rng.Uniform(7));  // near-constant
          break;
        case 1:
          payload += "host-" + std::to_string(rng.Uniform(9));
          break;
        default:
          for (int k = 0; k < 8; ++k) {
            payload.push_back(static_cast<char>(rng.Uniform(256)));
          }
      }
    }
    const bool compress = rng.Uniform(2) == 1;
    SCOPED_TRACE("seed " + std::to_string(seed) + " codec " +
                 (compress ? "mlz" : "raw") + " rows " +
                 std::to_string(rows));
    EXPECT_EQ(RoundTrip(compress, payload), payload);
  }
}

TEST(CodecTest, FrameBytesAreRawOrOneMlzMethod) {
  std::string raw_frame, mlz_frame;
  EncodeBlockFrame("hello", /*compress=*/false, &raw_frame);
  EncodeBlockFrame("hello", /*compress=*/true, &mlz_frame);
  EXPECT_EQ(raw_frame, std::string("\x00\x05hello", 7));
  ASSERT_GE(mlz_frame.size(), 3u);
  EXPECT_EQ(mlz_frame[0], '\x01');
  EXPECT_EQ(static_cast<uint8_t>(mlz_frame[1]), kCodecMethodMlz);
  EXPECT_EQ(mlz_frame[2], '\x05');
}

TEST(CodecTest, FrameRejectsCodecChainsAndUnknownMethods) {
  std::string framed;
  EncodeBlockFrame("hello", /*compress=*/true, &framed);
  std::string out;
  // n > 1: a two-codec chain (here mlz twice) is no longer a format.
  std::string chained = framed;
  chained[0] = '\x02';
  chained.insert(1, 1, static_cast<char>(kCodecMethodMlz));
  Status st = DecodeBlockFrame(chained, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  // n == 1 with any method byte other than mlz's — including the
  // retired rle (0x02) and none (0x01) bytes.
  for (uint8_t method : {0x00, 0x01, 0x02, 0x7F, 0xFF}) {
    std::string bad = framed;
    bad[1] = static_cast<char>(method);
    st = DecodeBlockFrame(bad, &out);
    ASSERT_FALSE(st.ok()) << static_cast<int>(method);
    EXPECT_EQ(st.code(), StatusCode::kCorruption);
    EXPECT_NE(st.message().find("unknown codec method byte"),
              std::string::npos)
        << st.ToString();
  }
}

TEST(CodecTest, DecompressRejectsCorruptFrames) {
  std::string out;
  // Truncated / empty frames.
  EXPECT_FALSE(DecodeBlockFrame("", &out).ok());
  EXPECT_FALSE(DecodeBlockFrame(std::string("\x01", 1), &out).ok());
  // Recorded raw size disagrees with the decoded payload, raw and mlz.
  for (bool compress : {false, true}) {
    std::string framed;
    EncodeBlockFrame("hello", compress, &framed);
    const size_t size_pos = compress ? 2 : 1;
    ASSERT_EQ(framed[size_pos], '\x05');
    framed[size_pos] = '\x04';  // claim 4, payload decodes to 5
    Status st = DecodeBlockFrame(framed, &out);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kCorruption);
  }
  // Random garbage decompression must fail cleanly, never crash.
  Rng rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    std::string garbage;
    const uint32_t n = rng.Uniform(64);
    for (uint32_t i = 0; i < n; ++i) {
      garbage.push_back(static_cast<char>(rng.Uniform(256)));
    }
    out.clear();
    (void)DecodeBlockFrame(garbage, &out);
  }
}

// A hand-built mlz frame: the frame header claiming `raw_size`, then
// `payload` as the token stream.
std::string MlzFrame(uint64_t raw_size, const std::string& payload) {
  std::string framed;
  framed.push_back('\x01');
  framed.push_back(static_cast<char>(kCodecMethodMlz));
  PutVarint64(&framed, raw_size);
  framed += payload;
  return framed;
}

// Decodes `framed`, expecting a Corruption whose message names `what`.
void ExpectMlzCorruption(const std::string& framed, const std::string& what) {
  std::string out;
  Status st = DecodeBlockFrame(framed, &out);
  ASSERT_FALSE(st.ok()) << what;
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_NE(st.message().find(what), std::string::npos) << st.ToString();
}

TEST(CodecTest, MlzDecodeRejectsBadMatchOffsets) {
  // Token 0x40: four literals, then a 4-byte match.
  ExpectMlzCorruption(MlzFrame(8, std::string("\x40" "abcd\x00\x00", 7)),
                      "bad match offset");
  // Offset 5 reaches one byte before the four produced so far.
  ExpectMlzCorruption(MlzFrame(8, std::string("\x40" "abcd\x05\x00", 7)),
                      "bad match offset");
  // A match before any literal has nothing to copy from.
  ExpectMlzCorruption(MlzFrame(4, std::string("\x00\x01\x00", 3)),
                      "bad match offset");
  // Offset 4 (exactly the bytes produced) is valid.
  std::string out;
  ASSERT_OK(DecodeBlockFrame(
      MlzFrame(8, std::string("\x40" "abcd\x04\x00", 7)), &out));
  EXPECT_EQ(out, "abcdabcd");
}

TEST(CodecTest, MlzDecodeRejectsTruncatedStreams) {
  // Five literals claimed, three present.
  ExpectMlzCorruption(MlzFrame(5, "\x50" "abc"), "truncated literals");
  // One byte of the two-byte offset.
  ExpectMlzCorruption(MlzFrame(8, "\x40" "abcd\x04"), "truncated offset");
  // A literal length of 15 needs an extension byte.
  ExpectMlzCorruption(MlzFrame(15, "\xf0"), "truncated length");
  // An extension byte of 255 needs another one after it.
  ExpectMlzCorruption(MlzFrame(300, "\xf0\xff"), "truncated length");
  // A match length nibble of 15 needs an extension byte.
  ExpectMlzCorruption(MlzFrame(23, std::string("\x4f" "abcd\x04\x00", 7)),
                      "truncated length");
}

TEST(CodecTest, MlzDecodeRejectsOutputPastOrShortOfRawSize) {
  // Literals alone overrun a 2-byte block.
  ExpectMlzCorruption(MlzFrame(2, "\x40" "abcd"), "exceeds raw size");
  // The match overruns: 4 literals + 4 match bytes into 6.
  ExpectMlzCorruption(MlzFrame(6, std::string("\x40" "abcd\x04\x00", 7)),
                      "exceeds raw size");
  // An offset-1 run of 1000 bytes into a 100-byte block.
  // Token 0x1f: one literal, then an offset-1 match whose length
  // 4 + 15 + extensions makes 1000.
  std::string run_payload("\x1f" "a\x01\x00", 4);
  for (size_t left = 1000 - 4 - 15; ; left -= 255) {
    if (left < 255) {
      run_payload.push_back(static_cast<char>(left));
      break;
    }
    run_payload.push_back('\xff');
  }
  std::string out;
  ASSERT_OK(DecodeBlockFrame(MlzFrame(1001, run_payload), &out));
  EXPECT_EQ(out, std::string(1001, 'a'));
  ExpectMlzCorruption(MlzFrame(100, run_payload), "exceeds raw size");
  // Output short of the recorded size.
  ExpectMlzCorruption(MlzFrame(10, "\x40" "abcd"), "raw size mismatch");
  ExpectMlzCorruption(MlzFrame(1002, run_payload), "raw size mismatch");
  // A size no payload of this length can decode to is rejected before
  // the output is sized.
  ExpectMlzCorruption(MlzFrame(1u << 29, "\x40" "abcd"),
                      "raw size exceeds");
}

TEST(CodecTest, MlzRoundTripsOverlappingMatches) {
  // Offset-1 runs, and short periods whose matches overlap their own
  // output, next to long non-overlapping matches.
  std::vector<std::string> payloads = {std::string(5000, 'z'),
                                       std::string(5, 'q')};
  std::string periodic;
  for (int i = 0; i < 3000; ++i) periodic.push_back("abc"[i % 3]);
  payloads.push_back(periodic);
  std::string mixed = "header";
  for (int period = 1; period <= 9; ++period) {
    for (int i = 0; i < 200; ++i) mixed.push_back('A' + i % period);
    mixed += "|sep|";
  }
  payloads.push_back(mixed);
  for (const std::string& payload : payloads) {
    EXPECT_EQ(RoundTrip(/*compress=*/true, payload), payload);
  }
}

TEST(CodecTest, MlzRoundTripsSeededRandomBuffers) {
  Rng rng(2024);
  for (int trial = 0; trial < 1000; ++trial) {
    // Random bytes from a small alphabet, spliced with copies of
    // earlier stretches at random distances (some overlapping).
    std::string payload;
    const uint32_t target = rng.Uniform(3000);
    while (payload.size() < target) {
      if (!payload.empty() && rng.OneIn(3)) {
        const size_t distance = 1 + rng.Uniform(payload.size());
        const size_t len = 1 + rng.Uniform(300);
        for (size_t i = 0; i < len; ++i) {
          payload.push_back(payload[payload.size() - distance]);
        }
      } else {
        const uint64_t alphabet = rng.OneIn(2) ? 4 : 256;
        payload.push_back(static_cast<char>(rng.Uniform(alphabet)));
      }
    }
    std::string out;
    // Decode into a reused buffer holding stale bytes, as scans do.
    out.assign(rng.Uniform(4000), 'x');
    std::string framed;
    EncodeBlockFrame(payload, /*compress=*/true, &framed);
    SCOPED_TRACE("trial " + std::to_string(trial));
    ASSERT_OK(DecodeBlockFrame(framed, &out));
    ASSERT_EQ(out, payload);
  }
}

// ---------------- seqfile ----------------

void WriteNumFile(const std::string& path, int rows,
                  SeqFileWriter::Options options) {
  ASSERT_OK_AND_ASSIGN(
      auto writer,
      SeqFileWriter::Create(path, PlainMeta(NumSchema()), options));
  for (int i = 0; i < rows; ++i) {
    ASSERT_OK(writer->Append(
        Row("row" + std::to_string(i % 5), i, (i * 37) % 200)));
  }
  ASSERT_OK(writer->Finish().status());
}

TEST(SeqFileV2Test, ChainedFileRoundTripsAndReportsBytesDecoded) {
  TempDir dir("v2");
  const std::string plain = dir.file("plain.msq");
  const std::string packed = dir.file("packed.msq");
  SeqFileWriter::Options raw_opts;
  WriteNumFile(plain, 400, raw_opts);
  SeqFileWriter::Options packed_opts;
  packed_opts.mlz = true;
  WriteNumFile(packed, 400, packed_opts);

  ASSERT_OK_AND_ASSIGN(auto plain_reader, SeqFileReader::Open(plain));
  ASSERT_OK_AND_ASSIGN(auto packed_reader, SeqFileReader::Open(packed));
  EXPECT_EQ(plain_reader->meta().codec_chain, "");
  EXPECT_EQ(packed_reader->meta().codec_chain, "mlz");
  // Skip frames do not depend on the codec: both files carry them for
  // the two i64 columns.
  EXPECT_EQ(plain_reader->frame_slots(), (std::vector<int>{1, 2}));
  EXPECT_EQ(packed_reader->frame_slots(), (std::vector<int>{1, 2}));
  // The compressible integer columns must actually shrink on disk.
  EXPECT_LT(packed_reader->file_size(), plain_reader->file_size());

  ASSERT_OK_AND_ASSIGN(auto a, plain_reader->ScanAll());
  ASSERT_OK_AND_ASSIGN(auto b, packed_reader->ScanAll());
  int64_t ka = 0, kb = 0;
  Record ra, rb;
  for (int i = 0; i < 400; ++i) {
    ASSERT_OK_AND_ASSIGN(bool more_a, a.Next(&ka, &ra));
    ASSERT_OK_AND_ASSIGN(bool more_b, b.Next(&kb, &rb));
    ASSERT_TRUE(more_a);
    ASSERT_TRUE(more_b);
    EXPECT_EQ(ka, kb);
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t f = 0; f < ra.size(); ++f) {
      EXPECT_EQ(ra[f].ToString(), rb[f].ToString());
    }
  }
  // bytes_decoded counts raw body bytes materialized, which for a
  // compressed file exceeds the bytes read off disk.
  EXPECT_EQ(b.bytes_decoded(), a.bytes_decoded());
  EXPECT_GT(b.bytes_decoded(), b.bytes_read());
  EXPECT_EQ(b.blocks_skipped(), 0u);
}

TEST(SeqFileV2Test, SkipFramesMatchBruteForceBounds) {
  TempDir dir("frames");
  const std::string path = dir.file("t.msq");
  SeqFileWriter::Options options;
  options.target_block_bytes = 512;  // force many blocks
  Rng rng(7);
  std::vector<std::pair<int64_t, int64_t>> rows;
  {
    ASSERT_OK_AND_ASSIGN(auto writer, SeqFileWriter::Create(
                                          path, PlainMeta(NumSchema()),
                                          options));
    for (int i = 0; i < 1000; ++i) {
      int64_t a = static_cast<int64_t>(rng.Uniform(100000)) - 50000;
      int64_t b = static_cast<int64_t>(rng.Uniform(1000));
      rows.emplace_back(a, b);
      ASSERT_OK(writer->Append(Row("x", a, b)));
    }
    ASSERT_OK(writer->Finish().status());
  }
  ASSERT_OK_AND_ASSIGN(auto reader, SeqFileReader::Open(path));
  ASSERT_TRUE(reader->has_skip_frames());
  ASSERT_GT(reader->num_blocks(), 4u);
  // Slots 1 and 2 are the i64 columns ("a", "b"); slot 0 is a string
  // and must have no frame.
  int64_t lo = 0, hi = 0;
  EXPECT_FALSE(reader->BlockSlotBounds(0, 0, &lo, &hi));
  uint64_t row = 0;
  for (uint64_t block = 0; block < reader->num_blocks(); ++block) {
    const uint64_t count = reader->BlockRecordCount(block);
    ASSERT_GT(count, 0u);
    int64_t want_min_a = rows[row].first, want_max_a = rows[row].first;
    int64_t want_min_b = rows[row].second, want_max_b = rows[row].second;
    for (uint64_t r = row; r < row + count; ++r) {
      want_min_a = std::min(want_min_a, rows[r].first);
      want_max_a = std::max(want_max_a, rows[r].first);
      want_min_b = std::min(want_min_b, rows[r].second);
      want_max_b = std::max(want_max_b, rows[r].second);
    }
    ASSERT_TRUE(reader->BlockSlotBounds(block, 1, &lo, &hi));
    EXPECT_EQ(lo, want_min_a);
    EXPECT_EQ(hi, want_max_a);
    ASSERT_TRUE(reader->BlockSlotBounds(block, 2, &lo, &hi));
    EXPECT_EQ(lo, want_min_b);
    EXPECT_EQ(hi, want_max_b);
    row += count;
  }
  EXPECT_EQ(row, rows.size());
}

TEST(SeqFileV2Test, ScanHonorsSkipFilterAndCountsSkips) {
  TempDir dir("skipscan");
  const std::string path = dir.file("t.msq");
  SeqFileWriter::Options options;
  options.records_per_block = 100;
  WriteNumFile(path, 400, options);
  ASSERT_OK_AND_ASSIGN(auto reader, SeqFileReader::Open(path));
  ASSERT_EQ(reader->num_blocks(), 4u);
  // Skip blocks 1 and 2: the scan must yield exactly blocks 0 and 3.
  auto skip = std::make_shared<std::vector<bool>>(
      std::vector<bool>{false, true, true, false});
  ASSERT_OK_AND_ASSIGN(auto stream, reader->ScanAll());
  stream.set_skip_blocks(skip);
  int64_t key = 0;
  Record record;
  std::vector<int64_t> keys;
  while (true) {
    ASSERT_OK_AND_ASSIGN(bool more, stream.Next(&key, &record));
    if (!more) break;
    keys.push_back(key);
  }
  ASSERT_EQ(keys.size(), 200u);
  EXPECT_EQ(keys.front(), 0);
  EXPECT_EQ(keys[99], 99);
  EXPECT_EQ(keys[100], 300);
  EXPECT_EQ(keys.back(), 399);
  EXPECT_EQ(stream.blocks_skipped(), 2u);
  EXPECT_EQ(stream.records_skipped(), 200u);
}

// A block whose frame names a method byte other than mlz's must
// surface as Corruption from the reader, not as silently-garbled
// records.
TEST(SeqFileV2Test, UnregisteredMethodByteIsCorruption) {
  TempDir dir("badmethod");
  const std::string path = dir.file("t.msq");
  SeqFileWriter::Options options;
  options.mlz = true;
  WriteNumFile(path, 50, options);

  // Patch the first block's method byte on disk. Layout: footer tail's
  // third fixed64 is the footer offset; the footer opens with the
  // per-block offsets; a block is fixed32 frame length, then the
  // frame's [u8 n][method byte].
  ASSERT_OK_AND_ASSIGN(std::string data, ReadFileToString(path));
  ASSERT_GT(data.size(), 28u);
  const uint64_t footer_offset =
      DecodeFixed64(data.data() + data.size() - 4 - 8);
  const uint64_t block_offset = DecodeFixed64(data.data() + footer_offset);
  const size_t method_pos = block_offset + 4 + 1;
  ASSERT_LT(method_pos, data.size());
  ASSERT_EQ(static_cast<uint8_t>(data[method_pos - 1]), 1u);  // n
  ASSERT_EQ(static_cast<uint8_t>(data[method_pos]), kCodecMethodMlz);
  data[method_pos] = '\x7F';
  ASSERT_OK(WriteStringToFile(path, data));

  ASSERT_OK_AND_ASSIGN(auto reader, SeqFileReader::Open(path));
  ASSERT_OK_AND_ASSIGN(auto stream, reader->ScanAll());
  int64_t key = 0;
  Record record;
  auto more = stream.Next(&key, &record);
  ASSERT_FALSE(more.ok());
  EXPECT_EQ(more.status().code(), StatusCode::kCorruption);
  EXPECT_NE(more.status().message().find("unknown codec method byte"),
            std::string::npos)
      << more.status().ToString();
}

// Version 1 (unframed) files are no longer a format: no code path
// writes one, and the reader refuses the header.
TEST(SeqFileV2Test, Version1HeaderIsCorruption) {
  TempDir dir("v1");
  const std::string path = dir.file("t.msq");
  WriteNumFile(path, 50, SeqFileWriter::Options());
  ASSERT_OK_AND_ASSIGN(std::string data, ReadFileToString(path));
  ASSERT_EQ(data.substr(0, 4), "MSEQ");
  ASSERT_EQ(data[4], '\x02');  // varint version
  data[4] = '\x01';
  ASSERT_OK(WriteStringToFile(path, data));
  auto reader = SeqFileReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
  EXPECT_NE(reader.status().message().find("bad seqfile version"),
            std::string::npos)
      << reader.status().ToString();
}

TEST(SeqFileV2Test, EmptyFileAndSingleRecordRoundTrip) {
  TempDir dir("tiny");
  for (int rows : {0, 1}) {
    const std::string path =
        dir.file("t" + std::to_string(rows) + ".msq");
    SeqFileWriter::Options options;
    options.mlz = true;
    WriteNumFile(path, rows, options);
    ASSERT_OK_AND_ASSIGN(auto reader, SeqFileReader::Open(path));
    EXPECT_EQ(reader->num_records(), static_cast<uint64_t>(rows));
    ASSERT_OK_AND_ASSIGN(auto stream, reader->ScanAll());
    int64_t key = 0;
    Record record;
    int seen = 0;
    while (true) {
      ASSERT_OK_AND_ASSIGN(bool more, stream.Next(&key, &record));
      if (!more) break;
      ++seen;
    }
    EXPECT_EQ(seen, rows);
  }
}

// ---------------- direct evaluation end to end ----------------

// 8000 rows with column "a" ascending: blocks partition its range, so
// frames refute every block past a selective predicate's upper bound.
void WriteAscendingInput(const std::string& path) {
  ASSERT_OK_AND_ASSIGN(auto writer,
                       SeqFileWriter::Create(path, PlainMeta(NumSchema())));
  for (int i = 0; i < 8000; ++i) {
    ASSERT_OK(writer->Append(Row("row" + std::to_string(i % 7), i,
                                 (i * 13) % 97)));
  }
  ASSERT_OK(writer->Finish().status());
}

// map: emit (a, b) for rows with a < 100 — 100 of the 8000.
mril::Program SelectiveProgram() {
  mril::ProgramBuilder b("selective-direct");
  b.SetKeyType(FieldType::kI64);
  b.SetValueSchema(NumSchema());
  mril::FunctionBuilder& m = b.Map();
  m.LoadParam(1).GetField("a").LoadI64(100).CmpLt();
  m.JmpIfFalse("end");
  m.LoadParam(1).GetField("a");
  m.LoadParam(1).GetField("b");
  m.Emit();
  m.Label("end").Ret();
  return b.Build();
}

// The program's non-B+Tree re-encoded artifact spec, so the chosen
// plan is a seqscan over its blocks with the selection still in the
// map.
analyzer::IndexGenProgram ReencodedSpec(const mril::Program& program) {
  auto report = analyzer::Analyze(program);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  analyzer::IndexGenProgram reencoded;
  bool found = false;
  for (const auto& s : analyzer::SynthesizeIndexPrograms(program, *report)) {
    if (!s.btree && !s.column_groups) {
      reencoded = s;
      found = true;
    }
  }
  EXPECT_TRUE(found);
  return reencoded;
}

std::unique_ptr<core::ManimalSystem> OpenSystem(const std::string& ws) {
  core::ManimalSystem::Options options;
  options.workspace_dir = ws;
  options.simulated_startup_seconds = 0;
  options.map_parallelism = 1;
  options.num_partitions = 1;
  auto system = core::ManimalSystem::Open(options);
  EXPECT_TRUE(system.ok()) << system.status().ToString();
  return system.ok() ? std::move(*system) : nullptr;
}

// A selective scan over a re-encoded artifact whose blocks partition
// the predicate column must skip most blocks when direct evaluation
// is on, produce identical output either way, and show the savings in
// the engine counters (the EXPLAIN ANALYZE / bench surface).
TEST(DirectEvalTest, SelectiveScanSkipsBlocksAndCutsBytesDecoded) {
  TempDir dir("direct");
  const std::string input = dir.file("in.msq");
  WriteAscendingInput(input);
  const mril::Program program = SelectiveProgram();
  const analyzer::IndexGenProgram reencoded = ReencodedSpec(program);

  setenv("MANIMAL_CODECS", "mlz", 1);
  uint64_t decoded[2] = {0, 0};
  std::vector<std::string> outputs[2];
  for (int direct = 0; direct <= 1; ++direct) {
    setenv("MANIMAL_DIRECT_EVAL", direct ? "1" : "0", 1);
    auto system = OpenSystem(dir.file("ws" + std::to_string(direct)));
    ASSERT_NE(system, nullptr);
    ASSERT_OK(system->BuildIndex(reencoded, input).status());
    core::ManimalSystem::Submission job;
    job.program = program;
    job.input_path = input;
    job.output_path = dir.file("out" + std::to_string(direct) + ".prs");
    ASSERT_OK_AND_ASSIGN(auto outcome, system->Submit(job));
    decoded[direct] = outcome.job.counters.bytes_decoded;
    ASSERT_OK_AND_ASSIGN(outputs[direct],
                         exec::ReadCanonicalPairs(job.output_path));
    if (direct == 1) {
      EXPECT_GT(outcome.job.counters.blocks_skipped, 0u);
    } else {
      EXPECT_EQ(outcome.job.counters.blocks_skipped, 0u);
    }
  }
  unsetenv("MANIMAL_CODECS");
  unsetenv("MANIMAL_DIRECT_EVAL");

  EXPECT_EQ(outputs[0], outputs[1]);
  ASSERT_EQ(outputs[1].size(), 100u);
  // The acceptance bar: direct evaluation at this selectivity must at
  // least halve the bytes decoded.
  EXPECT_GT(decoded[0], 0u);
  EXPECT_LE(decoded[1] * 2, decoded[0])
      << "decoded " << decoded[1] << " with skipping vs " << decoded[0];
}

// Block skipping does not depend on the codec: with the codec off, the
// raw input and the raw re-encoded artifact both carry skip frames, so
// a selective job skips blocks over either — and still writes exactly
// the bytes of the conventional full-scan run.
TEST(DirectEvalTest, UncompressedFilesSkipBlocksAndMatchBaseline) {
  TempDir dir("direct-raw");
  const std::string input = dir.file("in.msq");
  WriteAscendingInput(input);
  const mril::Program program = SelectiveProgram();
  const analyzer::IndexGenProgram reencoded = ReencodedSpec(program);

  setenv("MANIMAL_CODECS", "off", 1);
  for (bool with_artifact : {false, true}) {
    SCOPED_TRACE(with_artifact ? "raw re-encoded artifact" : "raw input");
    const std::string tag = with_artifact ? "artifact" : "input";
    auto system = OpenSystem(dir.file("ws-" + tag));
    ASSERT_NE(system, nullptr);
    if (with_artifact) {
      ASSERT_OK_AND_ASSIGN(auto built, system->BuildIndex(reencoded, input));
      EXPECT_EQ(built.entry.codec_chain, "");
      ASSERT_OK_AND_ASSIGN(auto artifact,
                           SeqFileReader::Open(built.entry.artifact_path));
      EXPECT_EQ(artifact->meta().codec_chain, "");
      EXPECT_TRUE(artifact->has_skip_frames());
    }
    core::ManimalSystem::Submission job;
    job.program = program;
    job.input_path = input;
    job.output_path = dir.file("out-" + tag + ".prs");
    ASSERT_OK_AND_ASSIGN(auto outcome, system->Submit(job));
    EXPECT_GT(outcome.job.counters.blocks_skipped, 0u);

    core::ManimalSystem::Submission baseline_job = job;
    baseline_job.output_path = dir.file("baseline-" + tag + ".prs");
    ASSERT_OK_AND_ASSIGN(auto baseline, system->RunBaseline(baseline_job));
    EXPECT_EQ(baseline.counters.blocks_skipped, 0u);

    ASSERT_OK_AND_ASSIGN(std::string got, ReadFileToString(job.output_path));
    ASSERT_OK_AND_ASSIGN(std::string want,
                         ReadFileToString(baseline_job.output_path));
    EXPECT_EQ(got, want);
    ASSERT_OK_AND_ASSIGN(auto pairs,
                         exec::ReadCanonicalPairs(job.output_path));
    EXPECT_EQ(pairs.size(), 100u);
  }
  unsetenv("MANIMAL_CODECS");
}

// MANIMAL_CODECS accepts its default (unset/auto/mlz) and off; a
// retired chain spec fails the artifact build like any typo.
TEST(ArtifactCodecTest, OnlyMlzOrOffBuild) {
  TempDir dir("codec-env");
  const std::string input = dir.file("in.msq");
  WriteAscendingInput(input);
  const analyzer::IndexGenProgram reencoded =
      ReencodedSpec(SelectiveProgram());
  const std::pair<const char*, const char*> accepted[] = {
      {"auto", "mlz"}, {"mlz", "mlz"}, {"off", ""}, {"0", ""}};
  for (const auto& [value, codec] : accepted) {
    setenv("MANIMAL_CODECS", value, 1);
    auto system = OpenSystem(dir.file(std::string("ws-") + value));
    ASSERT_NE(system, nullptr);
    ASSERT_OK_AND_ASSIGN(auto built, system->BuildIndex(reencoded, input));
    EXPECT_EQ(built.entry.codec_chain, codec) << value;
  }
  for (const char* value : {"rle+mlz", "rle", "none", "zstd"}) {
    setenv("MANIMAL_CODECS", value, 1);
    auto system = OpenSystem(dir.file(std::string("ws-bad-") + value));
    ASSERT_NE(system, nullptr);
    auto built = system->BuildIndex(reencoded, input);
    ASSERT_FALSE(built.ok()) << value;
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument) << value;
  }
  unsetenv("MANIMAL_CODECS");
}

// ---------------- catalog codec columns ----------------

TEST(CatalogCodecTest, TenColumnRoundTripAndOldManifestsStillLoad) {
  TempDir dir("cat");
  const std::string path = dir.file("catalog.tsv");
  {
    ASSERT_OK_AND_ASSIGN(auto catalog, index::Catalog::Open(path));
    index::CatalogEntry e;
    e.input_file = "in.msq";
    e.signature = "sig";
    e.artifact_path = "a.msq";
    e.artifact_bytes = 100;
    e.input_bytes = 400;
    e.stats_path = "s.stats";
    e.codec_chain = "mlz";
    e.raw_bytes = 350;
    ASSERT_OK(catalog.Register(e));
  }
  ASSERT_OK_AND_ASSIGN(auto reloaded, index::Catalog::Open(path));
  ASSERT_EQ(reloaded.entries().size(), 1u);
  EXPECT_EQ(reloaded.entries()[0].codec_chain, "mlz");
  EXPECT_EQ(reloaded.entries()[0].raw_bytes, 350u);

  // A pre-codec 8-column manifest loads with empty codec fields.
  const std::string old = dir.file("old.tsv");
  ASSERT_OK(WriteStringToFile(
      old, "in.msq\tsig\ta.msq\t\t\t100\t400\ts.stats\n"));
  ASSERT_OK_AND_ASSIGN(auto old_catalog, index::Catalog::Open(old));
  ASSERT_EQ(old_catalog.entries().size(), 1u);
  EXPECT_EQ(old_catalog.entries()[0].codec_chain, "");
  EXPECT_EQ(old_catalog.entries()[0].raw_bytes, 0u);
}

}  // namespace
}  // namespace manimal::columnar
