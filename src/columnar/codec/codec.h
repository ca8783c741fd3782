// The SeqFile block codec: one frame format and one compressor.
//
// Every SeqFile block body (columnar/seqfile.h) is framed, inside the
// usual fixed32 length envelope, as
//
//   [u8 n] [n method bytes] [varint raw_size] [payload]
//
// n == 0 means the payload is the raw body; n == 1 with method byte
// 0x03 means the payload is the body compressed with `mlz`. Any other
// n or method byte is a Corruption, never silent garbage. The frame
// sits below the column stage — the per-slot delta (zigzag varints)
// and dictionary (code) encodings the analyzer picks because they
// preserve direct-operation semantics per record — and compresses the
// whole encoded block body.
//
// `mlz` is a small hand-rolled LZ77 with an LZ4-flavored token format
// (the project takes no compression-library dependency); it is
// deterministic, so the same records always produce the same file
// bytes.

#ifndef MANIMAL_COLUMNAR_CODEC_CODEC_H_
#define MANIMAL_COLUMNAR_CODEC_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace manimal::columnar {

// The one block codec: its name (as recorded in SeqFile headers and
// catalog rows; "" means raw blocks) and its frame method byte.
inline constexpr char kCodecMlz[] = "mlz";
inline constexpr uint8_t kCodecMethodMlz = 0x03;

// Appends the framed block to *out: `raw` itself when `compress` is
// false, its mlz compression otherwise.
void EncodeBlockFrame(std::string_view raw, bool compress, std::string* out);

// Inverse of EncodeBlockFrame: decodes `framed` straight into *raw and
// verifies the recorded raw size. Corrupt input of any shape returns
// Corruption.
Status DecodeBlockFrame(std::string_view framed, std::string* raw);

}  // namespace manimal::columnar

#endif  // MANIMAL_COLUMNAR_CODEC_CODEC_H_
