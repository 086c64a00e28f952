//===- trace/TraceScan.h - Byte classes of trace text -----------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structural classifier behind parseTrace's scan, after simdjson's
/// stage 1 (Langdale & Lemire, "Parsing Gigabytes of JSON per Second",
/// VLDB Journal 2019): 16 bytes of text become one bitmask per byte
/// class the line grammar needs, and the parser reads field boundaries
/// off the masks with count-trailing-zeros instead of testing bytes one
/// at a time. x86-64 classifies with SSE2, which every x86-64 target
/// has; every other target runs the byte loop, which fills the same
/// masks and which the tests hold equal to the SSE2 one.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_TRACE_TRACESCAN_H
#define KAST_TRACE_TRACESCAN_H

#include "util/StringUtil.h"

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>
#endif

namespace kast::detail {

/// Bytes per classified chunk.
constexpr size_t ChunkBytes = 16;

/// Byte classes, bit I for byte I: a chunk's classes in bits 0-15, and
/// the next chunk's in bits 16-31 where the parser joins two.
struct ChunkMasks {
  uint32_t Space = 0;   ///< isAsciiSpace: ' ', '\t', '\n', '\v', '\f', '\r'.
  uint32_t Hash = 0;    ///< '#'.
  uint32_t Newline = 0; ///< '\n'.
  uint32_t Digit = 0;   ///< '0'..'9'.

  bool operator==(const ChunkMasks &) const = default;
};

/// Classifies the 16 bytes at \p Bytes one byte at a time.
inline ChunkMasks classifyChunkBytes(const char *Bytes) {
  ChunkMasks M;
  for (size_t I = 0; I < ChunkBytes; ++I) {
    const char C = Bytes[I];
    M.Space |= uint32_t(isAsciiSpace(C)) << I;
    M.Hash |= uint32_t(C == '#') << I;
    M.Newline |= uint32_t(C == '\n') << I;
    M.Digit |= uint32_t(isAsciiDigit(C)) << I;
  }
  return M;
}

/// Classifies the 16 bytes at \p Bytes: with SSE2 compares on x86-64,
/// with the byte loop elsewhere.
inline ChunkMasks classifyChunk(const char *Bytes) {
#if defined(__x86_64__) || defined(_M_X64)
  const __m128i X = _mm_loadu_si128(reinterpret_cast<const __m128i *>(Bytes));
  auto Bits = [](__m128i Lanes) {
    return static_cast<uint32_t>(_mm_movemask_epi8(Lanes));
  };
  auto Equal = [&](char C) { return _mm_cmpeq_epi8(X, _mm_set1_epi8(C)); };
  // Lo <= C <= Hi as one signed compare: adding 128 - Lo moves the
  // range onto [-128, Hi - Lo - 128].
  auto InRange = [&](char Lo, char Hi) {
    const __m128i Shifted =
        _mm_add_epi8(X, _mm_set1_epi8(static_cast<char>(0x80 - Lo)));
    return _mm_cmplt_epi8(Shifted,
                          _mm_set1_epi8(static_cast<char>(Hi - Lo - 127)));
  };
  ChunkMasks M;
  M.Space = Bits(_mm_or_si128(Equal(' '), InRange('\t', '\r')));
  M.Hash = Bits(Equal('#'));
  M.Newline = Bits(Equal('\n'));
  M.Digit = Bits(InRange('0', '9'));
  return M;
#else
  return classifyChunkBytes(Bytes);
#endif
}

} // namespace kast::detail

#endif // KAST_TRACE_TRACESCAN_H
