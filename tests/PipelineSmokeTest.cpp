//===- tests/PipelineSmokeTest.cpp - build-seam smoke test -----------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// End-to-end smoke test for the seam the build bootstrap wires together:
// the Pipeline.h doc snippet (Pipeline::convert feeding
// KastSpectrumKernel::evaluateNormalized) must compose exactly as
// documented, across the trace -> tree -> compressed tree -> weighted
// string -> kernel stack (§3.1 + §3.2).
//
//===----------------------------------------------------------------------===//

#include "core/KastKernel.h"
#include "core/Pipeline.h"
#include "trace/Trace.h"
#include "trace/TraceParser.h"
#include "trace/TraceWriter.h"
#include "tree/TreeDump.h"
#include "workloads/DatasetBuilder.h"
#include "workloads/Mutator.h"
#include "workloads/ParallelTrace.h"

#include <gtest/gtest.h>

using namespace kast;

namespace {

Trace makeSequentialReader(const std::string &Name, int Blocks) {
  Trace T(Name);
  T.append(OpKind::Open, 3);
  for (int I = 0; I < Blocks; ++I)
    T.append(OpKind::Read, 3, 4096);
  T.append(OpKind::Close, 3);
  return T;
}

Trace makeStridedWriter(const std::string &Name, int Blocks) {
  Trace T(Name);
  T.append(OpKind::Open, 4);
  for (int I = 0; I < Blocks; ++I) {
    T.append(OpKind::Lseek, 4, 0);
    T.append(OpKind::Write, 4, 512);
  }
  T.append(OpKind::Fsync, 4);
  T.append(OpKind::Close, 4);
  return T;
}

} // namespace

// The doc snippet from Pipeline.h, verbatim semantics: convert two traces
// through one shared-table pipeline and compare with the KAST kernel.
TEST(PipelineSmokeTest, DocSnippetComposes) {
  Pipeline P; // byte-aware, 2 passes
  WeightedString S = P.convert(makeSequentialReader("reader-a", 8));
  WeightedString T = P.convert(makeSequentialReader("reader-b", 8));

  KastSpectrumKernel K({.CutWeight = 2});
  double Sim = K.evaluateNormalized(S, T);

  // Identical traces through the same pipeline are maximally similar
  // under Eq. (12) normalization.
  EXPECT_NEAR(Sim, 1.0, 1e-9);
}

TEST(PipelineSmokeTest, SharedTableMakesStringsComparable) {
  Pipeline P;
  WeightedString A = P.convert(makeSequentialReader("reader", 8));
  WeightedString B = P.convert(makeStridedWriter("writer", 8));

  // One pipeline, one TokenTable: both strings must share it.
  ASSERT_EQ(A.table().get(), B.table().get());
  ASSERT_EQ(A.table().get(), P.table().get());
  EXPECT_FALSE(A.empty());
  EXPECT_FALSE(B.empty());

  KastSpectrumKernel K({.CutWeight = 2});
  double Self = K.evaluateNormalized(A, A);
  double Cross = K.evaluateNormalized(A, B);

  EXPECT_NEAR(Self, 1.0, 1e-9);
  // Distinct access patterns are strictly less similar than identity,
  // and normalization keeps the value in [0, 1].
  EXPECT_GE(Cross, 0.0);
  EXPECT_LT(Cross, 1.0);
  // Symmetry of the kernel.
  EXPECT_DOUBLE_EQ(Cross, K.evaluateNormalized(B, A));
}

TEST(PipelineSmokeTest, WithAndWithoutBytesVariantsConvert) {
  // The paper's two representations (§3.1) both flow through convert().
  Trace T = makeStridedWriter("writer", 4);

  Pipeline Bytes = Pipeline::withBytes();
  Pipeline NoBytes = Pipeline::withoutBytes();

  WeightedString WithB = Bytes.convert(T);
  WeightedString WithoutB = NoBytes.convert(T);
  EXPECT_FALSE(WithB.empty());
  EXPECT_FALSE(WithoutB.empty());

  // Both variants keep the full result inspectable.
  PipelineResult R = Bytes.convertDetailed(T);
  EXPECT_EQ(R.String.totalWeight(), WithB.totalWeight());
}

namespace {

/// FNV-1a over every string and counter a conversion produces.
struct Fnv1a {
  uint64_t Hash = 0xcbf29ce484222325ULL;
  void bytes(const void *Data, size_t Size) {
    for (size_t I = 0; I < Size; ++I) {
      Hash ^= static_cast<const unsigned char *>(Data)[I];
      Hash *= 0x100000001b3ULL;
    }
  }
  void word(uint64_t V) { bytes(&V, sizeof(V)); }
};

/// Feeds every token of \p R's string and its compression counts
/// into \p D.
void digestConversion(Fnv1a &D, const PipelineResult &R) {
  for (size_t I = 0; I < R.String.size(); ++I) {
    const std::string &Literal = R.String.literal(I);
    D.word(Literal.size());
    D.bytes(Literal.data(), Literal.size());
    D.word(R.String.weight(I));
  }
  D.word(R.Stats.LeavesBefore);
  D.word(R.Stats.LeavesAfter);
  for (size_t Merges : R.Stats.MergesByRule)
    D.word(Merges);
}

/// Digest of formatTrace -> parseTrace -> convertDetailed over
/// \p Corpus under both representations.
uint64_t corpusDigest(const std::vector<Trace> &Corpus) {
  Fnv1a D;
  for (const Pipeline &P : {Pipeline::withBytes(), Pipeline::withoutBytes()})
    for (const Trace &Original : Corpus) {
      Expected<Trace> T = parseTrace(formatTrace(Original), Original.name());
      EXPECT_TRUE(T.hasValue());
      if (!T)
        return 0;
      digestConversion(D, P.convertDetailed(*T));
    }
  return D.Hash;
}

/// A random trace over 1-4 interleaved handles: opens, closes and
/// reopens without a close, runs and alternations the merge rules
/// fold, zero-byte ops, negligible mmap/fileno (one of them on a
/// handle nothing else touches) and, now and then, a close on a
/// handle that was never opened.
Trace ablationTrace(Rng &R) {
  static const char *Names[] = {"read", "write", "lseek", "fsync", "pread"};
  static const uint64_t Sizes[] = {0, 0, 1, 2, 4, 64, 512};
  Trace T("ablation");
  const uint64_t Handles = R.uniformInt(1, 4);
  const uint64_t Steps = R.uniformInt(0, 40);
  for (uint64_t Step = 0; Step < Steps; ++Step) {
    const uint64_t H = 3 + R.uniformInt(0, Handles - 1);
    switch (R.uniformInt(0, 9)) {
    case 0:
      T.append(OpKind::Open, H);
      break;
    case 1:
      T.append(OpKind::Close, H);
      break;
    case 2:
      T.append(R.flip(0.5) ? OpKind::Mmap : OpKind::Fileno,
               R.flip(0.2) ? 40 : H, 4096);
      break;
    case 3:
      T.append(OpKind::Close, 90 + R.uniformInt(0, 2));
      break;
    case 4: { // An alternation: A B A B ...
      const char *A = Names[R.uniformInt(0, 4)], *B = Names[R.uniformInt(0, 4)];
      const uint64_t BytesA = Sizes[R.uniformInt(0, 6)];
      const uint64_t BytesB = Sizes[R.uniformInt(0, 6)];
      for (uint64_t I = R.uniformInt(1, 4); I > 0; --I) {
        T.append(TraceEvent(A, H, BytesA));
        T.append(TraceEvent(B, H, BytesB));
      }
      break;
    }
    default: // A run of one operation.
      const char *Name = Names[R.uniformInt(0, 4)];
      const uint64_t Bytes = Sizes[R.uniformInt(0, 6)];
      for (uint64_t I = R.uniformInt(1, 5); I > 0; --I)
        T.append(TraceEvent(Name, H, Bytes));
    }
  }
  return T;
}

} // namespace

// Every token string and compression count of two whole corpora,
// pinned to the values the conversion produced when it was last
// changed on purpose. A digest that moves means some string did.
TEST(PipelineSmokeTest, CorpusStringsArePinned) {
  std::vector<Trace> Paper;
  for (const LabeledTrace &L : generateCorpus())
    Paper.push_back(L.T);
  EXPECT_EQ(Paper.size(), 110u);
  EXPECT_EQ(corpusDigest(Paper), 0x6a11c490e1360c4cULL);

  // Each category at 16 and 48 ranks, plus one mutant of each.
  std::vector<Trace> Parallel;
  Rng R(20171017);
  for (Category C : {Category::FlashIO, Category::RandomPosix,
                     Category::NormalIO, Category::RandomAccess})
    for (size_t Ranks : {16, 48}) {
      Parallel.push_back(generateParallelTrace(C, Ranks, R));
      Parallel.push_back(mutateTrace(Parallel.back(), R));
    }
  EXPECT_EQ(corpusDigest(Parallel), 0x656e660ec6bfda82ULL);
}

// The tree stage under every configuration bench/tab3_ablation.cpp
// runs (passes 0/1/2/4, each rule off, trailing [LEVEL_UP]) plus 8
// passes, each with and without byte counts, over random traces and
// an empty one: every token, compression count and compressed-tree
// dump (handle order and numbers included), pinned like the corpora
// above.
TEST(PipelineSmokeTest, CompressionAblationsArePinned) {
  std::vector<Trace> Traces = {Trace("empty")};
  Rng R(20241019);
  for (int I = 0; I < 80; ++I)
    Traces.push_back(ablationTrace(R));

  std::vector<PipelineOptions> Configs;
  for (size_t Passes : {0, 1, 2, 4, 8}) {
    Configs.emplace_back();
    Configs.back().Compressor.Passes = Passes;
  }
  for (bool CompressorOptions::*Rule :
       {&CompressorOptions::EnableRule1, &CompressorOptions::EnableRule2,
        &CompressorOptions::EnableRule3, &CompressorOptions::EnableRule4}) {
    Configs.emplace_back();
    Configs.back().Compressor.*Rule = false;
  }
  Configs.emplace_back();
  Configs.back().Flatten.EmitTrailingLevelUp = true;

  Fnv1a D;
  for (bool IgnoreBytes : {false, true})
    for (PipelineOptions Options : Configs) {
      Options.Builder.IgnoreBytes = IgnoreBytes;
      Pipeline P(Options);
      for (const Trace &T : Traces) {
        PipelineResult Result = P.convertDetailed(T);
        digestConversion(D, Result);
        const std::string Dump = dumpTreeAscii(Result.Tree);
        D.word(Dump.size());
        D.bytes(Dump.data(), Dump.size());
      }
    }
  EXPECT_EQ(D.Hash, 0x1796d5cc4443f99dULL);
}
