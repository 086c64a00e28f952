//===- tests/PropertyTest.cpp - cross-module invariants --------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-based sweeps over randomly generated traces and corpus
/// fragments: invariants that every stage of the pipeline must
/// preserve, checked across seeds via parameterized suites.
///
//===----------------------------------------------------------------------===//

#include "core/KastKernel.h"
#include "core/KernelMatrix.h"
#include "core/Pipeline.h"
#include "core/StringSerializer.h"
#include "core/TreeFlattener.h"
#include "index/IndexService.h"
#include "kernels/SpectrumKernels.h"
#include "linalg/Eigen.h"
#include "trace/TraceParser.h"
#include "trace/TraceWriter.h"
#include "tree/TreeBuilder.h"
#include "tree/TreeCompressor.h"
#include "workloads/DatasetBuilder.h"

#include <gtest/gtest.h>

using namespace kast;

namespace {

/// A fully random trace: arbitrary op mix, not category-shaped; the
/// pipeline must digest anything.
Trace randomTrace(Rng &R, size_t Length) {
  static const char *Names[] = {"open",  "close", "read",  "write",
                                "lseek", "fsync", "fstat", "pread"};
  Trace T("random");
  for (size_t I = 0; I < Length; ++I) {
    const char *Name = Names[R.uniformInt(0, 7)];
    uint64_t Handle = R.uniformInt(1, 3);
    uint64_t Bytes =
        R.flip(0.3) ? 0 : (1ULL << R.uniformInt(0, 12));
    T.append(TraceEvent(Name, Handle, Bytes));
  }
  return T;
}

} // namespace

//===----------------------------------------------------------------------===//
// Seeded sweeps over random traces
//===----------------------------------------------------------------------===//

class TraceSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TraceSweep, CompressionConservesPrimitiveOps) {
  Rng R(GetParam());
  for (int Round = 0; Round < 10; ++Round) {
    Trace T = randomTrace(R, R.uniformInt(0, 120));
    PatternTree Tree = buildTree(T);
    uint64_t Before = Tree.totalReps();
    CompressorOptions Options;
    Options.Passes = R.uniformInt(1, 4);
    compressTree(Tree, Options);
    EXPECT_EQ(Tree.totalReps(), Before);
  }
}

TEST_P(TraceSweep, CompressionNeverGrowsLeafCount) {
  Rng R(GetParam() ^ 0x1111);
  for (int Round = 0; Round < 10; ++Round) {
    Trace T = randomTrace(R, R.uniformInt(0, 120));
    PatternTree Tree = buildTree(T);
    size_t Before = Tree.numLeaves();
    CompressionStats Stats = compressTree(Tree);
    EXPECT_LE(Stats.LeavesAfter, Before);
    EXPECT_EQ(Stats.LeavesBefore, Before);
    EXPECT_EQ(Stats.LeavesAfter, Tree.numLeaves());
  }
}

TEST_P(TraceSweep, FlattenUnflattenRoundTrips) {
  Rng R(GetParam() ^ 0x2222);
  auto Table = TokenTable::create();
  for (int Round = 0; Round < 10; ++Round) {
    Trace T = randomTrace(R, R.uniformInt(1, 100));
    PatternTree Tree = buildTree(T);
    compressTree(Tree);
    WeightedString S = flattenTree(Tree, Table);
    Expected<PatternTree> Back = unflattenString(S);
    ASSERT_TRUE(Back.hasValue()) << Back.message();
    EXPECT_TRUE(Back->equalsStructurally(Tree));
  }
}

TEST_P(TraceSweep, StringWeightEqualsOpsPlusStructure) {
  // Token weights partition into: leaf reps (= primitive op count),
  // one per structural node, and the level-up jumps. The first two are
  // exact invariants.
  Rng R(GetParam() ^ 0x3333);
  auto Table = TokenTable::create();
  for (int Round = 0; Round < 10; ++Round) {
    Trace T = randomTrace(R, R.uniformInt(1, 100));
    PatternTree Tree = buildTree(T);
    compressTree(Tree);
    WeightedString S = flattenTree(Tree, Table);

    uint64_t LeafWeight = 0, StructuralCount = 0;
    for (size_t I = 0; I < S.size(); ++I) {
      const std::string &Lit = S.literal(I);
      if (Lit == RootLiteral || Lit == HandleLiteral ||
          Lit == BlockLiteral)
        ++StructuralCount;
      else if (Lit != LevelUpLiteral)
        LeafWeight += S.weight(I);
    }
    EXPECT_EQ(LeafWeight, Tree.totalReps());
    size_t StructuralNodes = 0;
    for (NodeId Id : Tree.preorder())
      StructuralNodes += Tree.node(Id).Kind != NodeKind::Op;
    EXPECT_EQ(StructuralCount, StructuralNodes);
  }
}

TEST_P(TraceSweep, TraceSerializationRoundTrips) {
  Rng R(GetParam() ^ 0x4444);
  for (int Round = 0; Round < 10; ++Round) {
    Trace T = randomTrace(R, R.uniformInt(0, 80));
    Expected<Trace> Back = parseTrace(formatTrace(T), T.name());
    ASSERT_TRUE(Back.hasValue()) << Back.message();
    EXPECT_EQ(Back->events(), T.events());
  }
}

TEST_P(TraceSweep, KernelSymmetryOnPipelineOutput) {
  Rng R(GetParam() ^ 0x5555);
  Pipeline P;
  KastSpectrumKernel Kernel({/*CutWeight=*/2});
  for (int Round = 0; Round < 5; ++Round) {
    WeightedString S = P.convert(randomTrace(R, R.uniformInt(1, 80)));
    WeightedString T = P.convert(randomTrace(R, R.uniformInt(1, 80)));
    EXPECT_DOUBLE_EQ(Kernel.evaluate(S, T), Kernel.evaluate(T, S));
    double N = Kernel.evaluateNormalized(S, S);
    if (S.totalWeight() >= 2) {
      EXPECT_NEAR(N, 1.0, 1e-12);
    }
  }
}

TEST_P(TraceSweep, SelfKernelEqualsSquaredWeight) {
  Rng R(GetParam() ^ 0x6666);
  Pipeline P;
  for (int Round = 0; Round < 5; ++Round) {
    WeightedString S = P.convert(randomTrace(R, R.uniformInt(1, 80)));
    for (uint64_t Cut : {1, 2, 8}) {
      KastSpectrumKernel Kernel({Cut});
      double Expected =
          S.totalWeight() >= Cut
              ? static_cast<double>(S.totalWeight()) *
                    static_cast<double>(S.totalWeight())
              : 0.0;
      EXPECT_DOUBLE_EQ(Kernel.evaluate(S, S), Expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

//===----------------------------------------------------------------------===//
// Kernel matrix invariants on a small corpus
//===----------------------------------------------------------------------===//

namespace {

LabeledDataset smallCorpus(uint64_t Seed) {
  CorpusOptions Options;
  Options.BaseA = 2;
  Options.BaseB = 2;
  Options.BaseC = 2;
  Options.BaseD = 2;
  Options.CopiesPerBase = 1;
  Options.Seed = Seed;
  return convertCorpus(Pipeline::withBytes(), generateCorpus(Options));
}

} // namespace

class MatrixSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatrixSweep, NormalizedMatrixWellFormed) {
  LabeledDataset Data = smallCorpus(GetParam());
  KastSpectrumKernel Kernel({/*CutWeight=*/2});
  Matrix K = computeKernelMatrix(Kernel, Data.strings());
  EXPECT_TRUE(K.isSymmetric(1e-9));
  for (size_t I = 0; I < K.rows(); ++I) {
    EXPECT_DOUBLE_EQ(K.at(I, I), 1.0);
    for (size_t J = 0; J < K.cols(); ++J)
      EXPECT_GE(K.at(I, J), 0.0);
  }
}

TEST_P(MatrixSweep, SerialAndParallelAgree) {
  LabeledDataset Data = smallCorpus(GetParam() ^ 0xABCD);
  KastSpectrumKernel Kernel({/*CutWeight=*/2});
  KernelMatrixOptions Serial;
  Serial.Threads = 1;
  KernelMatrixOptions Parallel;
  Parallel.Threads = 0;
  Matrix A = computeKernelMatrix(Kernel, Data.strings(), Serial);
  Matrix B = computeKernelMatrix(Kernel, Data.strings(), Parallel);
  EXPECT_DOUBLE_EQ(A.maxAbsDiff(B), 0.0);
}

TEST_P(MatrixSweep, RepairedMatrixIsPsd) {
  LabeledDataset Data = smallCorpus(GetParam() ^ 0xDCBA);
  KastSpectrumKernel Kernel({/*CutWeight=*/2});
  KernelMatrixOptions Options;
  Options.RepairPsd = true;
  Matrix K = computeKernelMatrix(Kernel, Data.strings(), Options);
  EXPECT_GE(minEigenvalue(K), -1e-8);
}

TEST_P(MatrixSweep, MutantsCloserThanCrossCategory) {
  // Average within-category similarity must exceed average
  // cross-category similarity — the premise of the whole method.
  CorpusOptions Options;
  Options.BaseA = 2;
  Options.BaseB = 2;
  Options.BaseC = 0; // C/D overlap by design; exclude for this bound.
  Options.BaseD = 0;
  Options.CopiesPerBase = 2;
  Options.Seed = GetParam();
  LabeledDataset Data =
      convertCorpus(Pipeline::withBytes(), generateCorpus(Options));
  KastSpectrumKernel Kernel({/*CutWeight=*/2});
  Matrix K = computeKernelMatrix(Kernel, Data.strings());
  double Within = 0.0, Cross = 0.0;
  size_t NumWithin = 0, NumCross = 0;
  for (size_t I = 0; I < Data.size(); ++I)
    for (size_t J = I + 1; J < Data.size(); ++J) {
      if (Data.label(I) == Data.label(J)) {
        Within += K.at(I, J);
        ++NumWithin;
      } else {
        Cross += K.at(I, J);
        ++NumCross;
      }
    }
  ASSERT_GT(NumWithin, 0u);
  ASSERT_GT(NumCross, 0u);
  EXPECT_GT(Within / NumWithin, Cross / NumCross);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatrixSweep,
                         ::testing::Values(101, 202, 303, 404));

//===----------------------------------------------------------------------===//
// Retrieval invariants: exact scan vs the candidate-generation tier
//===----------------------------------------------------------------------===//

class RetrievalSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RetrievalSweep, SelfQueryRanksSelfFirstUnderBothPaths) {
  LabeledDataset Data = smallCorpus(GetParam() ^ 0x5E1F);
  BlendedSpectrumKernel Kernel(3, 1.0, /*Weighted=*/true, /*CutWeight=*/2);
  // One shard, so positions are insertion order; entry I is "e<I>".
  IndexService Index(Kernel.name(), {.Shards = 1});
  std::vector<KernelProfile> Profiles;
  for (size_t I = 0; I < Data.size(); ++I) {
    Profiles.push_back(Kernel.profile(Data.string(I)));
    Index.add("e" + std::to_string(I), Data.label(I), Profiles.back());
  }
  ASSERT_GT(Index.size(), 0u);
  const auto Position = [](const ServiceHit &H) {
    return static_cast<size_t>(std::stoul(H.Name.substr(1)));
  };
  // Cluster-pruned but not feature-pruned: with MaxDocFrequency at 1.0
  // a self-query always shares features with itself, and its own
  // cluster is by construction the router's first probe, so even
  // NProbe == 1 must keep the self hit.
  RoutingOptions Opts;
  Opts.Cluster.NumCentroids = 4;
  Opts.DefaultNProbe = 1;
  Index.rebuildRouting(Opts, 1);

  for (size_t I = 0; I < Profiles.size(); ++I) {
    const KernelProfile &Self = Profiles[I];
    std::vector<ServiceHit> Exact = Index.query(Self, 1, true, 1);
    std::vector<ServiceHit> Approx = Index.queryApprox(Self, 1, true, 0, 1);
    ASSERT_EQ(Exact.size(), 1u) << I;
    ASSERT_EQ(Approx.size(), 1u) << I;
    // Rank 1 is the entry itself at cosine 1 — or an exact duplicate
    // added earlier, which both paths must agree on (a duplicate has
    // the same features, hence the same cluster, hence is probed).
    EXPECT_NEAR(Exact[0].Similarity, 1.0, 1e-12) << I;
    EXPECT_NEAR(Approx[0].Similarity, 1.0, 1e-12) << I;
    EXPECT_EQ(Approx[0].Name, Exact[0].Name) << I;
    EXPECT_LE(Position(Exact[0]), I) << I;
    // Raw (unnormalized): the self dot is the self-norm².
    std::vector<ServiceHit> Raw =
        Index.queryApprox(Self, 1, /*Normalize=*/false, 0, 1);
    ASSERT_EQ(Raw.size(), 1u) << I;
    EXPECT_GE(Raw[0].Similarity, Self.norm() * Self.norm() - 1e-9) << I;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetrievalSweep,
                         ::testing::Values(11, 22, 33, 44));

//===----------------------------------------------------------------------===//
// Fuzz-style robustness: parsers must reject or accept, never crash
//===----------------------------------------------------------------------===//

class FuzzSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzSweep, TraceParserDigestsGarbage) {
  Rng R(GetParam() * 31337 + 5);
  for (int Round = 0; Round < 50; ++Round) {
    std::string Junk;
    size_t Length = R.uniformInt(0, 200);
    for (size_t I = 0; I < Length; ++I) {
      // Printable-heavy mix with some control characters.
      if (R.flip(0.9))
        Junk += static_cast<char>(R.uniformInt(32, 126));
      else
        Junk += static_cast<char>(R.uniformInt(0, 31));
    }
    Expected<Trace> T = parseTrace(Junk, "fuzz");
    if (T)
      EXPECT_LE(T->size(), Length); // Sanity only; no crash is the test.
    else
      EXPECT_FALSE(T.message().empty());
  }
}

TEST_P(FuzzSweep, TraceParserAcceptsMangledValidTraces) {
  // Start from a valid trace and splice random bytes in; the parser
  // must produce a trace or a located error, never crash or hang.
  Rng R(GetParam() * 7 + 1);
  Trace Base = randomTrace(R, 40);
  std::string Text = formatTrace(Base);
  for (int Round = 0; Round < 50; ++Round) {
    std::string Mangled = Text;
    size_t Edits = R.uniformInt(1, 5);
    for (size_t E = 0; E < Edits && !Mangled.empty(); ++E) {
      size_t Pos = R.uniformInt(0, Mangled.size() - 1);
      Mangled[Pos] = static_cast<char>(R.uniformInt(32, 126));
    }
    Expected<Trace> T = parseTrace(Mangled, "mangled");
    if (!T) {
      EXPECT_NE(T.message().find("line"), std::string::npos);
    }
  }
}

TEST_P(FuzzSweep, WeightedStringParserDigestsGarbage) {
  Rng R(GetParam() * 97 + 3);
  auto Table = TokenTable::create();
  for (int Round = 0; Round < 50; ++Round) {
    std::string Junk;
    size_t Length = R.uniformInt(0, 120);
    for (size_t I = 0; I < Length; ++I)
      Junk += static_cast<char>(R.uniformInt(33, 126));
    Expected<WeightedString> S = parseWeightedString(Junk, Table);
    if (S && !S->empty()) {
      // Anything parsed must re-serialize and re-parse to itself.
      Expected<WeightedString> Back =
          parseWeightedString(formatWeightedString(*S), Table);
      ASSERT_TRUE(Back.hasValue());
      EXPECT_EQ(*Back, *S);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Values(1, 2, 3));
