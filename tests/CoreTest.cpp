//===- tests/CoreTest.cpp - tokens, flattener, serializer, pipeline --------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/Dataset.h"
#include "core/Pipeline.h"
#include "core/StringSerializer.h"
#include "core/Token.h"
#include "core/TreeFlattener.h"
#include "tree/TreeBuilder.h"
#include "tree/TreeCompressor.h"

#include <gtest/gtest.h>

using namespace kast;

//===----------------------------------------------------------------------===//
// TokenTable / WeightedString
//===----------------------------------------------------------------------===//

TEST(TokenTableTest, InterningIsStable) {
  TokenTable T;
  LiteralId A = T.intern("read[8]");
  LiteralId B = T.intern("write[8]");
  EXPECT_NE(A, B);
  EXPECT_EQ(T.intern("read[8]"), A);
  EXPECT_EQ(T.literal(A), "read[8]");
  EXPECT_EQ(T.size(), 2u);
}

TEST(TokenTableTest, LookupWithoutInterning) {
  TokenTable T;
  EXPECT_EQ(T.lookup("missing"), ~static_cast<LiteralId>(0));
  LiteralId Id = T.intern("x");
  EXPECT_EQ(T.lookup("x"), Id);
}

TEST(WeightedStringTest, AppendAndAccess) {
  auto Table = TokenTable::create();
  WeightedString S(Table, "demo");
  S.append("a", 2);
  S.append("b", 3);
  EXPECT_EQ(S.size(), 2u);
  EXPECT_EQ(S.literal(0), "a");
  EXPECT_EQ(S.weight(1), 3u);
  EXPECT_EQ(S.name(), "demo");
}

TEST(WeightedStringTest, TotalAndRangeWeight) {
  auto Table = TokenTable::create();
  WeightedString S(Table);
  for (uint64_t W : {1, 2, 3, 4, 5})
    S.append("t" + std::to_string(W), W);
  EXPECT_EQ(S.totalWeight(), 15u);
  EXPECT_EQ(S.rangeWeight(0, 0), 0u);
  EXPECT_EQ(S.rangeWeight(1, 4), 2u + 3u + 4u);
  EXPECT_EQ(S.rangeWeight(0, 5), 15u);
  WeightedString Empty(Table);
  EXPECT_EQ(Empty.totalWeight(), 0u);
  EXPECT_EQ(Empty.rangeWeight(0, 0), 0u);
}

TEST(WeightedStringTest, RangeWeightValidAfterMutation) {
  auto Table = TokenTable::create();
  WeightedString S(Table);
  S.append("a", 1);
  EXPECT_EQ(S.totalWeight(), 1u);
  S.append("b", 2); // Must extend the prefix table.
  EXPECT_EQ(S.totalWeight(), 3u);
}

TEST(WeightedStringTest, FilteredWeightMatchesPaperDefinition) {
  auto Table = TokenTable::create();
  WeightedString S(Table);
  S.append("a", 1);
  S.append("b", 4);
  S.append("c", 7);
  EXPECT_EQ(S.filteredWeight(4), 11u);
  EXPECT_EQ(S.filteredWeight(1), 12u);
  EXPECT_EQ(S.filteredWeight(8), 0u);
}

//===----------------------------------------------------------------------===//
// Flattener — Figure 2 style conversions
//===----------------------------------------------------------------------===//

namespace {

/// ROOT -> HANDLE -> BLOCK -> ops tree.
PatternTree simpleTree(const std::vector<std::pair<std::string, uint64_t>>
                           &OpsWithReps) {
  PatternTree T;
  NodeId H = T.addChild(T.root(), NodeKind::Handle);
  NodeId B = T.addChild(H, NodeKind::Block);
  for (const auto &[Name, Reps] : OpsWithReps)
    T.addOp(B, Name, 8, Reps);
  return T;
}

} // namespace

TEST(FlattenerTest, SingleBlockString) {
  PatternTree Tree = simpleTree({{"read", 5}});
  auto Table = TokenTable::create();
  WeightedString S = flattenTree(Tree, Table);
  EXPECT_EQ(formatWeightedString(S),
            "[ROOT]:1 [HANDLE]:1 [BLOCK]:1 read[8]:5");
}

TEST(FlattenerTest, SiblingsGetLevelUpWeightOne) {
  PatternTree Tree = simpleTree({{"read", 2}, {"write", 3}});
  auto Table = TokenTable::create();
  WeightedString S = flattenTree(Tree, Table);
  EXPECT_EQ(formatWeightedString(S),
            "[ROOT]:1 [HANDLE]:1 [BLOCK]:1 read[8]:2 [LEVEL_UP]:1 "
            "write[8]:3");
}

TEST(FlattenerTest, AscentAcrossHandlesCountsLevels) {
  // Two handles, one block each: leaf (depth 3) -> next HANDLE
  // (depth 1) jumps 3 levels.
  PatternTree Tree;
  NodeId H1 = Tree.addChild(Tree.root(), NodeKind::Handle);
  NodeId B1 = Tree.addChild(H1, NodeKind::Block);
  Tree.addOp(B1, "read", 4, 1);
  NodeId H2 = Tree.addChild(Tree.root(), NodeKind::Handle);
  NodeId B2 = Tree.addChild(H2, NodeKind::Block);
  Tree.addOp(B2, "write", 4, 1);

  auto Table = TokenTable::create();
  WeightedString S = flattenTree(Tree, Table);
  EXPECT_EQ(formatWeightedString(S),
            "[ROOT]:1 [HANDLE]:1 [BLOCK]:1 read[4]:1 [LEVEL_UP]:3 "
            "[HANDLE]:1 [BLOCK]:1 write[4]:1");
}

TEST(FlattenerTest, BlockToBlockJumpsTwo) {
  PatternTree Tree;
  NodeId H = Tree.addChild(Tree.root(), NodeKind::Handle);
  NodeId B1 = Tree.addChild(H, NodeKind::Block);
  Tree.addOp(B1, "read", 4, 2);
  NodeId B2 = Tree.addChild(H, NodeKind::Block);
  Tree.addOp(B2, "read", 4, 7);

  auto Table = TokenTable::create();
  WeightedString S = flattenTree(Tree, Table);
  EXPECT_EQ(formatWeightedString(S),
            "[ROOT]:1 [HANDLE]:1 [BLOCK]:1 read[4]:2 [LEVEL_UP]:2 "
            "[BLOCK]:1 read[4]:7");
}

TEST(FlattenerTest, TrailingLevelUpOption) {
  PatternTree Tree = simpleTree({{"read", 1}});
  auto Table = TokenTable::create();
  FlattenOptions Options;
  Options.EmitTrailingLevelUp = true;
  WeightedString S = flattenTree(Tree, Table, Options);
  EXPECT_EQ(formatWeightedString(S),
            "[ROOT]:1 [HANDLE]:1 [BLOCK]:1 read[8]:1 [LEVEL_UP]:4");
}

TEST(FlattenerTest, EmptyTreeIsJustRoot) {
  PatternTree Tree;
  auto Table = TokenTable::create();
  WeightedString S = flattenTree(Tree, Table);
  EXPECT_EQ(formatWeightedString(S), "[ROOT]:1");
}

TEST(FlattenerTest, CompressedLeafLiteralsCarrySignatures) {
  PatternTree Tree;
  NodeId H = Tree.addChild(Tree.root(), NodeKind::Handle);
  NodeId B = Tree.addChild(H, NodeKind::Block);
  std::vector<uint32_t> Ops = {Tree.internOp("read"), Tree.internOp("write")};
  std::vector<uint64_t> Bytes = {2, 4};
  Tree.addOp(B, Ops, Bytes, 6);
  auto Table = TokenTable::create();
  WeightedString S = flattenTree(Tree, Table);
  EXPECT_EQ(S.literal(3), "read+write[2+4]");
  EXPECT_EQ(S.weight(3), 6u);
}

//===----------------------------------------------------------------------===//
// Unflatten (inverse mapping)
//===----------------------------------------------------------------------===//

TEST(UnflattenTest, RoundTripsSimpleTrees) {
  PatternTree Tree = simpleTree({{"read", 5}, {"write", 2}});
  auto Table = TokenTable::create();
  WeightedString S = flattenTree(Tree, Table);
  Expected<PatternTree> Back = unflattenString(S);
  ASSERT_TRUE(Back.hasValue());
  EXPECT_TRUE(Back->equalsStructurally(Tree));
}

TEST(UnflattenTest, RoundTripsMultiHandleTrees) {
  PatternTree Tree;
  for (int HandleIdx = 0; HandleIdx < 3; ++HandleIdx) {
    NodeId H = Tree.addChild(Tree.root(), NodeKind::Handle);
    Tree.node(H).Handle = static_cast<uint64_t>(HandleIdx);
    for (int BlockIdx = 0; BlockIdx <= HandleIdx; ++BlockIdx) {
      NodeId B = Tree.addChild(H, NodeKind::Block);
      Tree.addOp(B, "read", 8 * (BlockIdx + 1), 3);
    }
  }
  auto Table = TokenTable::create();
  WeightedString S = flattenTree(Tree, Table);
  Expected<PatternTree> Back = unflattenString(S);
  ASSERT_TRUE(Back.hasValue());
  EXPECT_TRUE(Back->equalsStructurally(Tree));
}

TEST(UnflattenTest, RejectsMalformedStrings) {
  auto Table = TokenTable::create();
  WeightedString NoRoot(Table);
  NoRoot.append(HandleLiteral, 1);
  EXPECT_FALSE(unflattenString(NoRoot).hasValue());

  WeightedString BadAscent(Table);
  BadAscent.append(RootLiteral, 1);
  BadAscent.append(HandleLiteral, 1);
  BadAscent.append(LevelUpLiteral, 5); // Past the root.
  BadAscent.append(HandleLiteral, 1);
  EXPECT_FALSE(unflattenString(BadAscent).hasValue());

  WeightedString LeafAtTop(Table);
  LeafAtTop.append(RootLiteral, 1);
  LeafAtTop.append("read[8]", 1); // Leaf directly under root.
  EXPECT_FALSE(unflattenString(LeafAtTop).hasValue());

  WeightedString Empty(Table);
  EXPECT_FALSE(unflattenString(Empty).hasValue());
}

//===----------------------------------------------------------------------===//
// Serializer
//===----------------------------------------------------------------------===//

TEST(SerializerTest, RoundTrip) {
  auto Table = TokenTable::create();
  WeightedString S(Table, "rt");
  S.append("[ROOT]", 1);
  S.append("read[2+4]", 12);
  S.append("[LEVEL_UP]", 3);
  Expected<WeightedString> Back =
      parseWeightedString(formatWeightedString(S), Table, "rt");
  ASSERT_TRUE(Back.hasValue());
  EXPECT_EQ(*Back, S);
}

TEST(SerializerTest, DefaultWeightIsOne) {
  auto Table = TokenTable::create();
  Expected<WeightedString> S = parseWeightedString("[ROOT] x:3", Table);
  ASSERT_TRUE(S.hasValue());
  EXPECT_EQ(S->weight(0), 1u);
  EXPECT_EQ(S->weight(1), 3u);
}

TEST(SerializerTest, RejectsZeroWeight) {
  auto Table = TokenTable::create();
  EXPECT_FALSE(parseWeightedString("x:0", Table).hasValue());
}

//===----------------------------------------------------------------------===//
// Pipeline end to end
//===----------------------------------------------------------------------===//

TEST(PipelineTest, ConvertsLoopTraceToCompactString) {
  Trace T("loop");
  T.append(OpKind::Open, 1);
  for (int I = 0; I < 10; ++I)
    T.append(OpKind::Read, 1, 4096);
  T.append(OpKind::Close, 1);

  Pipeline P;
  WeightedString S = P.convert(T);
  EXPECT_EQ(formatWeightedString(S),
            "[ROOT]:1 [HANDLE]:1 [BLOCK]:1 read[4096]:10");
  EXPECT_EQ(S.name(), "loop");
}

TEST(PipelineTest, WithoutBytesIgnoresByteValues) {
  Trace T("t");
  T.append(OpKind::Read, 1, 100);
  T.append(OpKind::Read, 1, 999); // Different size.
  Pipeline P = Pipeline::withoutBytes();
  WeightedString S = P.convert(T);
  // With bytes zeroed, rule 1 collapses the pair.
  EXPECT_EQ(formatWeightedString(S),
            "[ROOT]:1 [HANDLE]:1 [BLOCK]:1 read[0]:2");
}

TEST(PipelineTest, SharedTableAcrossConversions) {
  Trace T1("a"), T2("b");
  T1.append(OpKind::Read, 1, 8);
  T2.append(OpKind::Read, 2, 8);
  Pipeline P;
  WeightedString S1 = P.convert(T1);
  WeightedString S2 = P.convert(T2);
  EXPECT_EQ(S1.table().get(), S2.table().get());
  // Same pattern, same ids.
  EXPECT_EQ(S1.literalIds(), S2.literalIds());
}

TEST(PipelineTest, DetailedResultExposesStages) {
  Trace T("d");
  T.append(OpKind::Open, 1);
  T.append(OpKind::Write, 1, 7);
  T.append(OpKind::Write, 1, 7);
  T.append(OpKind::Close, 1);
  Pipeline P;
  PipelineResult R = P.convertDetailed(T);
  EXPECT_EQ(R.Stats.LeavesBefore, 2u);
  EXPECT_EQ(R.Stats.LeavesAfter, 1u);
  EXPECT_EQ(R.Tree.totalReps(), 2u);
  EXPECT_EQ(R.String.size(), 4u);
}

//===----------------------------------------------------------------------===//
// LabeledDataset
//===----------------------------------------------------------------------===//

TEST(DatasetTest, LabelsAndIndices) {
  auto Table = TokenTable::create();
  LabeledDataset D;
  for (int I = 0; I < 5; ++I) {
    WeightedString S(Table, "s" + std::to_string(I));
    S.append("x", 1);
    D.add(std::move(S), I < 3 ? "A" : "B");
  }
  EXPECT_EQ(D.size(), 5u);
  EXPECT_EQ(D.labelSet(), (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(D.indicesOf("A"), (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(D.labelCounts().at("B"), 2u);
}

//===----------------------------------------------------------------------===//
// KernelMatrix edge cases
//===----------------------------------------------------------------------===//

#include "core/KastKernel.h"
#include "core/KernelMatrix.h"

TEST(KernelMatrixTest, EmptyCorpus) {
  KastSpectrumKernel Kernel({2});
  Matrix K = computeKernelMatrix(Kernel, {});
  EXPECT_EQ(K.rows(), 0u);
}

TEST(KernelMatrixTest, SingleString) {
  auto Table = TokenTable::create();
  WeightedString S(Table, "solo");
  S.append("a", 5);
  KastSpectrumKernel Kernel({2});
  Matrix K = computeKernelMatrix(Kernel, {S});
  ASSERT_EQ(K.rows(), 1u);
  EXPECT_DOUBLE_EQ(K.at(0, 0), 1.0); // Normalized diagonal.
  KernelMatrixOptions Raw;
  Raw.Normalize = false;
  Matrix KRaw = computeKernelMatrix(Kernel, {S}, Raw);
  EXPECT_DOUBLE_EQ(KRaw.at(0, 0), 25.0);
}

TEST(KernelMatrixTest, SubCutStringsGetZeroRows) {
  auto Table = TokenTable::create();
  WeightedString Light(Table, "light"), Heavy(Table, "heavy");
  Light.append("a", 1);
  Heavy.append("a", 10);
  KastSpectrumKernel Kernel({5}); // Light weighs 1 < 5.
  Matrix K = computeKernelMatrix(Kernel, {Light, Heavy});
  EXPECT_DOUBLE_EQ(K.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(K.at(0, 0), 1.0); // Diagonal convention.
}

TEST(KernelMatrixTest, UnnormalizedValuesAreRawKernels) {
  auto Table = TokenTable::create();
  WeightedString A(Table), B(Table);
  A.append("x", 3);
  B.append("x", 4);
  KastSpectrumKernel Kernel({2});
  KernelMatrixOptions Raw;
  Raw.Normalize = false;
  Matrix K = computeKernelMatrix(Kernel, {A, B}, Raw);
  EXPECT_DOUBLE_EQ(K.at(0, 1), 12.0);
  EXPECT_DOUBLE_EQ(K.at(0, 0), 9.0);
  EXPECT_DOUBLE_EQ(K.at(1, 1), 16.0);
}
