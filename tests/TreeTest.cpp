//===- tests/TreeTest.cpp - tree library unit tests ------------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "tree/PatternTree.h"
#include "tree/TreeBuilder.h"
#include "tree/TreeCompressor.h"
#include "tree/TreeDump.h"

#include <gtest/gtest.h>

using namespace kast;

namespace {

/// A ROOT -> HANDLE -> BLOCK tree to hang test leaves on.
struct BlockFixture {
  PatternTree Tree;
  NodeId Block;

  BlockFixture()
      : Block(Tree.addChild(Tree.addChild(Tree.root(), NodeKind::Handle),
                            NodeKind::Block)) {}

  /// Leaf helper.
  NodeId op(const std::string &Name, uint64_t Bytes, uint64_t Reps = 1) {
    return Tree.addOp(Block, Name, Bytes, Reps);
  }

  /// Merges leaf \p B into leaf \p A under \p Rule.
  bool merge(int Rule, NodeId A, NodeId B) {
    return tryMergeRule(Tree, Rule, A, B);
  }
};

/// The op leaves under the first BLOCK of the first HANDLE.
std::vector<NodeId> firstBlockLeaves(const PatternTree &Tree) {
  std::vector<NodeId> Handles = Tree.children(Tree.root());
  EXPECT_FALSE(Handles.empty());
  std::vector<NodeId> Blocks = Tree.children(Handles[0]);
  EXPECT_FALSE(Blocks.empty());
  return Tree.children(Blocks[0]);
}

} // namespace

//===----------------------------------------------------------------------===//
// PatternTree basics
//===----------------------------------------------------------------------===//

TEST(PatternTreeTest, RootAlwaysExists) {
  PatternTree T;
  EXPECT_EQ(T.size(), 1u);
  EXPECT_EQ(T.node(T.root()).Kind, NodeKind::Root);
  EXPECT_EQ(T.depth(T.root()), 0u);
}

TEST(PatternTreeTest, AddChildTracksParentAndDepth) {
  PatternTree T;
  NodeId H = T.addChild(T.root(), NodeKind::Handle);
  NodeId B = T.addChild(H, NodeKind::Block);
  NodeId O = T.addOp(B, "read", 8);
  EXPECT_EQ(T.depth(H), 1u);
  EXPECT_EQ(T.depth(B), 2u);
  EXPECT_EQ(T.depth(O), 3u);
  EXPECT_EQ(T.node(O).Parent, B);
}

TEST(PatternTreeTest, PreorderVisitsParentBeforeChildren) {
  PatternTree T;
  NodeId H1 = T.addChild(T.root(), NodeKind::Handle);
  NodeId B1 = T.addChild(H1, NodeKind::Block);
  NodeId O1 = T.addOp(B1, "read", 1);
  NodeId H2 = T.addChild(T.root(), NodeKind::Handle);
  std::vector<NodeId> Order = T.preorder();
  ASSERT_EQ(Order.size(), 5u);
  EXPECT_EQ(Order[0], T.root());
  EXPECT_EQ(Order[1], H1);
  EXPECT_EQ(Order[2], B1);
  EXPECT_EQ(Order[3], O1);
  EXPECT_EQ(Order[4], H2);
}

TEST(PatternTreeTest, LabelsAndSignatures) {
  BlockFixture F;
  NodeId N = F.op("read", 1024, 5);
  EXPECT_EQ(F.Tree.nameLabel(N), "read");
  EXPECT_EQ(F.Tree.byteLabel(N), "1024");
  std::vector<uint32_t> Ops = {F.Tree.internOp("read"),
                               F.Tree.internOp("write")};
  std::vector<uint64_t> Bytes = {1024, 2048};
  NodeId M = F.Tree.addOp(F.Block, Ops, Bytes, 5);
  EXPECT_EQ(F.Tree.nameLabel(M), "read+write");
  EXPECT_EQ(F.Tree.byteLabel(M), "1024+2048");
  EXPECT_FALSE(F.Tree.isZeroBytes(M));
  NodeId Z = F.op("lseek", 0);
  EXPECT_TRUE(F.Tree.isZeroBytes(Z));
}

TEST(PatternTreeTest, TotalRepsCountsLeaves) {
  PatternTree T;
  NodeId H = T.addChild(T.root(), NodeKind::Handle);
  NodeId B = T.addChild(H, NodeKind::Block);
  T.addOp(B, "read", 8, 5);
  T.addOp(B, "write", 8, 2);
  EXPECT_EQ(T.totalReps(), 7u);
  EXPECT_EQ(T.numLeaves(), 2u);
}

//===----------------------------------------------------------------------===//
// TreeBuilder
//===----------------------------------------------------------------------===//

TEST(TreeBuilderTest, GroupsByHandleAndBlock) {
  Trace T;
  T.append(OpKind::Open, 3);
  T.append(OpKind::Read, 3, 100);
  T.append(OpKind::Read, 4, 50); // Interleaved handle without open.
  T.append(OpKind::Write, 3, 100);
  T.append(OpKind::Close, 3);
  PatternTree Tree = buildTree(T);

  std::vector<NodeId> Handles = Tree.children(Tree.root());
  ASSERT_EQ(Handles.size(), 2u); // Two handles.
  EXPECT_EQ(Tree.node(Handles[0]).Handle, 3u);
  std::vector<NodeId> H3Blocks = Tree.children(Handles[0]);
  ASSERT_EQ(H3Blocks.size(), 1u); // One block.
  EXPECT_EQ(Tree.children(H3Blocks[0]).size(), 2u); // read, write.

  EXPECT_EQ(Tree.node(Handles[1]).Handle, 4u);
  ASSERT_EQ(Tree.children(Handles[1]).size(), 1u); // Implicit block.
}

TEST(TreeBuilderTest, OpenClosePairsMakeSeparateBlocks) {
  Trace T;
  for (int Round = 0; Round < 3; ++Round) {
    T.append(OpKind::Open, 1);
    T.append(OpKind::Read, 1, 10);
    T.append(OpKind::Close, 1);
  }
  PatternTree Tree = buildTree(T);
  NodeId H = Tree.children(Tree.root())[0];
  EXPECT_EQ(Tree.children(H).size(), 3u);
}

TEST(TreeBuilderTest, ReopenWithoutCloseStartsFreshBlock) {
  Trace T;
  T.append(OpKind::Open, 1);
  T.append(OpKind::Read, 1, 10);
  T.append(OpKind::Open, 1); // No close before.
  T.append(OpKind::Write, 1, 10);
  PatternTree Tree = buildTree(T);
  std::vector<NodeId> Blocks = Tree.children(Tree.children(Tree.root())[0]);
  ASSERT_EQ(Blocks.size(), 2u);
  EXPECT_EQ(Tree.children(Blocks[0]).size(), 1u);
  EXPECT_EQ(Tree.children(Blocks[1]).size(), 1u);
}

TEST(TreeBuilderTest, DanglingCloseIgnored) {
  Trace T;
  T.append(OpKind::Close, 1);
  T.append(OpKind::Read, 1, 10);
  PatternTree Tree = buildTree(T);
  EXPECT_EQ(Tree.numLeaves(), 1u);
}

TEST(TreeBuilderTest, NegligibleOpsDropped) {
  Trace T;
  T.append(OpKind::Open, 1);
  T.append(OpKind::Fileno, 1);
  T.append(OpKind::Mmap, 1, 4096);
  T.append(OpKind::Read, 1, 10);
  T.append(OpKind::Close, 1);
  PatternTree Tree = buildTree(T);
  EXPECT_EQ(Tree.numLeaves(), 1u);
}

TEST(TreeBuilderTest, IgnoreBytesZeroesLeaves) {
  Trace T;
  T.append(OpKind::Read, 1, 100);
  TreeBuilderOptions Options;
  Options.IgnoreBytes = true;
  PatternTree Tree = buildTree(T, Options);
  std::vector<NodeId> Leaves = firstBlockLeaves(Tree);
  ASSERT_EQ(Leaves.size(), 1u);
  EXPECT_TRUE(Tree.isZeroBytes(Leaves[0]));
}

TEST(TreeBuilderTest, OpenCloseEmitNoLeaves) {
  Trace T;
  T.append(OpKind::Open, 1);
  T.append(OpKind::Close, 1);
  PatternTree Tree = buildTree(T);
  EXPECT_EQ(Tree.numLeaves(), 0u);
}

//===----------------------------------------------------------------------===//
// tryMergeRule — the four §3.1 transformations in isolation
//===----------------------------------------------------------------------===//

TEST(MergeRuleTest, Rule1SameNameSameBytes) {
  BlockFixture F;
  NodeId A = F.op("read", 8, 2);
  ASSERT_TRUE(F.merge(1, A, F.op("read", 8, 3)));
  EXPECT_EQ(F.Tree.nameLabel(A), "read");
  EXPECT_EQ(F.Tree.byteLabel(A), "8");
  EXPECT_EQ(F.Tree.node(A).Reps, 5u);
}

TEST(MergeRuleTest, Rule1RejectsDifferences) {
  BlockFixture F;
  EXPECT_FALSE(F.merge(1, F.op("read", 8), F.op("read", 9)));
  EXPECT_FALSE(F.merge(1, F.op("read", 8), F.op("write", 8)));
}

TEST(MergeRuleTest, Rule2SameNameDifferentBytes) {
  // The paper's struct example: read 2 bytes then read 4 bytes.
  BlockFixture F;
  NodeId A = F.op("read", 2);
  ASSERT_TRUE(F.merge(2, A, F.op("read", 4)));
  EXPECT_EQ(F.Tree.nameLabel(A), "read");
  EXPECT_EQ(F.Tree.byteLabel(A), "2+4");
  EXPECT_EQ(F.Tree.node(A).Reps, 2u);
}

TEST(MergeRuleTest, Rule2RejectsSameBytes) {
  BlockFixture F;
  EXPECT_FALSE(F.merge(2, F.op("read", 2), F.op("read", 2)));
  EXPECT_FALSE(F.merge(2, F.op("read", 2), F.op("write", 4)));
}

TEST(MergeRuleTest, Rule3DifferentNameSameBytes) {
  // The paper's copy example: interlaced read and write of n bytes.
  BlockFixture F;
  NodeId A = F.op("read", 64);
  ASSERT_TRUE(F.merge(3, A, F.op("write", 64)));
  EXPECT_EQ(F.Tree.nameLabel(A), "read+write");
  EXPECT_EQ(F.Tree.byteLabel(A), "64");
  EXPECT_EQ(F.Tree.node(A).Reps, 2u);
}

TEST(MergeRuleTest, Rule4ZeroByteSideDropped) {
  // The paper's lseek+write example.
  BlockFixture F;
  NodeId A = F.op("lseek", 0);
  ASSERT_TRUE(F.merge(4, A, F.op("write", 512)));
  EXPECT_EQ(F.Tree.nameLabel(A), "lseek+write");
  EXPECT_EQ(F.Tree.byteLabel(A), "512");
  EXPECT_EQ(F.Tree.node(A).Reps, 2u);

  // Order-independent on the zero side.
  NodeId A2 = F.op("write", 512);
  ASSERT_TRUE(F.merge(4, A2, F.op("lseek", 0)));
  EXPECT_EQ(F.Tree.nameLabel(A2), "write+lseek");
  EXPECT_EQ(F.Tree.byteLabel(A2), "512");
}

TEST(MergeRuleTest, Rule4NeedsExactlyOneZeroSide) {
  BlockFixture F;
  EXPECT_FALSE(F.merge(4, F.op("lseek", 0), F.op("fsync", 0)));
  EXPECT_FALSE(F.merge(4, F.op("read", 2), F.op("write", 4)));
}

TEST(MergeRuleTest, StructuralNodesNeverMerge) {
  BlockFixture F;
  for (int Rule = 1; Rule <= 4; ++Rule)
    EXPECT_FALSE(F.merge(Rule, F.Block, F.op("read", 8)));
}

//===----------------------------------------------------------------------===//
// compressTree — sweeps and passes
//===----------------------------------------------------------------------===//

namespace {

/// Builds a single-block trace with the given (name, bytes) ops.
Trace blockTrace(const std::vector<std::pair<std::string, uint64_t>> &Ops) {
  Trace T;
  T.append(OpKind::Open, 1);
  for (const auto &[Name, Bytes] : Ops)
    T.append(TraceEvent(Name, 1, Bytes));
  T.append(OpKind::Close, 1);
  return T;
}

} // namespace

TEST(CompressorTest, Rule1CollapsesARunInOneSweep) {
  Trace T = blockTrace({{"read", 8}, {"read", 8}, {"read", 8}, {"read", 8}});
  PatternTree Tree = buildTree(T);
  CompressionStats Stats = compressTree(Tree);
  EXPECT_EQ(Tree.size(), 4u); // Root, handle, block and the merged leaf.
  std::vector<NodeId> Leaves = firstBlockLeaves(Tree);
  ASSERT_EQ(Leaves.size(), 1u);
  EXPECT_EQ(Tree.node(Leaves[0]).Reps, 4u);
  EXPECT_EQ(Stats.MergesByRule[0], 3u);
  EXPECT_EQ(Stats.LeavesBefore, 4u);
  EXPECT_EQ(Stats.LeavesAfter, 1u);
}

TEST(CompressorTest, AlternationCompressesAcrossPasses) {
  // read[2] read[4] read[2] read[4]:
  //   pass 1 rule 2 pairs -> read[2+4] read[2+4]
  //   pass 2 rule 1       -> read[2+4] x2
  Trace T = blockTrace({{"read", 2}, {"read", 4}, {"read", 2}, {"read", 4}});
  PatternTree Tree = buildTree(T);
  compressTree(Tree);
  std::vector<NodeId> Leaves = firstBlockLeaves(Tree);
  ASSERT_EQ(Leaves.size(), 1u);
  EXPECT_EQ(Tree.nameLabel(Leaves[0]), "read");
  EXPECT_EQ(Tree.byteLabel(Leaves[0]), "2+4");
  EXPECT_EQ(Tree.node(Leaves[0]).Reps, 4u);
}

TEST(CompressorTest, SinglePassLeavesAlternationPairs) {
  Trace T = blockTrace({{"read", 2}, {"read", 4}, {"read", 2}, {"read", 4}});
  PatternTree Tree = buildTree(T);
  CompressorOptions Options;
  Options.Passes = 1;
  compressTree(Tree, Options);
  std::vector<NodeId> Leaves = firstBlockLeaves(Tree);
  ASSERT_EQ(Leaves.size(), 2u);
  EXPECT_EQ(Tree.byteLabel(Leaves[0]), "2+4");
  EXPECT_EQ(Tree.byteLabel(Leaves[1]), "2+4");
}

TEST(CompressorTest, CopyPatternUsesRule3ThenRule1) {
  // Interlaced read/write with equal sizes: a tacit copy loop.
  Trace T = blockTrace(
      {{"read", 64}, {"write", 64}, {"read", 64}, {"write", 64}});
  PatternTree Tree = buildTree(T);
  compressTree(Tree);
  std::vector<NodeId> Leaves = firstBlockLeaves(Tree);
  ASSERT_EQ(Leaves.size(), 1u);
  EXPECT_EQ(Tree.nameLabel(Leaves[0]), "read+write");
  EXPECT_EQ(Tree.node(Leaves[0]).Reps, 4u);
}

TEST(CompressorTest, SeekWriteLoopUsesRule4) {
  Trace T = blockTrace(
      {{"lseek", 0}, {"write", 512}, {"lseek", 0}, {"write", 512}});
  PatternTree Tree = buildTree(T);
  compressTree(Tree);
  std::vector<NodeId> Leaves = firstBlockLeaves(Tree);
  ASSERT_EQ(Leaves.size(), 1u);
  EXPECT_EQ(Tree.nameLabel(Leaves[0]), "lseek+write");
  EXPECT_EQ(Tree.byteLabel(Leaves[0]), "512");
  EXPECT_EQ(Tree.node(Leaves[0]).Reps, 4u);
}

TEST(CompressorTest, RepsConservedByCompression) {
  Trace T = blockTrace({{"read", 2}, {"read", 4}, {"read", 2}, {"read", 4},
                        {"write", 8}, {"write", 8}, {"lseek", 0},
                        {"write", 16}});
  PatternTree Tree = buildTree(T);
  uint64_t Before = Tree.totalReps();
  compressTree(Tree);
  EXPECT_EQ(Tree.totalReps(), Before);
}

TEST(CompressorTest, ZeroPassesIsIdentity) {
  Trace T = blockTrace({{"read", 8}, {"read", 8}});
  PatternTree Tree = buildTree(T);
  PatternTree Copy = Tree;
  CompressorOptions Options;
  Options.Passes = 0;
  compressTree(Tree, Options);
  EXPECT_TRUE(Tree.equalsStructurally(Copy));
}

TEST(CompressorTest, DisabledRulesDoNotFire) {
  Trace T = blockTrace({{"read", 8}, {"read", 8}});
  PatternTree Tree = buildTree(T);
  CompressorOptions Options;
  Options.EnableRule1 = false;
  CompressionStats Stats = compressTree(Tree, Options);
  EXPECT_EQ(Stats.MergesByRule[0], 0u);
  EXPECT_EQ(Tree.numLeaves(), 2u);
}

TEST(CompressorTest, CompressionIsIdempotentAtFixpoint) {
  Trace T = blockTrace({{"read", 2}, {"read", 4}, {"read", 2}, {"read", 4},
                        {"write", 8}, {"write", 8}});
  PatternTree Tree = buildTree(T);
  CompressorOptions Many;
  Many.Passes = 8;
  compressTree(Tree, Many);
  PatternTree Again = Tree;
  compressTree(Again, Many);
  EXPECT_TRUE(Tree.equalsStructurally(Again));
}

TEST(CompressorTest, BlocksDoNotMergeAcrossBoundaries) {
  Trace T;
  T.append(OpKind::Open, 1);
  T.append(OpKind::Read, 1, 8);
  T.append(OpKind::Close, 1);
  T.append(OpKind::Open, 1);
  T.append(OpKind::Read, 1, 8);
  T.append(OpKind::Close, 1);
  PatternTree Tree = buildTree(T);
  compressTree(Tree);
  EXPECT_EQ(Tree.numLeaves(), 2u); // One per block; no cross-merge.
}

//===----------------------------------------------------------------------===//
// Dumps
//===----------------------------------------------------------------------===//

TEST(TreeDumpTest, AsciiShowsHierarchy) {
  Trace T = blockTrace({{"read", 1024}, {"read", 1024}});
  PatternTree Tree = buildTree(T);
  compressTree(Tree);
  std::string Out = dumpTreeAscii(Tree);
  EXPECT_NE(Out.find("ROOT"), std::string::npos);
  EXPECT_NE(Out.find("HANDLE 1"), std::string::npos);
  EXPECT_NE(Out.find("BLOCK"), std::string::npos);
  EXPECT_NE(Out.find("read[1024] x2"), std::string::npos);
}

TEST(TreeDumpTest, DotIsWellFormed) {
  Trace T = blockTrace({{"write", 4}});
  PatternTree Tree = buildTree(T);
  std::string Out = dumpTreeDot(Tree, "g");
  EXPECT_NE(Out.find("digraph g {"), std::string::npos);
  EXPECT_NE(Out.find("->"), std::string::npos);
  EXPECT_EQ(Out.back(), '\n');
}
