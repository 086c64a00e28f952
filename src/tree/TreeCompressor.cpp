//===- tree/TreeCompressor.cpp - The four merge rules ----------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "tree/TreeCompressor.h"

#include <algorithm>
#include <cassert>

using namespace kast;

bool kast::tryMergeRule(PatternTree &Tree, int Rule, NodeId AId, NodeId BId) {
  assert(Rule >= 1 && Rule <= 4 && "rule index out of range");
  PatternNode &A = Tree.node(AId);
  const PatternNode &B = Tree.node(BId);
  if (A.Kind != NodeKind::Op || B.Kind != NodeKind::Op)
    return false;

  const bool SameName =
      std::ranges::equal(Tree.nameSig(AId), Tree.nameSig(BId));
  const bool SameBytes =
      std::ranges::equal(Tree.byteSig(AId), Tree.byteSig(BId));

  switch (Rule) {
  case 1:
    // Same name, same bytes: a loop repeating one operation.
    if (!SameName || !SameBytes)
      return false;
    break;
  case 2:
    // Same name, different bytes: e.g. a struct read field by field.
    if (!SameName || SameBytes)
      return false;
    A.ByteSig = Tree.concatBytes(A.ByteSig, B.ByteSig);
    break;
  case 3:
    // Different name, same bytes: e.g. interlaced read/write = copy.
    if (SameName || !SameBytes)
      return false;
    A.NameSig = Tree.concatNames(A.NameSig, B.NameSig);
    break;
  case 4: {
    // Different name, different bytes, exactly one side all-zero:
    // e.g. lseek (0 bytes) + write (n bytes).
    if (SameName || SameBytes)
      return false;
    const bool AZero = Tree.isZeroBytes(AId);
    if (AZero == Tree.isZeroBytes(BId))
      return false;
    A.NameSig = Tree.concatNames(A.NameSig, B.NameSig);
    if (AZero)
      A.ByteSig = B.ByteSig;
    break;
  }
  default:
    return false;
  }
  A.Reps += B.Reps;
  return true;
}

/// One rule's left-to-right sweep over a block's children, compacting
/// \p Kids in place. Rule 1 keeps the merged leaf as the left operand
/// (run collapse); rules 2-4 advance past it (disjoint pairs).
static size_t sweep(PatternTree &Tree, int Rule, std::vector<NodeId> &Kids) {
  size_t Merges = 0, Out = 0, I = 0;
  while (I < Kids.size()) {
    size_t J = I + 1;
    while (J < Kids.size() && tryMergeRule(Tree, Rule, Kids[I], Kids[J])) {
      ++Merges;
      ++J;
      if (Rule != 1)
        break; // Disjoint pairs: stop after one merge.
    }
    Kids[Out++] = Kids[I];
    I = J;
  }
  Kids.resize(Out);
  return Merges;
}

CompressionStats kast::compressTree(PatternTree &Tree,
                                    const CompressorOptions &Options) {
  CompressionStats Stats;
  const bool Enabled[4] = {Options.EnableRule1, Options.EnableRule2,
                           Options.EnableRule3, Options.EnableRule4};

  // Blocks are independent, so each runs all its passes at once. A
  // pass that merges nothing leaves the block at its fixpoint.
  std::vector<NodeId> Kids; // Reused by every block.
  for (NodeId Id : Tree.preorder()) {
    if (Tree.node(Id).Kind == NodeKind::Op)
      ++Stats.LeavesBefore;
    if (Tree.node(Id).Kind != NodeKind::Block)
      continue;
    Kids.clear();
    for (NodeId C = Tree.node(Id).FirstChild; C != InvalidNodeId;
         C = Tree.node(C).NextSibling)
      Kids.push_back(C);
    bool Merged = Kids.size() > 1;
    for (size_t Pass = 0; Pass < Options.Passes && Merged; ++Pass) {
      Merged = false;
      for (int Rule = 1; Rule <= 4; ++Rule) {
        size_t Merges = Enabled[Rule - 1] ? sweep(Tree, Rule, Kids) : 0;
        Stats.MergesByRule[Rule - 1] += Merges;
        Merged |= Merges != 0;
      }
    }
    Tree.setChildren(Id, Kids);
  }

  Stats.LeavesAfter = Stats.LeavesBefore;
  for (size_t Merges : Stats.MergesByRule)
    Stats.LeavesAfter -= Merges;
  return Stats;
}
