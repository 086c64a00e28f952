//===- tree/TreeCompressor.cpp - The four merge rules ----------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "tree/TreeCompressor.h"

#include <algorithm>
#include <cassert>

using namespace kast;

namespace {

/// True if the two signatures are equal; one-element signatures, the
/// common case, compare without a loop.
template <typename T>
bool sameSig(std::span<const T> A, std::span<const T> B) {
  if (A.size() != B.size())
    return false;
  if (A.size() == 1)
    return A[0] == B[0];
  return std::ranges::equal(A, B);
}

bool allZero(std::span<const uint64_t> Bytes) {
  return std::ranges::all_of(Bytes, [](uint64_t B) { return B == 0; });
}

/// Merges leaf \p B into leaf \p A, both of \p Tree, under \p Rule,
/// rewriting \p A; \returns true if the rule applied.
template <int Rule>
bool merge(PatternTree &Tree, PatternNode &A, const PatternNode &B) {
  // Rules 1 and 2 want the same name, 3 and 4 different ones; only
  // then do the bytes matter.
  const bool SameName = sameSig(Tree.names(A.NameSig), Tree.names(B.NameSig));
  if (SameName != (Rule <= 2))
    return false;
  const bool SameBytes =
      sameSig(Tree.bytes(A.ByteSig), Tree.bytes(B.ByteSig));
  if constexpr (Rule == 1) {
    // Same name, same bytes: a loop repeating one operation.
    if (!SameBytes)
      return false;
  } else if constexpr (Rule == 2) {
    // Same name, different bytes: e.g. a struct read field by field.
    if (SameBytes)
      return false;
    A.ByteSig = Tree.concatBytes(A.ByteSig, B.ByteSig);
  } else if constexpr (Rule == 3) {
    // Different name, same bytes: e.g. interlaced read/write = copy.
    if (!SameBytes)
      return false;
    A.NameSig = Tree.concatNames(A.NameSig, B.NameSig);
  } else {
    // Different name, different bytes, exactly one side all-zero:
    // e.g. lseek (0 bytes) + write (n bytes).
    if (SameBytes)
      return false;
    const bool AZero = allZero(Tree.bytes(A.ByteSig));
    if (AZero == allZero(Tree.bytes(B.ByteSig)))
      return false;
    A.NameSig = Tree.concatNames(A.NameSig, B.NameSig);
    if (AZero)
      A.ByteSig = B.ByteSig;
  }
  A.Reps += B.Reps;
  return true;
}

/// One rule's left-to-right sweep over a block's leaves, compacting
/// \p Run in place; \returns the number of merges. Rule 1 keeps the
/// merged leaf as the left operand (run collapse); rules 2-4 advance
/// past it (disjoint pairs).
template <int Rule>
size_t sweep(PatternTree &Tree, std::span<PatternNode> Run) {
  size_t Out = 0, I = 0;
  while (I < Run.size()) {
    PatternNode A = Run[I];
    size_t J = I + 1;
    if constexpr (Rule == 1) {
      while (J < Run.size() && merge<1>(Tree, A, Run[J]))
        ++J;
    } else if (J < Run.size() && merge<Rule>(Tree, A, Run[J])) {
      ++J; // Disjoint pairs: stop after one merge.
    }
    Run[Out++] = A;
    I = J;
  }
  return Run.size() - Out;
}

using SweepFn = size_t (*)(PatternTree &, std::span<PatternNode>);
constexpr SweepFn Sweeps[4] = {sweep<1>, sweep<2>, sweep<3>, sweep<4>};

} // namespace

bool kast::tryMergeRule(PatternTree &Tree, int Rule, NodeId AId, NodeId BId) {
  assert(Rule >= 1 && Rule <= 4 && "rule index out of range");
  PatternNode &A = Tree.node(AId);
  const PatternNode &B = Tree.node(BId);
  if (A.Kind != NodeKind::Op || B.Kind != NodeKind::Op)
    return false;
  switch (Rule) {
  case 1:
    return merge<1>(Tree, A, B);
  case 2:
    return merge<2>(Tree, A, B);
  case 3:
    return merge<3>(Tree, A, B);
  case 4:
    return merge<4>(Tree, A, B);
  }
  return false;
}

CompressionStats kast::compressTree(PatternTree &Tree,
                                    const CompressorOptions &Options) {
  CompressionStats Stats;
  const bool Enabled[4] = {Options.EnableRule1, Options.EnableRule2,
                           Options.EnableRule3, Options.EnableRule4};

  // Blocks are independent, so each runs all its passes at once. A
  // pass that merges nothing leaves the block at its fixpoint.
  Tree.compactLeafRuns([&](std::span<PatternNode> Run) {
    Stats.LeavesBefore += Run.size();
    size_t Live = Run.size();
    bool Merged = Live > 1;
    for (size_t Pass = 0; Pass < Options.Passes && Merged; ++Pass) {
      Merged = false;
      for (int Rule = 1; Rule <= 4; ++Rule) {
        size_t Merges =
            Enabled[Rule - 1] ? Sweeps[Rule - 1](Tree, Run.first(Live)) : 0;
        Stats.MergesByRule[Rule - 1] += Merges;
        Live -= Merges;
        Merged |= Merges != 0;
      }
    }
    return Live;
  });

  Stats.LeavesAfter = Stats.LeavesBefore;
  for (size_t Merges : Stats.MergesByRule)
    Stats.LeavesAfter -= Merges;
  return Stats;
}
