//===- tree/TreeCompressor.h - The four merge rules ------------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compression of consecutive sibling op leaves inside a BLOCK, per
/// §3.1 of the paper ("a set of consecutive operation nodes on the same
/// block can be expressed as a single node when they present some
/// simple patterns"). Four transformations, "performed in the given
/// order":
///
///   1. same name, same bytes      -> one node, same information
///   2. same name, different bytes -> one node, combined byte value
///   3. different name, same bytes -> one node, combined name
///   4. different name, different bytes, one side zero bytes
///                                 -> combined name, non-zero bytes
///
/// and "the previous steps are repeated once again to capture higher
/// level patterns" — i.e. two passes by default.
///
/// KAST pins down the parts the paper leaves informal:
///
///  * Each rule sweeps a block's sibling list left to right before the
///    next rule runs. Rule 1 is *run-collapsing*: after a merge the
///    merged node is compared against the next sibling again, so a run
///    of n identical operations becomes one node in a single sweep
///    (the paper's canonical example, "a read operation inside a
///    loop"). Rules 2-4 merge *disjoint pairs*: after a merge the sweep
///    advances past the merged node. This preserves alternation
///    structure — read[2] read[4] read[2] read[4] becomes
///    read[2+4] read[2+4] under rule 2, which the next pass's rule 1
///    then collapses to (read[2+4] x2), instead of greedily swallowing
///    the whole block into one token.
///  * A merged node's repetition count is the sum of both inputs, so
///    leaf weights always count primitive operations (conserved by
///    compression; asserted in tests).
///
/// Compression is one forward pass over the tree's pre-order node
/// vector (PatternTree::compactLeafRuns). Each block's leaves are one
/// contiguous run; the run moves down into place, and every sweep
/// compacts it there. A merge rewrites the left leaf A and drops B:
/// rule 1 adds the repetition counts and keeps A's spans, rules 2 and
/// 3 concatenate the signatures in the tree's arena (extending A's
/// span when B's directly follows it), and rule 4 concatenates the
/// names and points at the non-zero side's byte span. The survivors
/// stay where the sweeps left them and the next node follows them, so
/// the compressed tree is again in pre-order and holds no orphans.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_TREE_TREECOMPRESSOR_H
#define KAST_TREE_TREECOMPRESSOR_H

#include "tree/PatternTree.h"

namespace kast {

/// Options controlling compression.
struct CompressorOptions {
  /// Number of times the four-rule sequence runs. The paper applies it
  /// twice. 0 disables compression.
  size_t Passes = 2;

  /// Individual rule switches (for ablation).
  bool EnableRule1 = true; ///< same name, same bytes
  bool EnableRule2 = true; ///< same name, different bytes
  bool EnableRule3 = true; ///< different name, same bytes
  bool EnableRule4 = true; ///< different name, one side zero bytes
};

/// Statistics of one compression run.
struct CompressionStats {
  size_t LeavesBefore = 0;
  size_t LeavesAfter = 0;
  size_t MergesByRule[4] = {0, 0, 0, 0};

  /// leaves removed / leaves before (0 for empty trees).
  double ratio() const {
    if (LeavesBefore == 0)
      return 0.0;
    return 1.0 - static_cast<double>(LeavesAfter) /
                     static_cast<double>(LeavesBefore);
  }
};

/// Compresses \p Tree in place; returns merge statistics.
CompressionStats compressTree(PatternTree &Tree,
                              const CompressorOptions &Options = {});

/// Attempts to merge op leaf \p B into op leaf \p A of \p Tree under
/// rule \p Rule (1-4), rewriting \p A in place; \p B is left as it
/// was, and stays in the tree. Runs the sweeps' merge logic; exposed
/// for unit testing.
/// \returns true if the rule applied.
bool tryMergeRule(PatternTree &Tree, int Rule, NodeId A, NodeId B);

} // namespace kast

#endif // KAST_TREE_TREECOMPRESSOR_H
