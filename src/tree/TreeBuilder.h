//===- tree/TreeBuilder.h - Trace to tree conversion -----------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// First stage of the paper's two-stage conversion (§3.1): a trace is
/// reorganized into containment form. Operations interleaved across
/// file handles in the chronological trace are regrouped under one
/// HANDLE node each ("it is not always possible that all the
/// operations belonging to the same file handle could have been
/// written contiguously"), and within a handle each open..close span
/// becomes a BLOCK.
///
/// The builder makes two passes over the events. The first classifies
/// each event once — its spelling (negligible, open, close or an op)
/// and its handle's slot in first-appearance order, through one probe
/// of a table keyed by the (spelling, handle) pair — chains it to the
/// earlier events of its handle, and counts the nodes the tree will
/// hold. The second walks the chains handle by handle and appends the
/// nodes in pre-order into a tree sized once, so every BLOCK's leaves
/// form one contiguous run (see PatternTree).
///
//===----------------------------------------------------------------------===//

#ifndef KAST_TREE_TREEBUILDER_H
#define KAST_TREE_TREEBUILDER_H

#include "trace/Trace.h"
#include "tree/PatternTree.h"

#include <set>

namespace kast {

/// Options controlling trace-to-tree conversion.
struct TreeBuilderOptions {
  /// Operation names dropped before conversion. Defaults to the
  /// paper's negligible set {fileno, mmap, fscanf}.
  std::set<std::string> NegligibleOps = Trace::defaultNegligibleOps();

  /// Force all byte counts to zero — produces the paper's second
  /// string representation (§3.1).
  bool IgnoreBytes = false;
};

/// Converts \p T into its tree form.
///
/// Grouping rules beyond the paper's description (which assumes
/// well-formed traces):
///  * an operation on a handle with no open block opens an implicit
///    BLOCK;
///  * `open` always starts a fresh BLOCK (an unclosed previous block on
///    the same handle simply ends);
///  * `close` without a matching open ends no block (a handle seen
///    only in such closes still gets its, empty, HANDLE node);
///  * blocks left open at end-of-trace are treated as closed.
/// `open`/`close` contribute no leaves (§3.1: "the BLOCK node already
/// plays the role of a delimiter").
PatternTree buildTree(const Trace &T, const TreeBuilderOptions &Options = {});

} // namespace kast

#endif // KAST_TREE_TREEBUILDER_H
