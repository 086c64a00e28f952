//===- tree/TreeDump.h - Tree pretty printing ------------------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Human-readable renderings of PatternTrees: an indented ASCII form
/// (used by examples/trace_explorer and test diagnostics) and Graphviz
/// DOT output for the paper's Figure 1/2 style drawings.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_TREE_TREEDUMP_H
#define KAST_TREE_TREEDUMP_H

#include "tree/PatternTree.h"

#include <string>

namespace kast {

/// Indented one-node-per-line rendering, e.g.
///   ROOT
///     HANDLE 3
///       BLOCK
///         read[1024] x5
std::string dumpTreeAscii(const PatternTree &Tree);

/// Graphviz DOT rendering.
std::string dumpTreeDot(const PatternTree &Tree,
                        const std::string &GraphName = "pattern");

/// One-node label used by both renderers, e.g. "read+write[64] x3".
std::string nodeLabel(const PatternTree &Tree, NodeId Id);

} // namespace kast

#endif // KAST_TREE_TREEDUMP_H
