//===- tree/TreeDump.cpp - Tree pretty printing ----------------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "tree/TreeDump.h"

using namespace kast;

std::string kast::nodeLabel(const PatternTree &Tree, NodeId Id) {
  const PatternNode &Node = Tree.node(Id);
  switch (Node.Kind) {
  case NodeKind::Root:
    return "ROOT";
  case NodeKind::Handle:
    return "HANDLE " + std::to_string(Node.Handle);
  case NodeKind::Block:
    return "BLOCK";
  case NodeKind::Op: {
    std::string Label;
    Tree.appendLeafLiteral(Id, Label);
    if (Node.Reps != 1)
      Label += " x" + std::to_string(Node.Reps);
    return Label;
  }
  }
  return "?";
}

std::string kast::dumpTreeAscii(const PatternTree &Tree) {
  std::string Out;
  for (NodeId Id = 0; Id < Tree.size(); ++Id) {
    Out.append(2 * Tree.depth(Id), ' ');
    Out += nodeLabel(Tree, Id);
    Out += '\n';
  }
  return Out;
}

std::string kast::dumpTreeDot(const PatternTree &Tree,
                              const std::string &GraphName) {
  std::string Out = "digraph " + GraphName + " {\n";
  Out += "  node [shape=box, fontname=\"monospace\"];\n";
  for (NodeId Id = 0; Id < Tree.size(); ++Id) {
    Out += "  n" + std::to_string(Id) + " [label=\"" +
           nodeLabel(Tree, Id) + "\"];\n";
    for (NodeId Child : Tree.children(Id))
      Out += "  n" + std::to_string(Id) + " -> n" + std::to_string(Child) +
             ";\n";
  }
  Out += "}\n";
  return Out;
}
