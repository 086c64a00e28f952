//===- tree/TreeBuilder.cpp - Trace to tree conversion ---------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "tree/TreeBuilder.h"

#include <algorithm>

using namespace kast;

PatternTree kast::buildTree(const Trace &T,
                            const TreeBuilderOptions &Options) {
  PatternTree Tree(T.size());

  // Each distinct spelling is classified once: dropped, open, close,
  // or a leaf with its op id.
  enum class Role { Negligible, Open, Close, Leaf };
  struct Spelling {
    std::string_view Name;
    Role R;
    uint32_t Op;
  };
  std::vector<Spelling> Spellings;

  // Per-handle state, sorted by handle: the HANDLE node and the
  // currently open BLOCK.
  struct HandleState {
    uint64_t Handle;
    NodeId HandleNode;
    NodeId OpenBlock;
  };
  std::vector<HandleState> States;

  for (const TraceEvent &Event : T.events()) {
    auto S = std::ranges::find(Spellings, std::string_view(Event.Op),
                               &Spelling::Name);
    if (S == Spellings.end()) {
      Role R = Options.NegligibleOps.count(Event.Op) ? Role::Negligible
               : Event.isOpen()                      ? Role::Open
               : Event.isClose()                     ? Role::Close
                                                     : Role::Leaf;
      uint32_t Op = R == Role::Leaf ? Tree.internOp(Event.Op) : 0;
      S = Spellings.insert(Spellings.end(), {Event.Op, R, Op});
    }
    if (S->R == Role::Negligible)
      continue;

    auto It = std::ranges::lower_bound(States, Event.Handle, {},
                                       &HandleState::Handle);
    if (It == States.end() || It->Handle != Event.Handle) {
      NodeId HandleNode = Tree.addChild(Tree.root(), NodeKind::Handle);
      Tree.node(HandleNode).Handle = Event.Handle;
      It = States.insert(It, {Event.Handle, HandleNode, InvalidNodeId});
    }
    if (S->R == Role::Open) {
      // A fresh span starts; any unclosed block on this handle ends.
      It->OpenBlock = Tree.addChild(It->HandleNode, NodeKind::Block);
      continue;
    }
    if (S->R == Role::Close) {
      It->OpenBlock = InvalidNodeId;
      continue;
    }
    if (It->OpenBlock == InvalidNodeId) // Implicit block (no open seen).
      It->OpenBlock = Tree.addChild(It->HandleNode, NodeKind::Block);

    uint64_t Bytes = Options.IgnoreBytes ? 0 : Event.Bytes;
    Tree.addOp(It->OpenBlock, std::span(&S->Op, 1), std::span(&Bytes, 1));
  }
  return Tree;
}
