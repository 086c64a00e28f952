//===- core/TreeFlattener.cpp - Tree to weighted string --------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/TreeFlattener.h"
#include "core/PreorderEncoder.h"
#include "util/StringUtil.h"

#include <cassert>

using namespace kast;

WeightedString kast::flattenTree(const PatternTree &Tree,
                                 const std::shared_ptr<TokenTable> &Table,
                                 const FlattenOptions &Options) {
  // Exactly one token per node, one [LEVEL_UP] before each node that
  // is not deeper than its predecessor, and the trailing one.
  size_t Tokens = Tree.size() + Options.EmitTrailingLevelUp;
  for (NodeId Id = 1; Id < Tree.size(); ++Id)
    Tokens += Tree.depth(Id) <= Tree.depth(Id - 1);

  PreorderEncodeOptions EncodeOptions;
  EncodeOptions.EmitTrailingLevelUp = Options.EmitTrailingLevelUp;
  PreorderEncoder Encoder(Table, EncodeOptions);
  Encoder.reserve(Tokens);
  // The structural literals are interned at their first use, in the
  // order a token-by-token intern would add them to the table.
  LiteralId Structural[3] = {~LiteralId(0), ~LiteralId(0), ~LiteralId(0)};
  const char *StructuralLiteral[3] = {RootLiteral, HandleLiteral,
                                      BlockLiteral};
  std::string Literal; // Every leaf literal is built in this one buffer.
  for (NodeId Id = 0; Id < Tree.size(); ++Id) {
    const PatternNode &Node = Tree.node(Id);
    const size_t Depth = Tree.depth(Id);
    if (Node.Kind == NodeKind::Op) {
      Literal.clear();
      Tree.appendLeafLiteral(Id, Literal);
      Encoder.add(Literal, Node.Reps, Depth);
      continue;
    }
    LiteralId &Known = Structural[Depth];
    if (Known == ~LiteralId(0))
      Known = Encoder.add(StructuralLiteral[Depth], 1, Depth);
    else
      Encoder.add(Known, 1, Depth);
  }
  WeightedString S = Encoder.finish();
  assert(S.size() == Tokens && "the token count is exact");
  return S;
}

/// Splits "name[bytes]" into op ids interned in \p Tree and byte
/// counts; returns false on mismatch.
static bool parseLeafLiteral(const std::string &Literal, PatternTree &Tree,
                             std::vector<uint32_t> &Ops,
                             std::vector<uint64_t> &Bytes) {
  size_t Open = Literal.find('[');
  if (Open == std::string::npos || Literal.back() != ']' || Open == 0)
    return false;
  std::string Names = Literal.substr(0, Open);
  std::string ByteText = Literal.substr(Open + 1, Literal.size() - Open - 2);
  for (std::string_view Part : split(Names, '+')) {
    if (Part.empty())
      return false;
    Ops.push_back(Tree.internOp(Part));
  }
  for (std::string_view Part : split(ByteText, '+')) {
    std::optional<uint64_t> Value = parseUnsigned(Part);
    if (!Value)
      return false;
    Bytes.push_back(*Value);
  }
  return !Ops.empty() && !Bytes.empty();
}

Expected<PatternTree> kast::unflattenString(const WeightedString &S) {
  using Result = Expected<PatternTree>;
  if (S.empty())
    return Result::error("empty string has no tree");
  if (S.literal(0) != RootLiteral)
    return Result::error("string must start with [ROOT]");

  PatternTree Tree;
  NodeId Current = Tree.root(); // Last materialized node.
  uint64_t HandleCounter = 0;

  for (size_t I = 1; I < S.size(); ++I) {
    const std::string &Literal = S.literal(I);
    uint64_t Weight = S.weight(I);

    if (Literal == LevelUpLiteral) {
      if (I + 1 >= S.size())
        return Result::error("trailing [LEVEL_UP] token");
      // Ascend Weight levels; adjacency with the following token then
      // descends one level, so the next node's parent is Weight levels
      // above Current.
      for (uint64_t Step = 0; Step < Weight; ++Step) {
        if (Tree.node(Current).Parent == InvalidNodeId)
          return Result::error("[LEVEL_UP] ascends past the root at token " +
                               std::to_string(I));
        Current = Tree.node(Current).Parent;
      }
      continue;
    }

    // Any non-LEVEL_UP token is a child of Current.
    NodeId Parent = Current;
    if (Literal == RootLiteral)
      return Result::error("[ROOT] not at string start");
    if (Literal == HandleLiteral) {
      if (Tree.node(Parent).Kind != NodeKind::Root)
        return Result::error("[HANDLE] not under [ROOT] at token " +
                             std::to_string(I));
      Current = Tree.addChild(Parent, NodeKind::Handle);
      Tree.node(Current).Handle = HandleCounter++;
      continue;
    }
    if (Literal == BlockLiteral) {
      if (Tree.node(Parent).Kind != NodeKind::Handle)
        return Result::error("[BLOCK] not under [HANDLE] at token " +
                             std::to_string(I));
      Current = Tree.addChild(Parent, NodeKind::Block);
      continue;
    }
    // Leaf.
    if (Tree.node(Parent).Kind != NodeKind::Block)
      return Result::error("operation token outside a [BLOCK] at token " +
                           std::to_string(I));
    std::vector<uint32_t> Ops;
    std::vector<uint64_t> Bytes;
    if (!parseLeafLiteral(Literal, Tree, Ops, Bytes))
      return Result::error("malformed leaf literal '" + Literal + "'");
    Current = Tree.addOp(Parent, Ops, Bytes, Weight);
  }
  return Tree;
}
