//===- tree/PatternTree.h - ROOT/HANDLE/BLOCK/op trees ---------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tree representation of an I/O access pattern (paper §3.1,
/// Fig. 1). Four levels:
///
///   ROOT     — one imaginary node per access pattern file
///   HANDLE   — one imaginary node per file handle
///   BLOCK    — one imaginary node per open..close span
///   op       — one leaf per (possibly compressed) operation
///
/// open/close themselves produce no leaves; the BLOCK node is the
/// delimiter. Compressed leaves carry a *name signature* (operation
/// names merged by rules 3/4, rendered "read+write") and a *byte
/// signature* (byte counts merged by rule 2, rendered "2+4"), plus a
/// repetition count equal to the number of primitive operations the
/// leaf stands for.
///
/// Nodes live in one vector, addressed by dense NodeId indices, in
/// pre-order: every node follows its parent, and a node's subtree is
/// the run of deeper nodes after it. A node's kind fixes its depth
/// (ROOT 0, HANDLE 1, BLOCK 2, op 3), so the kinds alone give the
/// shape, each BLOCK's leaves are one contiguous run, and the tree is
/// walked by scanning the vector. Nodes are only appended, each under
/// the last node or one of its ancestors, which keeps the order.
///
/// Building and compressing a tree allocates a constant number of
/// times, not once per event:
///
///  * a leaf's name signature is an (offset, length) span into an
///    arena of op ids, its byte signature a span into an arena of byte
///    counts. Arenas only grow, so spans stay valid and may be shared;
///  * op ids index a per-tree table of the trace's distinct spellings,
///    so they are comparable only within one tree;
///  * compression rewrites each block's run in place and compacts the
///    vector as it goes, so the tree holds no orphans: every node is
///    reachable, and size() counts exactly those.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_TREE_PATTERNTREE_H
#define KAST_TREE_PATTERNTREE_H

#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace kast {

/// Dense node index within a PatternTree.
using NodeId = uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId InvalidNodeId = ~static_cast<NodeId>(0);

/// Level of a tree node; its value is the node's depth.
enum class NodeKind : uint8_t {
  Root,
  Handle,
  Block,
  Op,
};

/// \returns "ROOT", "HANDLE", "BLOCK" or "op".
const char *nodeKindName(NodeKind Kind);

/// A signature's place in one of a tree's arenas.
struct SigSpan {
  uint32_t Begin = 0;
  uint32_t Length = 0;
};

/// One node of a PatternTree.
struct PatternNode {
  NodeKind Kind = NodeKind::Op;

  /// The node this one hangs under; InvalidNodeId for the root.
  NodeId Parent = InvalidNodeId;

  /// Leaves: the operation names (op ids) and byte counts merged into
  /// this leaf, in merge order. A plain leaf has one of each.
  /// Imaginary nodes have empty signatures.
  SigSpan NameSig;
  SigSpan ByteSig;

  /// Number of primitive trace operations this leaf stands for; the
  /// weight of the token the leaf becomes. Imaginary nodes keep 1
  /// (their token weight is always 1, §3.1).
  uint64_t Reps = 1;

  /// For HANDLE nodes: the file handle. Unused otherwise.
  uint64_t Handle = 0;
};

/// An access-pattern tree; owns its node arena. The root always exists.
class PatternTree {
public:
  /// A tree holding only its root, with space reserved for
  /// \p NodeCount nodes and for \p SignatureCount entries in each
  /// signature arena.
  explicit PatternTree(size_t NodeCount = 1, size_t SignatureCount = 0);

  NodeId root() const { return 0; }

  const PatternNode &node(NodeId Id) const;
  PatternNode &node(NodeId Id);

  size_t size() const { return Nodes.size(); }

  /// Creates a node of \p Kind under \p Parent and returns its id.
  /// \pre \p Kind is one level below \p Parent's kind, and \p Parent
  /// is the last node or one of its ancestors (asserted).
  NodeId addChild(NodeId Parent, NodeKind Kind);

  /// \returns the id of operation spelling \p Name, adding it to this
  /// tree's op table if new.
  uint32_t internOp(std::string_view Name);

  /// \returns the spelling of op id \p Op.
  const std::string &opName(uint32_t Op) const { return OpNames[Op]; }

  /// Creates an op leaf under \p Parent.
  NodeId addOp(NodeId Parent, std::string_view Name, uint64_t Bytes,
               uint64_t Reps = 1);

  /// Creates an op leaf with the given signatures under \p Parent;
  /// \p Ops and \p Bytes must not view this tree's own arenas.
  NodeId addOp(NodeId Parent, std::span<const uint32_t> Ops,
               std::span<const uint64_t> Bytes, uint64_t Reps = 1);

  /// Signatures of leaf \p Id.
  std::span<const uint32_t> nameSig(NodeId Id) const {
    return names(node(Id).NameSig);
  }
  std::span<const uint64_t> byteSig(NodeId Id) const {
    return bytes(node(Id).ByteSig);
  }

  /// The entries \p S spans in the name (byte) arena.
  std::span<const uint32_t> names(SigSpan S) const {
    return std::span(NameArena).subspan(S.Begin, S.Length);
  }
  std::span<const uint64_t> bytes(SigSpan S) const {
    return std::span(ByteArena).subspan(S.Begin, S.Length);
  }

  /// The span of \p A ++ \p B in the name (byte) arena: \p A extended
  /// when \p B directly follows it there, else a copy appended.
  SigSpan concatNames(SigSpan A, SigSpan B);
  SigSpan concatBytes(SigSpan A, SigSpan B);

  /// "read", "read+write", ... (leaves only).
  std::string nameLabel(NodeId Id) const;

  /// "0", "1024", "2+4", ... (leaves only).
  std::string byteLabel(NodeId Id) const;

  /// Appends the leaf literal "nameLabel[byteLabel]" to \p Out.
  void appendLeafLiteral(NodeId Id, std::string &Out) const;

  /// \returns true if every merged byte count of leaf \p Id is zero.
  bool isZeroBytes(NodeId Id) const;

  /// Children of \p Id, in order: a forward scan of its subtree.
  std::vector<NodeId> children(NodeId Id) const;

  /// Depth of \p Id (root is 0), which its kind fixes.
  size_t depth(NodeId Id) const {
    return static_cast<size_t>(node(Id).Kind);
  }

  /// Every node id in pre-order: 0, 1, ..., size() - 1.
  std::vector<NodeId> preorder() const;

  /// Number of op leaves.
  size_t numLeaves() const;

  /// Sum of Reps over the op leaves — the primitive operation count,
  /// which compression must conserve.
  uint64_t totalReps() const;

  /// Rewrites every BLOCK's run of leaves in one forward pass over the
  /// nodes: each run moves down into place (later nodes fill the room
  /// earlier runs gave up) and is handed to \p Sweep as a
  /// std::span<PatternNode>. Sweep rewrites the run in place and
  /// returns how many of its leading leaves survive; the rest are
  /// dropped. Parent links follow the moves.
  template <typename SweepFn> void compactLeafRuns(SweepFn &&Sweep);

  /// Structural equality (kinds, signature spellings and repetition
  /// counts, node by node, and so shape). Handle numbers are
  /// deliberately not compared: the string representation abstracts
  /// them away (every handle becomes the same [HANDLE] token), so this
  /// is equality at the representation's level of detail.
  bool equalsStructurally(const PatternTree &Rhs) const;

private:
  bool isLastOrAncestor(NodeId Id) const;
  template <typename T>
  static SigSpan append(std::vector<T> &Arena, std::span<const T> Values);
  void appendNameLabel(NodeId Id, std::string &Out) const;
  void appendByteLabel(NodeId Id, std::string &Out) const;

  std::vector<PatternNode> Nodes;
  std::vector<uint32_t> NameArena;
  std::vector<uint64_t> ByteArena;
  std::vector<std::string> OpNames;
};

// Appends run once per node while a tree is built, so they are inline.

inline NodeId PatternTree::addChild(NodeId Parent, NodeKind Kind) {
  assert(Parent < Nodes.size() && "parent id out of range");
  assert(depth(Parent) + 1 == static_cast<size_t>(Kind) &&
         "a node's kind is one level below its parent's");
  assert(isLastOrAncestor(Parent) && "children are appended in pre-order");
  NodeId Id = static_cast<NodeId>(Nodes.size());
  PatternNode &N = Nodes.emplace_back();
  N.Kind = Kind;
  N.Parent = Parent;
  return Id;
}

/// Appends \p Values to \p Arena and returns their span.
template <typename T>
SigSpan PatternTree::append(std::vector<T> &Arena, std::span<const T> Values) {
  if (Arena.size() + Values.size() > UINT32_MAX)
    throw std::length_error("pattern tree signature arena is full");
  SigSpan Span{static_cast<uint32_t>(Arena.size()),
               static_cast<uint32_t>(Values.size())};
  if (Values.size() == 1)
    Arena.push_back(Values[0]);
  else
    Arena.insert(Arena.end(), Values.begin(), Values.end());
  return Span;
}

inline NodeId PatternTree::addOp(NodeId Parent, std::span<const uint32_t> Ops,
                                 std::span<const uint64_t> Bytes,
                                 uint64_t Reps) {
  NodeId Id = addChild(Parent, NodeKind::Op);
  PatternNode &N = Nodes[Id];
  N.NameSig = append(NameArena, Ops);
  N.ByteSig = append(ByteArena, Bytes);
  N.Reps = Reps;
  return Id;
}

template <typename SweepFn> void PatternTree::compactLeafRuns(SweepFn &&Sweep) {
  // Last[d] is the new id of the latest node kept at depth d, the
  // parent of whatever comes next one level deeper.
  NodeId Last[4] = {root(), InvalidNodeId, InvalidNodeId, InvalidNodeId};
  size_t Out = 1;
  for (size_t In = 1; In < Nodes.size();) {
    const size_t Depth = static_cast<size_t>(Nodes[In].Kind);
    const NodeId Parent = Last[Depth - 1];
    if (Nodes[In].Kind != NodeKind::Op) {
      Nodes[Out] = Nodes[In++];
      Nodes[Out].Parent = Parent;
      Last[Depth] = static_cast<NodeId>(Out++);
      continue;
    }
    const size_t Begin = Out;
    for (; In < Nodes.size() && Nodes[In].Kind == NodeKind::Op; ++In) {
      Nodes[Out] = Nodes[In];
      Nodes[Out++].Parent = Parent;
    }
    const size_t Live = Sweep(std::span(Nodes).subspan(Begin, Out - Begin));
    assert(Live <= Out - Begin && "a sweep keeps at most its run");
    Out = Begin + Live;
  }
  Nodes.resize(Out);
}

} // namespace kast

#endif // KAST_TREE_PATTERNTREE_H
