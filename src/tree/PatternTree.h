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
/// Building and compressing a tree allocates a constant number of
/// times, not once per event:
///
///  * nodes live in one vector, addressed by dense NodeId indices;
///    children are first-child/next-sibling links;
///  * a leaf's name signature is an (offset, length) span into an
///    arena of op ids, its byte signature a span into an arena of byte
///    counts. Arenas only grow, so spans stay valid and may be shared;
///  * op ids index a per-tree table of the trace's distinct spellings,
///    so they are comparable only within one tree;
///  * compression rewrites a merged leaf in place and unlinks its
///    partner: size() counts those orphans but does not grow with
///    merges.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_TREE_PATTERNTREE_H
#define KAST_TREE_PATTERNTREE_H

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace kast {

/// Dense node index within a PatternTree.
using NodeId = uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId InvalidNodeId = ~static_cast<NodeId>(0);

/// Level of a tree node.
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

  NodeId Parent = InvalidNodeId;
  NodeId FirstChild = InvalidNodeId;
  NodeId LastChild = InvalidNodeId;
  NodeId NextSibling = InvalidNodeId;
};

/// An access-pattern tree; owns its node arena. The root always exists.
class PatternTree {
public:
  /// An empty tree, with space reserved for a trace of \p Events events.
  explicit PatternTree(size_t Events = 0);

  NodeId root() const { return 0; }

  const PatternNode &node(NodeId Id) const;
  PatternNode &node(NodeId Id);

  size_t size() const { return Nodes.size(); }

  /// Creates a node of \p Kind under \p Parent and returns its id.
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
  std::span<const uint32_t> nameSig(NodeId Id) const;
  std::span<const uint64_t> byteSig(NodeId Id) const;

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

  /// Children of \p Id, in order.
  std::vector<NodeId> children(NodeId Id) const;

  /// Replaces the children list of \p Parent (used by the compressor;
  /// does not reclaim unlinked nodes).
  void setChildren(NodeId Parent, std::span<const NodeId> Children);

  /// Depth of \p Id (root is 0).
  size_t depth(NodeId Id) const;

  /// Pre-order node ids reachable from the root.
  std::vector<NodeId> preorder() const;

  /// Number of op leaves reachable from the root.
  size_t numLeaves() const;

  /// Sum of Reps over reachable op leaves — the primitive operation
  /// count, which compression must conserve.
  uint64_t totalReps() const;

  /// Structural equality on the reachable tree (kinds, signature
  /// spellings, repetition counts, and shape). Handle numbers are
  /// deliberately not compared: the string representation abstracts
  /// them away (every handle becomes the same [HANDLE] token), so this
  /// is equality at the representation's level of detail.
  bool equalsStructurally(const PatternTree &Rhs) const;

private:
  void link(NodeId Parent, NodeId Child);
  void appendNameLabel(NodeId Id, std::string &Out) const;
  void appendByteLabel(NodeId Id, std::string &Out) const;

  std::vector<PatternNode> Nodes;
  std::vector<uint32_t> NameArena;
  std::vector<uint64_t> ByteArena;
  std::vector<std::string> OpNames;
};

} // namespace kast

#endif // KAST_TREE_PATTERNTREE_H
