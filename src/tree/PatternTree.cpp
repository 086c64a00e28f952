//===- tree/PatternTree.cpp - ROOT/HANDLE/BLOCK/op trees -------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "tree/PatternTree.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <numeric>
#include <stdexcept>

using namespace kast;

const char *kast::nodeKindName(NodeKind Kind) {
  switch (Kind) {
  case NodeKind::Root:
    return "ROOT";
  case NodeKind::Handle:
    return "HANDLE";
  case NodeKind::Block:
    return "BLOCK";
  case NodeKind::Op:
    return "op";
  }
  return "op";
}

PatternTree::PatternTree(size_t NodeCount, size_t SignatureCount) {
  Nodes.reserve(std::max<size_t>(NodeCount, 1));
  NameArena.reserve(SignatureCount);
  ByteArena.reserve(SignatureCount);
  PatternNode Root;
  Root.Kind = NodeKind::Root;
  Nodes.push_back(Root);
}

const PatternNode &PatternTree::node(NodeId Id) const {
  assert(Id < Nodes.size() && "node id out of range");
  return Nodes[Id];
}

PatternNode &PatternTree::node(NodeId Id) {
  assert(Id < Nodes.size() && "node id out of range");
  return Nodes[Id];
}

/// True if \p Id is the last node or one of its ancestors: the nodes
/// a pre-order append may extend.
bool PatternTree::isLastOrAncestor(NodeId Id) const {
  NodeId Last = static_cast<NodeId>(Nodes.size() - 1);
  while (Last > Id)
    Last = Nodes[Last].Parent;
  return Last == Id;
}

uint32_t PatternTree::internOp(std::string_view Name) {
  for (uint32_t Op = 0; Op < OpNames.size(); ++Op)
    if (OpNames[Op] == Name)
      return Op;
  OpNames.emplace_back(Name);
  return static_cast<uint32_t>(OpNames.size() - 1);
}

/// A ++ B in \p Arena; extends A in place when B directly follows it.
template <typename T>
static SigSpan concatSpans(std::vector<T> &Arena, SigSpan A, SigSpan B) {
  if (A.Begin + A.Length == B.Begin)
    return {A.Begin, A.Length + B.Length};
  if (Arena.size() + A.Length + B.Length > UINT32_MAX)
    throw std::length_error("pattern tree signature arena is full");
  SigSpan Span{static_cast<uint32_t>(Arena.size()), A.Length + B.Length};
  // push_back copes with an argument inside the vector it grows.
  for (SigSpan Part : {A, B})
    for (uint32_t I = Part.Begin; I < Part.Begin + Part.Length; ++I)
      Arena.push_back(Arena[I]);
  return Span;
}

SigSpan PatternTree::concatNames(SigSpan A, SigSpan B) {
  return concatSpans(NameArena, A, B);
}

SigSpan PatternTree::concatBytes(SigSpan A, SigSpan B) {
  return concatSpans(ByteArena, A, B);
}

NodeId PatternTree::addOp(NodeId Parent, std::string_view Name,
                          uint64_t Bytes, uint64_t Reps) {
  uint32_t Op = internOp(Name);
  return addOp(Parent, std::span(&Op, 1), std::span(&Bytes, 1), Reps);
}

void PatternTree::appendNameLabel(NodeId Id, std::string &Out) const {
  std::span<const uint32_t> Names = nameSig(Id);
  for (size_t I = 0; I < Names.size(); ++I) {
    if (I != 0)
      Out += '+';
    Out += opName(Names[I]);
  }
}

void PatternTree::appendByteLabel(NodeId Id, std::string &Out) const {
  std::span<const uint64_t> Bytes = byteSig(Id);
  for (size_t I = 0; I < Bytes.size(); ++I) {
    if (I != 0)
      Out += '+';
    char Digits[20];
    Out.append(Digits, std::to_chars(Digits, Digits + 20, Bytes[I]).ptr);
  }
}

std::string PatternTree::nameLabel(NodeId Id) const {
  std::string Label;
  appendNameLabel(Id, Label);
  return Label;
}

std::string PatternTree::byteLabel(NodeId Id) const {
  std::string Label;
  appendByteLabel(Id, Label);
  return Label;
}

void PatternTree::appendLeafLiteral(NodeId Id, std::string &Out) const {
  appendNameLabel(Id, Out);
  Out += '[';
  appendByteLabel(Id, Out);
  Out += ']';
}

bool PatternTree::isZeroBytes(NodeId Id) const {
  for (uint64_t B : byteSig(Id))
    if (B != 0)
      return false;
  return true;
}

std::vector<NodeId> PatternTree::children(NodeId Id) const {
  std::vector<NodeId> Kids;
  const NodeKind Kind = node(Id).Kind;
  for (NodeId C = Id + 1; C < Nodes.size() && Nodes[C].Kind > Kind; ++C)
    if (Nodes[C].Parent == Id)
      Kids.push_back(C);
  return Kids;
}

std::vector<NodeId> PatternTree::preorder() const {
  std::vector<NodeId> Order(Nodes.size());
  std::iota(Order.begin(), Order.end(), root());
  return Order;
}

size_t PatternTree::numLeaves() const {
  return std::ranges::count(Nodes, NodeKind::Op, &PatternNode::Kind);
}

uint64_t PatternTree::totalReps() const {
  uint64_t Total = 0;
  for (const PatternNode &N : Nodes)
    if (N.Kind == NodeKind::Op)
      Total += N.Reps;
  return Total;
}

bool PatternTree::equalsStructurally(const PatternTree &Rhs) const {
  // In pre-order with depth fixed by kind, equal kind sequences are
  // equal shapes.
  if (size() != Rhs.size())
    return false;
  auto SameName = [&](uint32_t L, uint32_t R) {
    return opName(L) == Rhs.opName(R);
  };
  for (NodeId Id = 0; Id < size(); ++Id) {
    const PatternNode &NA = Nodes[Id];
    const PatternNode &NB = Rhs.Nodes[Id];
    if (NA.Kind != NB.Kind || NA.Reps != NB.Reps ||
        !std::ranges::equal(nameSig(Id), Rhs.nameSig(Id), SameName) ||
        !std::ranges::equal(byteSig(Id), Rhs.byteSig(Id)))
      return false;
  }
  return true;
}
