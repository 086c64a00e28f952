//===- tree/PatternTree.cpp - ROOT/HANDLE/BLOCK/op trees -------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "tree/PatternTree.h"

#include <algorithm>
#include <cassert>
#include <charconv>
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

PatternTree::PatternTree(size_t Events) {
  Nodes.reserve(Events + 1);
  NameArena.reserve(Events);
  ByteArena.reserve(Events);
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

NodeId PatternTree::addChild(NodeId Parent, NodeKind Kind) {
  assert(Parent < Nodes.size() && "parent id out of range");
  assert(Kind != NodeKind::Root && "a tree has exactly one root");
  NodeId Id = static_cast<NodeId>(Nodes.size());
  Nodes.emplace_back().Kind = Kind;
  link(Parent, Id);
  return Id;
}

/// Appends \p Child to the children of \p Parent.
void PatternTree::link(NodeId Parent, NodeId Child) {
  PatternNode &P = Nodes[Parent];
  if (P.LastChild == InvalidNodeId)
    P.FirstChild = Child;
  else
    Nodes[P.LastChild].NextSibling = Child;
  P.LastChild = Child;
  Nodes[Child].Parent = Parent;
  Nodes[Child].NextSibling = InvalidNodeId;
}

uint32_t PatternTree::internOp(std::string_view Name) {
  for (uint32_t Op = 0; Op < OpNames.size(); ++Op)
    if (OpNames[Op] == Name)
      return Op;
  OpNames.emplace_back(Name);
  return static_cast<uint32_t>(OpNames.size() - 1);
}

/// Grows \p Arena by \p Length entries and returns their span.
template <typename T>
static SigSpan grow(std::vector<T> &Arena, size_t Length) {
  if (Arena.size() + Length > UINT32_MAX)
    throw std::length_error("pattern tree signature arena is full");
  SigSpan Span{static_cast<uint32_t>(Arena.size()),
               static_cast<uint32_t>(Length)};
  Arena.resize(Arena.size() + Length);
  return Span;
}

/// A ++ B in \p Arena; extends A in place when B directly follows it.
template <typename T>
static SigSpan concatSpans(std::vector<T> &Arena, SigSpan A, SigSpan B) {
  if (A.Begin + A.Length == B.Begin)
    return {A.Begin, A.Length + B.Length};
  SigSpan Span = grow(Arena, size_t(A.Length) + B.Length);
  std::copy_n(Arena.begin() + A.Begin, A.Length, Arena.begin() + Span.Begin);
  std::copy_n(Arena.begin() + B.Begin, B.Length,
              Arena.begin() + Span.Begin + A.Length);
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

NodeId PatternTree::addOp(NodeId Parent, std::span<const uint32_t> Ops,
                          std::span<const uint64_t> Bytes, uint64_t Reps) {
  NodeId Id = addChild(Parent, NodeKind::Op);
  PatternNode &N = Nodes[Id];
  N.NameSig = grow(NameArena, Ops.size());
  N.ByteSig = grow(ByteArena, Bytes.size());
  std::ranges::copy(Ops, NameArena.begin() + N.NameSig.Begin);
  std::ranges::copy(Bytes, ByteArena.begin() + N.ByteSig.Begin);
  N.Reps = Reps;
  return Id;
}

std::span<const uint32_t> PatternTree::nameSig(NodeId Id) const {
  SigSpan S = node(Id).NameSig;
  return std::span(NameArena).subspan(S.Begin, S.Length);
}

std::span<const uint64_t> PatternTree::byteSig(NodeId Id) const {
  SigSpan S = node(Id).ByteSig;
  return std::span(ByteArena).subspan(S.Begin, S.Length);
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
  for (NodeId C = node(Id).FirstChild; C != InvalidNodeId;
       C = Nodes[C].NextSibling)
    Kids.push_back(C);
  return Kids;
}

void PatternTree::setChildren(NodeId Parent, std::span<const NodeId> Children) {
  assert(Parent < Nodes.size() && "parent id out of range");
  Nodes[Parent].FirstChild = Nodes[Parent].LastChild = InvalidNodeId;
  for (NodeId C : Children) {
    assert(C < Nodes.size() && "child id out of range");
    link(Parent, C);
  }
}

size_t PatternTree::depth(NodeId Id) const {
  size_t D = 0;
  while (Nodes[Id].Parent != InvalidNodeId) {
    Id = Nodes[Id].Parent;
    ++D;
  }
  return D;
}

std::vector<NodeId> PatternTree::preorder() const {
  // Sibling and parent links give the order without a stack.
  std::vector<NodeId> Order;
  Order.reserve(Nodes.size());
  NodeId Id = root();
  while (Id != InvalidNodeId) {
    Order.push_back(Id);
    if (Nodes[Id].FirstChild != InvalidNodeId) {
      Id = Nodes[Id].FirstChild;
      continue;
    }
    while (Id != InvalidNodeId && Nodes[Id].NextSibling == InvalidNodeId)
      Id = Nodes[Id].Parent;
    if (Id != InvalidNodeId)
      Id = Nodes[Id].NextSibling;
  }
  return Order;
}

size_t PatternTree::numLeaves() const {
  size_t Count = 0;
  for (NodeId Id : preorder())
    if (Nodes[Id].Kind == NodeKind::Op)
      ++Count;
  return Count;
}

uint64_t PatternTree::totalReps() const {
  uint64_t Total = 0;
  for (NodeId Id : preorder())
    if (Nodes[Id].Kind == NodeKind::Op)
      Total += Nodes[Id].Reps;
  return Total;
}

bool PatternTree::equalsStructurally(const PatternTree &Rhs) const {
  std::vector<NodeId> A = preorder();
  std::vector<NodeId> B = Rhs.preorder();
  if (A.size() != B.size())
    return false;
  auto SameName = [&](uint32_t L, uint32_t R) {
    return opName(L) == Rhs.opName(R);
  };
  for (size_t I = 0; I < A.size(); ++I) {
    const PatternNode &NA = node(A[I]);
    const PatternNode &NB = Rhs.node(B[I]);
    if (NA.Kind != NB.Kind || NA.Reps != NB.Reps ||
        !std::ranges::equal(nameSig(A[I]), Rhs.nameSig(B[I]), SameName) ||
        !std::ranges::equal(byteSig(A[I]), Rhs.byteSig(B[I])) ||
        children(A[I]).size() != Rhs.children(B[I]).size())
      return false;
  }
  return true;
}
