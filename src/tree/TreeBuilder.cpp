//===- tree/TreeBuilder.cpp - Trace to tree conversion ---------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "tree/TreeBuilder.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <stdexcept>

using namespace kast;

namespace {

/// What an event contributes: a leaf, named by its op id, or one of
/// these. The trace-length check in buildTree keeps op ids below them.
constexpr uint32_t NegligibleCode = ~0u - 2;
constexpr uint32_t CloseCode = ~0u - 1;
constexpr uint32_t OpenCode = ~0u;

/// "No event" in a handle's chain.
constexpr uint32_t NoEvent = ~0u;

/// An event's code and the slot of its handle, in first-appearance
/// order (unused for negligible events).
struct Classified {
  uint32_t Code = NegligibleCode;
  uint32_t Slot = 0;
};

/// A handle and the chain of its events, linked through their Link
/// entries.
struct Slot {
  uint64_t Handle;
  uint32_t Head = NoEvent, Tail = NoEvent;
  bool InBlock = false; ///< While chaining: a block is open.
};

/// The longest name a probe key holds.
constexpr size_t MaxKeyedName = 8;

/// A name of 1-8 bytes as one word: two loads that together cover it.
/// With the name's size, the word determines the name.
uint64_t nameWord(const char *P, size_t N) {
  if (N >= 4) {
    uint32_t Head, Tail;
    std::memcpy(&Head, P, 4);
    std::memcpy(&Tail, P + N - 4, 4);
    return uint64_t(Head) | uint64_t(Tail) << 32;
  }
  return uint64_t(uint8_t(P[0])) | uint64_t(uint8_t(P[N / 2])) << 8 |
         uint64_t(uint8_t(P[N - 1])) << 16;
}

/// Classifies events: each distinct spelling once (negligible, open,
/// close, or a leaf with its op id, numbered in first-appearance order)
/// and each handle once (its slot). An open-addressing table over the
/// (spelling, handle) pairs seen so far answers most events with one
/// probe; the searches behind it run once per pair, and names longer
/// than a key holds always take them.
class Classifier {
public:
  explicit Classifier(const TreeBuilderOptions &Options)
      : Options(Options), Table(64) {
    // Enough for a typical log, so the searches rarely reallocate.
    Spellings.reserve(8);
    SlotByHandle.reserve(8);
    Slots.reserve(8);
  }

  Classified classify(const TraceEvent &Event) {
    const size_t Size = Event.Op.size();
    if (Size == 0 || Size > MaxKeyedName)
      return search(Event);
    const uint64_t Word = nameWord(Event.Op.data(), Size);
    const size_t Mask = Table.size() - 1;
    size_t I = bucket(Event.Handle, Word, Size) & Mask;
    for (; Table[I].Size != 0; I = (I + 1) & Mask)
      if (Table[I].Handle == Event.Handle && Table[I].Word == Word &&
          Table[I].Size == Size)
        return Table[I].Value;
    const Classified Value = search(Event);
    Table[I] = {Event.Handle, Word, Value, static_cast<uint32_t>(Size)};
    if (2 * ++Used > Table.size())
      grow();
    return Value;
  }

  /// Handles in first-appearance order, each with its chain.
  std::vector<Slot> &slots() { return Slots; }

  /// Interns the leaf spellings into \p Tree, so that op ids are codes.
  void internOps(PatternTree &Tree) const {
    for (const Spelling &S : Spellings)
      if (S.Code < NegligibleCode) {
        [[maybe_unused]] uint32_t Op = Tree.internOp(S.Name);
        assert(Op == S.Code && "leaf codes are op ids");
      }
  }

private:
  Classified search(const TraceEvent &Event) {
    auto S = std::ranges::find(Spellings, std::string_view(Event.Op),
                               &Spelling::Name);
    if (S == Spellings.end()) {
      const uint32_t Code = Options.NegligibleOps.count(Event.Op)
                                ? NegligibleCode
                            : Event.isOpen()  ? OpenCode
                            : Event.isClose() ? CloseCode
                                              : Ops++;
      S = Spellings.insert(Spellings.end(), {Event.Op, Code});
    }
    if (S->Code == NegligibleCode)
      return {};
    auto It = std::ranges::lower_bound(SlotByHandle, Event.Handle, {},
                                       &HandleSlot::Handle);
    if (It == SlotByHandle.end() || It->Handle != Event.Handle) {
      It = SlotByHandle.insert(It, {Event.Handle, uint32_t(Slots.size())});
      Slots.push_back({Event.Handle});
    }
    return {S->Code, It->Slot};
  }

  void grow() {
    std::vector<Entry> Old(2 * Table.size());
    Old.swap(Table);
    const size_t Mask = Table.size() - 1;
    for (const Entry &E : Old) {
      if (E.Size == 0)
        continue;
      size_t I = bucket(E.Handle, E.Word, E.Size) & Mask;
      while (Table[I].Size != 0)
        I = (I + 1) & Mask;
      Table[I] = E;
    }
  }

  static size_t bucket(uint64_t Handle, uint64_t Word, size_t Size) {
    uint64_t Hash = (Word ^ Size) * 0x9E3779B97F4A7C15ULL;
    Hash = (Hash ^ Handle) * 0xC2B2AE3D27D4EB4FULL;
    return static_cast<size_t>(Hash >> 40);
  }

  struct Spelling {
    std::string_view Name;
    uint32_t Code;
  };
  struct HandleSlot {
    uint64_t Handle;
    uint32_t Slot;
  };
  /// A (spelling, handle) pair and its classification; Size 0 marks
  /// a free entry.
  struct Entry {
    uint64_t Handle = 0;
    uint64_t Word = 0;
    Classified Value;
    uint32_t Size = 0;
  };

  const TreeBuilderOptions &Options;
  uint32_t Ops = 0; ///< Leaf spellings seen.
  std::vector<Spelling> Spellings; ///< First-appearance order.
  std::vector<HandleSlot> SlotByHandle; ///< Sorted by handle.
  std::vector<Slot> Slots;
  std::vector<Entry> Table; ///< Power-of-two size, at most half full.
  size_t Used = 0;
};

} // namespace

PatternTree kast::buildTree(const Trace &T,
                            const TreeBuilderOptions &Options) {
  const std::vector<TraceEvent> &Events = T.events();
  if (Events.size() >= NegligibleCode)
    throw std::length_error("trace too long for a pattern tree");

  // Pass 1, in event order: classify each event once, chain it to its
  // handle's earlier events, and count the nodes the tree will hold.
  Classifier Classify(Options);
  struct Link {
    uint32_t Code;
    uint32_t Next;
  };
  // Every entry a chain reaches is written first.
  auto Links = std::make_unique_for_overwrite<Link[]>(Events.size());
  std::vector<Slot> &Slots = Classify.slots();
  size_t Blocks = 0, Leaves = 0;
  for (uint32_t I = 0; I < Events.size(); ++I) {
    const Classified C = Classify.classify(Events[I]);
    if (C.Code == NegligibleCode)
      continue;
    Slot &H = Slots[C.Slot];
    Links[I] = {C.Code, NoEvent};
    (H.Tail == NoEvent ? H.Head : Links[H.Tail].Next) = I;
    H.Tail = I;
    if (C.Code == CloseCode) {
      H.InBlock = false;
      continue;
    }
    Blocks += C.Code == OpenCode || !H.InBlock;
    Leaves += C.Code != OpenCode;
    H.InBlock = true;
  }

  // Pass 2, handle by handle: the nodes come out in pre-order, each
  // BLOCK's leaves in one run.
  const size_t Nodes = 1 + Slots.size() + Blocks + Leaves;
  PatternTree Tree(Nodes, Events.size());
  Classify.internOps(Tree);
  for (const Slot &H : Slots) {
    const NodeId Handle = Tree.addChild(Tree.root(), NodeKind::Handle);
    Tree.node(Handle).Handle = H.Handle;
    NodeId Block = InvalidNodeId;
    for (uint32_t I = H.Head; I != NoEvent; I = Links[I].Next) {
      const uint32_t Code = Links[I].Code;
      if (Code == CloseCode) {
        Block = InvalidNodeId;
        continue;
      }
      // An open starts a fresh span (an unclosed one simply ends); an
      // op outside any span opens an implicit one.
      if (Code == OpenCode || Block == InvalidNodeId)
        Block = Tree.addChild(Handle, NodeKind::Block);
      if (Code == OpenCode)
        continue;
      const uint64_t Bytes = Options.IgnoreBytes ? 0 : Events[I].Bytes;
      Tree.addOp(Block, std::span(&Code, 1), std::span(&Bytes, 1));
    }
  }
  assert(Tree.size() == Nodes && "node count from pass 1 is exact");
  return Tree;
}
