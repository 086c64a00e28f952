//===- core/SuffixAutomaton.cpp - SAM over token symbols -------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/SuffixAutomaton.h"

#include <cassert>

using namespace kast;

namespace {

/// The transitions while the automaton grows: each state's transitions
/// form a singly linked list through one edge arena. Edges are never
/// removed (a clone's redirect rewrites a target in place), and a
/// suffix automaton of n >= 3 symbols has at most 3n - 4 transitions,
/// so the arena is sized once.
struct EdgeLists {
  struct Edge {
    uint32_t Symbol;
    int32_t To;
    /// Next edge of the same state, or -1.
    int32_t Next;
  };
  /// First edge of each state, or -1.
  std::vector<int32_t> Head;
  std::vector<Edge> Arena;

  /// The edge of \p State on \p Symbol, or nullptr.
  Edge *find(int32_t State, uint32_t Symbol) {
    for (int32_t E = Head[State]; E != -1; E = Arena[E].Next)
      if (Arena[E].Symbol == Symbol)
        return &Arena[E];
    return nullptr;
  }
  void add(int32_t From, uint32_t Symbol, int32_t To) {
    Arena.push_back({Symbol, To, Head[From]});
    Head[From] = static_cast<int32_t>(Arena.size() - 1);
  }
};

} // namespace

SuffixAutomaton::SuffixAutomaton(std::span<const uint32_t> Sequence) {
  const size_t N = Sequence.size();
  const size_t MaxStates = N < 2 ? N + 1 : 2 * N - 1;
  Len.reserve(MaxStates);
  Link.reserve(MaxStates);
  EdgeLists Lists;
  Lists.Head.reserve(MaxStates);
  Lists.Arena.reserve(N < 3 ? N + 1 : 3 * N - 4);
  auto NewState = [&](uint32_t Length, int32_t SuffixLink) {
    Len.push_back(Length);
    Link.push_back(SuffixLink);
    Lists.Head.push_back(-1);
    return static_cast<int32_t>(Len.size() - 1);
  };
  NewState(0, -1); // Initial state.

  // Created[i]: the state the extension by symbol i created (never a
  // clone), whose end-position set is the one that contains i.
  std::vector<uint32_t> Created;
  Created.reserve(N);
  int32_t Last = 0;
  for (uint32_t Symbol : Sequence) {
    const int32_t Current = NewState(Len[Last] + 1, 0);
    int32_t P = Last;
    EdgeLists::Edge *E = nullptr;
    while (P != -1 && !(E = Lists.find(P, Symbol))) {
      Lists.add(P, Symbol, Current);
      P = Link[P];
    }
    if (P != -1) {
      const int32_t Q = E->To;
      if (Len[P] + 1 == Len[Q]) {
        Link[Current] = Q;
      } else {
        // Clone Q into a state of the right length.
        const int32_t Clone = NewState(Len[P] + 1, Link[Q]);
        for (int32_t Edge = Lists.Head[Q]; Edge != -1;
             Edge = Lists.Arena[Edge].Next)
          Lists.add(Clone, Lists.Arena[Edge].Symbol, Lists.Arena[Edge].To);
        for (; P != -1 && (E = Lists.find(P, Symbol)) && E->To == Q;
             P = Link[P])
          E->To = Clone;
        Link[Q] = Clone;
        Link[Current] = Clone;
      }
    }
    Last = Current;
    Created.push_back(static_cast<uint32_t>(Current));
  }
  assert(Len.size() <= MaxStates && "at most 2n - 1 states");

  // Freeze: each state's list becomes its sorted run of the arrays.
  const size_t NumStates = Len.size();
  Edges.assign(NumStates + 1, 0);
  Symbols.resize(Lists.Arena.size());
  Targets.resize(Lists.Arena.size());
  for (size_t S = 0; S < NumStates; ++S) {
    uint32_t Out = Edges[S];
    for (int32_t E = Lists.Head[S]; E != -1; E = Lists.Arena[E].Next) {
      // Insertion sort by symbol; out-degrees are small.
      uint32_t Slot = Out++;
      for (; Slot > Edges[S] && Symbols[Slot - 1] > Lists.Arena[E].Symbol;
           --Slot) {
        Symbols[Slot] = Symbols[Slot - 1];
        Targets[Slot] = Targets[Slot - 1];
      }
      Symbols[Slot] = Lists.Arena[E].Symbol;
      Targets[Slot] = Lists.Arena[E].To;
    }
    Edges[S + 1] = Out;
  }

  // End-position index. Counting-sort the states by Len: a suffix link
  // always points to a shorter state, so every parent precedes its
  // children.
  std::vector<uint32_t> ByLen(NumStates), Slot(N + 2, 0);
  for (uint32_t L : Len)
    ++Slot[L + 1];
  for (size_t L = 1; L < Slot.size(); ++L)
    Slot[L] += Slot[L - 1];
  for (uint32_t S = 0; S < NumStates; ++S)
    ByLen[Slot[Len[S]]++] = S;
  // Run lengths, children first: a created state's own position plus
  // the runs of its suffix-link children.
  RunLength.assign(NumStates, 0);
  for (uint32_t S : Created)
    RunLength[S] = 1;
  for (size_t I = NumStates; I-- > 1;)
    RunLength[Link[ByLen[I]]] += RunLength[ByLen[I]];
  // Run starts, parents first: each child takes the next slice of its
  // parent's run, and a created state's own position fills its last
  // slot — a DFS (post)order of the suffix-link tree.
  RunBegin.assign(NumStates, 0);
  std::vector<uint32_t> Free(NumStates, 0);
  for (size_t I = 1; I < NumStates; ++I) {
    const uint32_t S = ByLen[I], Parent = Link[S];
    RunBegin[S] = Free[S] = Free[Parent];
    Free[Parent] += RunLength[S];
  }
  Ends.resize(N);
  for (uint32_t E = 0; E < N; ++E)
    Ends[RunBegin[Created[E]] + RunLength[Created[E]] - 1] = E;
}
