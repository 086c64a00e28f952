//===- core/SuffixAutomaton.cpp - SAM over token symbols -------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/SuffixAutomaton.h"

#include <algorithm>
#include <cassert>

using namespace kast;

int32_t SuffixAutomaton::transition(int32_t StateIdx, uint32_t Symbol) const {
  const std::vector<std::pair<uint32_t, int32_t>> &Next =
      States[StateIdx].Next;
  auto It = std::lower_bound(
      Next.begin(), Next.end(), Symbol,
      [](const std::pair<uint32_t, int32_t> &P, uint32_t S) {
        return P.first < S;
      });
  if (It != Next.end() && It->first == Symbol)
    return It->second;
  return -1;
}

void SuffixAutomaton::addTransition(int32_t From, uint32_t Symbol,
                                    int32_t To) {
  std::vector<std::pair<uint32_t, int32_t>> &Next = States[From].Next;
  auto It = std::lower_bound(
      Next.begin(), Next.end(), Symbol,
      [](const std::pair<uint32_t, int32_t> &P, uint32_t S) {
        return P.first < S;
      });
  assert((It == Next.end() || It->first != Symbol) && "duplicate transition");
  Next.insert(It, {Symbol, To});
}

void SuffixAutomaton::setTransition(int32_t From, uint32_t Symbol,
                                    int32_t To) {
  std::vector<std::pair<uint32_t, int32_t>> &Next = States[From].Next;
  auto It = std::lower_bound(
      Next.begin(), Next.end(), Symbol,
      [](const std::pair<uint32_t, int32_t> &P, uint32_t S) {
        return P.first < S;
      });
  assert(It != Next.end() && It->first == Symbol && "missing transition");
  It->second = To;
}

int32_t SuffixAutomaton::extend(int32_t Last, uint32_t Symbol) {
  int32_t Current = static_cast<int32_t>(States.size());
  States.emplace_back();
  States[Current].Len = States[Last].Len + 1;

  int32_t P = Last;
  while (P != -1 && transition(P, Symbol) == -1) {
    addTransition(P, Symbol, Current);
    P = States[P].Link;
  }
  if (P == -1) {
    States[Current].Link = 0;
    return Current;
  }
  int32_t Q = transition(P, Symbol);
  if (States[P].Len + 1 == static_cast<size_t>(States[Q].Len)) {
    States[Current].Link = Q;
    return Current;
  }
  // Clone q into a state of the right length.
  int32_t Clone = static_cast<int32_t>(States.size());
  States.push_back(States[Q]);
  States[Clone].Len = States[P].Len + 1;
  while (P != -1 && transition(P, Symbol) == Q) {
    setTransition(P, Symbol, Clone);
    P = States[P].Link;
  }
  States[Q].Link = Clone;
  States[Current].Link = Clone;
  return Current;
}

SuffixAutomaton::SuffixAutomaton(const std::vector<uint32_t> &Sequence) {
  States.reserve(2 * Sequence.size() + 2);
  States.emplace_back(); // Initial state.
  // Created[i]: the state extend() created for position i (never a
  // clone), whose end-position set is the one that contains i.
  std::vector<uint32_t> Created;
  Created.reserve(Sequence.size());
  int32_t Last = 0;
  for (uint32_t Symbol : Sequence) {
    Last = extend(Last, Symbol);
    Created.push_back(static_cast<uint32_t>(Last));
  }
  indexEndPositions(Created);
}

void SuffixAutomaton::indexEndPositions(const std::vector<uint32_t> &Created) {
  const size_t NumStates = States.size(), N = Created.size();
  // Counting-sort the states by Len: a suffix link always points to a
  // shorter state, so every parent precedes its children.
  std::vector<uint32_t> ByLen(NumStates), Slot(N + 2, 0);
  for (const State &S : States)
    ++Slot[S.Len + 1];
  for (size_t L = 1; L < Slot.size(); ++L)
    Slot[L] += Slot[L - 1];
  for (uint32_t S = 0; S < NumStates; ++S)
    ByLen[Slot[States[S].Len]++] = S;
  // Run lengths, children first: a created state's own position plus
  // the runs of its suffix-link children.
  RunLength.assign(NumStates, 0);
  for (uint32_t S : Created)
    RunLength[S] = 1;
  for (size_t I = NumStates; I-- > 1;)
    RunLength[States[ByLen[I]].Link] += RunLength[ByLen[I]];
  // Run starts, parents first: each child takes the next slice of its
  // parent's run, and a created state's own position fills its last
  // slot — a DFS (post)order of the suffix-link tree.
  RunBegin.assign(NumStates, 0);
  std::vector<uint32_t> Free(NumStates, 0);
  for (size_t I = 1; I < NumStates; ++I) {
    const uint32_t S = ByLen[I], Parent = States[S].Link;
    RunBegin[S] = Free[S] = Free[Parent];
    Free[Parent] += RunLength[S];
  }
  Ends.resize(N);
  for (uint32_t E = 0; E < N; ++E)
    Ends[RunBegin[Created[E]] + RunLength[Created[E]] - 1] = E;
}

std::vector<size_t>
SuffixAutomaton::matchingStatisticsEnds(const std::vector<uint32_t> &Query,
                                        std::vector<int32_t> *Reached) const {
  std::vector<size_t> Stats(Query.size(), 0);
  if (Reached)
    Reached->assign(Query.size(), 0);
  // Invariant: the matched suffix of length Length is one of State's
  // factors, so a transition on Symbol reaches the state of its
  // one-symbol extension.
  int32_t State = 0;
  size_t Length = 0;
  for (size_t J = 0; J < Query.size(); ++J) {
    uint32_t Symbol = Query[J];
    // Follow suffix links until a transition on Symbol exists.
    while (State != 0 && transition(State, Symbol) == -1) {
      State = States[State].Link;
      Length = States[State].Len;
    }
    int32_t To = transition(State, Symbol);
    if (To == -1) {
      // Not even from the initial state: no suffix ending at J matches.
      State = 0;
      Length = 0;
    } else {
      State = To;
      ++Length;
    }
    Stats[J] = Length;
    if (Reached)
      (*Reached)[J] = State;
  }
  return Stats;
}
