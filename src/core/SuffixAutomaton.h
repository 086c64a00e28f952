//===- core/SuffixAutomaton.h - SAM over token symbols ---------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A suffix automaton (Blumer et al.) over 32-bit token symbols. The
/// Kast Spectrum Kernel (§3.2) needs, for two strings A and B, every
/// *maximal match occurrence* — an interval of A whose literal sequence occurs
/// in B and cannot be extended left or right while still occurring in
/// B. The automaton of B answers "does this factor occur in B" in
/// amortized O(1) per symbol, giving linear-time matching statistics
/// (walk()); see Matcher.h for how those become maximal matches.
///
/// The automaton also indexes end positions (Blumer et al. 1985): the
/// factors of one state share a set of end positions, and a state's set
/// is the union of its suffix-link children's sets plus, unless the
/// state is a clone, the position at which it was created. Laid out in
/// DFS order of the suffix-link tree, every state's set is one
/// contiguous run, so locate() + endPositions() list all occurrences of
/// a factor in O(|factor| d + occurrences) for out-degree d.
///
/// The automaton is frozen once built: lengths and suffix links are
/// flat arrays, and the transitions sit in one compressed-sparse-row
/// layout — per-state offsets into one symbol array and one target
/// array, each state's run sorted by symbol and scanned linearly (token
/// alphabets here are small, and the automaton of n symbols has at most
/// 3n - 4 transitions over at least n + 1 states). Construction links
/// each state's transitions through one edge arena, so a build
/// allocates a fixed number of buffers.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_CORE_SUFFIXAUTOMATON_H
#define KAST_CORE_SUFFIXAUTOMATON_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace kast {

/// Suffix automaton of a symbol sequence.
class SuffixAutomaton {
public:
  /// Builds the automaton of \p Sequence and its end-position index.
  explicit SuffixAutomaton(std::span<const uint32_t> Sequence);

  /// \returns the number of states (at most 2n - 1 for n >= 2).
  size_t numStates() const { return Len.size(); }

  /// \returns true if \p Factor occurs as a contiguous factor.
  bool containsFactor(const std::vector<uint32_t> &Factor) const {
    return locate(Factor.begin(), Factor.end()) != -1;
  }

  /// \returns the state reached by reading [First, Last) from the
  /// initial state, or -1 if that factor does not occur. Reverse
  /// iterators over a factor of X locate it in the automaton of
  /// reversed X.
  template <typename Iterator>
  int32_t locate(Iterator First, Iterator Last) const {
    int32_t State = 0;
    for (; First != Last && State != -1; ++First)
      State = transition(State, *First);
    return State;
  }

  /// End positions (index of the last symbol) of every occurrence of
  /// \p State's factors, in no particular order. \p State must be a
  /// state, e.g. a successful locate().
  std::span<const uint32_t> endPositions(int32_t State) const {
    return std::span<const uint32_t>(Ends).subspan(RunBegin[State],
                                                   RunLength[State]);
  }

  /// The matching walk over \p Query: for each J in order, calls
  /// \p Step(J, State, Length), where Length is the length of the
  /// longest suffix of Query[0..J] that occurs in the indexed sequence
  /// (end-based matching statistics) and State the state that suffix
  /// reaches from the initial state (0 where nothing matches), i.e.
  /// what locate() would return for it. Each suffix-link hop costs one
  /// transition lookup.
  template <typename StepFn>
  void walk(std::span<const uint32_t> Query, StepFn &&Step) const {
    // Invariant: the matched suffix of length Length is one of State's
    // factors, so a transition on the next symbol reaches the state of
    // its one-symbol extension.
    int32_t State = 0;
    uint32_t Length = 0;
    for (size_t J = 0; J < Query.size(); ++J) {
      const uint32_t Symbol = Query[J];
      for (;;) {
        if (const int32_t To = transition(State, Symbol); To != -1) {
          State = To;
          ++Length;
          break;
        }
        if (State == 0) {
          // Not even from the initial state: no suffix ending at J
          // matches.
          Length = 0;
          break;
        }
        // Shorten the match to the longest suffix in another class.
        State = Link[State];
        Length = Len[State];
      }
      Step(J, State, Length);
    }
  }

  /// \returns the state \p State reaches on \p Symbol, or -1.
  int32_t transition(int32_t State, uint32_t Symbol) const {
    for (uint32_t E = Edges[State], End = Edges[State + 1]; E < End; ++E)
      if (Symbols[E] >= Symbol)
        return Symbols[E] == Symbol ? Targets[E] : -1;
    return -1;
  }

private:
  /// Per state: the length of the longest factor in its class, and its
  /// suffix link (-1 for the initial state).
  std::vector<uint32_t> Len;
  std::vector<int32_t> Link;
  /// State S's transitions are (Symbols[E], Targets[E]) for E in
  /// [Edges[S], Edges[S + 1]), sorted by symbol.
  std::vector<uint32_t> Edges, Symbols;
  std::vector<int32_t> Targets;
  /// End-position index: state S's end positions are
  /// Ends[RunBegin[S], RunBegin[S] + RunLength[S]).
  std::vector<uint32_t> Ends, RunBegin, RunLength;
};

} // namespace kast

#endif // KAST_CORE_SUFFIXAUTOMATON_H
