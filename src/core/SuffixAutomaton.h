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
/// amortized O(1) per symbol, giving linear-time matching statistics;
/// see Matcher.h for how those become maximal matches.
///
/// The automaton also indexes end positions (Blumer et al. 1985): the
/// factors of one state share a set of end positions, and a state's set
/// is the union of its suffix-link children's sets plus, unless the
/// state is a clone, the position at which it was created. Laid out in
/// DFS order of the suffix-link tree, every state's set is one
/// contiguous run, so locate() + endPositions() list all occurrences of
/// a factor in O(|factor| log σ + occurrences) for alphabet size σ.
///
/// States are stored in a flat arena; transitions in small sorted
/// vectors (token alphabets here are tiny, typically < 100 symbols).
///
//===----------------------------------------------------------------------===//

#ifndef KAST_CORE_SUFFIXAUTOMATON_H
#define KAST_CORE_SUFFIXAUTOMATON_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace kast {

/// Suffix automaton of a symbol sequence.
class SuffixAutomaton {
public:
  /// Builds the automaton of \p Sequence and its end-position index.
  explicit SuffixAutomaton(const std::vector<uint32_t> &Sequence);

  /// \returns the number of states (at most 2n - 1 for n >= 2).
  size_t numStates() const { return States.size(); }

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

  /// Matching statistics: Result[j] = length of the longest suffix of
  /// Query[0..j] that occurs in the indexed sequence (the standard
  /// end-based form). If \p Reached is non-null, (*Reached)[j] receives
  /// the state that suffix reaches from the initial state (0 where
  /// nothing matches), i.e. what locate() would return for it.
  std::vector<size_t>
  matchingStatisticsEnds(const std::vector<uint32_t> &Query,
                         std::vector<int32_t> *Reached = nullptr) const;

private:
  struct State {
    /// Length of the longest factor in this state's class.
    size_t Len = 0;
    /// Suffix link; -1 for the initial state.
    int32_t Link = -1;
    /// Sorted (symbol, target) transitions.
    std::vector<std::pair<uint32_t, int32_t>> Next;
  };

  int32_t transition(int32_t State, uint32_t Symbol) const;
  void addTransition(int32_t From, uint32_t Symbol, int32_t To);
  void setTransition(int32_t From, uint32_t Symbol, int32_t To);
  int32_t extend(int32_t Last, uint32_t Symbol);
  void indexEndPositions(const std::vector<uint32_t> &Created);

  std::vector<State> States;
  /// End-position index: state S's end positions are
  /// Ends[RunBegin[S], RunBegin[S] + RunLength[S]).
  std::vector<uint32_t> Ends, RunBegin, RunLength;
};

} // namespace kast

#endif // KAST_CORE_SUFFIXAUTOMATON_H
