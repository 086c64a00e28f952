//===- core/Matcher.h - Maximal common substring discovery -----*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Discovery of the substring features the Kast Spectrum Kernel embeds
/// (§3.2). The kernel's independence condition — "a target substring
/// must not be a substring of another matching substring in at least
/// one of the original strings" — is equivalent to: the feature has, in
/// at least one string, a *maximal match occurrence*: an interval whose
/// literal sequence occurs in the partner string but whose one-token
/// extension to the left or right does not. (Extending an occurrence
/// that stays common exhibits exactly the longer matching substring the
/// condition forbids; a non-extendable occurrence has no such
/// container.)
///
/// Two implementations with identical semantics:
///  * visitMaximalMatches — one matching walk (SuffixAutomaton::walk)
///    of the reversed subject through the automaton of the reversed
///    partner, O(|X| + |Y|) per direction: end-based statistics on the
///    reversals are start-based statistics on the strings, and each
///    maximal match is reported, with the partner state it reaches, as
///    soon as the next position shows that it does not extend;
///  * findMaximalMatchesDP — an O(|X|·|Y|) dynamic program kept as the
///    differential-testing oracle.
///
/// The kernel's fast path reads each string's feature occurrences off
/// the end-position index of that string's own reversed automaton
/// (SuffixAutomaton::endPositions); findOccurrences is the reference
/// matcher's scan.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_CORE_MATCHER_H
#define KAST_CORE_MATCHER_H

#include "core/SuffixAutomaton.h"
#include "core/Token.h"

#include <cstdint>
#include <span>
#include <vector>

namespace kast {

/// One maximal match occurrence in the subject string.
struct MaximalMatch {
  /// Start token index in the subject.
  size_t Begin = 0;
  /// One past the last token index.
  size_t End = 0;

  size_t length() const { return End - Begin; }
  bool operator==(const MaximalMatch &Rhs) const = default;
};

/// Streams the maximal match occurrences of the subject relative to
/// the partner. Both sides come reversed: \p ReversedSubject is the
/// subject read back to front and \p PartnerOfReversed the
/// SuffixAutomaton of the reversed partner sequence. Calls
/// \p Visit(End, Length, State) once per maximal match, in descending
/// order of its start in the subject: the match is
/// Subject[|Subject| - 1 - End, |Subject| - 1 - End + Length), i.e. it
/// ends at End in \p ReversedSubject, and State is the state of
/// \p PartnerOfReversed that it reaches read back to front — where its
/// partner occurrences are indexed. Allocates nothing.
template <typename VisitFn>
void visitMaximalMatches(std::span<const uint32_t> ReversedSubject,
                         const SuffixAutomaton &PartnerOfReversed,
                         VisitFn &&Visit) {
  // The walk's Length at J is MS[i], the longest prefix of Subject[i..]
  // occurring in the partner, for i = |Subject| - 1 - J. [i, i + MS[i])
  // is right-maximal by construction and left-maximal iff i == 0 or
  // MS[i - 1] <= MS[i], i.e. iff J is the last position or the walk's
  // next step does not extend the match.
  int32_t MatchState = 0;
  uint32_t MatchLength = 0;
  PartnerOfReversed.walk(ReversedSubject, [&](size_t J, int32_t State,
                                              uint32_t Length) {
    if (MatchLength != 0 && Length <= MatchLength)
      Visit(J - 1, MatchLength, MatchState);
    MatchState = State;
    MatchLength = Length;
  });
  if (MatchLength != 0)
    Visit(ReversedSubject.size() - 1, MatchLength, MatchState);
}

/// The maximal match occurrences of \p Subject relative to \p Partner
/// by quadratic dynamic programming, sorted by Begin: the oracle
/// visitMaximalMatches is tested against.
std::vector<MaximalMatch>
findMaximalMatchesDP(const std::vector<uint32_t> &Subject,
                     const std::vector<uint32_t> &Partner);

/// All occurrences (begin indices) of \p Pattern in \p Text by a naive
/// O(|Text|·|Pattern|) scan; the reference path of the Kast kernel
/// (KastKernelOptions::UseReferenceMatcher). Overlapping occurrences
/// are all reported.
std::vector<size_t> findOccurrences(const std::vector<uint32_t> &Text,
                                    std::span<const uint32_t> Pattern);

/// Convenience: reversed copy.
std::vector<uint32_t> reversed(const std::vector<uint32_t> &Sequence);

} // namespace kast

#endif // KAST_CORE_MATCHER_H
