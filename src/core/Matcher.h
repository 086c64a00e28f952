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
///  * findMaximalMatches — matching statistics over a SuffixAutomaton,
///    O(|X| + |Y|) per direction (start-based statistics are obtained
///    by running end-based statistics on the reversed strings, so both
///    sides are passed reversed);
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

/// Start-based matching statistics: Result[i] = length of the longest
/// prefix of Subject[i..] occurring (anywhere) in the partner. Both
/// sides come reversed: \p ReversedSubject is the subject read back to
/// front and \p PartnerOfReversed the SuffixAutomaton of the reversed
/// partner sequence. If \p PartnerStates is non-null,
/// (*PartnerStates)[i] receives the state of \p PartnerOfReversed that
/// that prefix, read back to front, reaches — where its partner
/// occurrences are indexed.
std::vector<size_t>
matchingStatisticsStarts(const std::vector<uint32_t> &ReversedSubject,
                         const SuffixAutomaton &PartnerOfReversed,
                         std::vector<int32_t> *PartnerStates = nullptr);

/// Maximal match occurrences of the subject relative to the partner
/// (suffix-automaton path), in subject coordinates; arguments as for
/// matchingStatisticsStarts. Results are sorted by Begin and unique.
/// If \p PartnerStates is non-null, (*PartnerStates)[m] receives match
/// m's state, as matchingStatisticsStarts reports it.
std::vector<MaximalMatch>
findMaximalMatches(const std::vector<uint32_t> &ReversedSubject,
                   const SuffixAutomaton &PartnerOfReversed,
                   std::vector<int32_t> *PartnerStates = nullptr);

/// Reference implementation by quadratic dynamic programming.
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
