//===- core/Matcher.cpp - Maximal common substring discovery ---------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/Matcher.h"

#include <algorithm>
#include <cassert>

using namespace kast;

std::vector<uint32_t> kast::reversed(const std::vector<uint32_t> &Sequence) {
  return std::vector<uint32_t>(Sequence.rbegin(), Sequence.rend());
}

std::vector<size_t>
kast::matchingStatisticsStarts(const std::vector<uint32_t> &ReversedSubject,
                               const SuffixAutomaton &PartnerOfReversed,
                               std::vector<int32_t> *PartnerStates) {
  // The longest prefix of Subject[i..] occurring in Partner equals the
  // longest suffix of ReversedSubject[.. n-1-i] occurring in
  // reverse(Partner): end-based statistics on the reversal, read back
  // to front.
  std::vector<size_t> Stats =
      PartnerOfReversed.matchingStatisticsEnds(ReversedSubject, PartnerStates);
  std::reverse(Stats.begin(), Stats.end());
  if (PartnerStates)
    std::reverse(PartnerStates->begin(), PartnerStates->end());
  return Stats;
}

/// Shared tail: converts start-based matching statistics into maximal
/// match occurrences. [i, i + MS[i]) is right-maximal by construction;
/// it is left-maximal iff i == 0 or MS[i-1] <= MS[i] (otherwise
/// [i-1, i-1 + MS[i-1]) covers it with one more token on the left).
static std::vector<MaximalMatch>
maximalFromStatistics(const std::vector<size_t> &MS) {
  std::vector<MaximalMatch> Matches;
  for (size_t I = 0; I < MS.size(); ++I) {
    if (MS[I] == 0)
      continue;
    if (I > 0 && MS[I - 1] > MS[I])
      continue; // Contained in the previous start's window.
    Matches.push_back({I, I + MS[I]});
  }
  return Matches;
}

std::vector<MaximalMatch>
kast::findMaximalMatches(const std::vector<uint32_t> &ReversedSubject,
                         const SuffixAutomaton &PartnerOfReversed,
                         std::vector<int32_t> *PartnerStates) {
  std::vector<int32_t> States;
  std::vector<MaximalMatch> Matches = maximalFromStatistics(
      matchingStatisticsStarts(ReversedSubject, PartnerOfReversed,
                               PartnerStates ? &States : nullptr));
  if (PartnerStates) {
    PartnerStates->clear();
    for (const MaximalMatch &M : Matches)
      PartnerStates->push_back(States[M.Begin]);
  }
  return Matches;
}

std::vector<MaximalMatch>
kast::findMaximalMatchesDP(const std::vector<uint32_t> &Subject,
                           const std::vector<uint32_t> &Partner) {
  const size_t N = Subject.size();
  const size_t M = Partner.size();
  // LCP[j] during row i holds the length of the longest common prefix
  // of Subject[i..] and Partner[j..]; filled bottom-up over i.
  std::vector<size_t> LCP(M + 1, 0), NextLCP(M + 1, 0);
  std::vector<size_t> MS(N, 0);
  for (size_t I = N; I-- > 0;) {
    for (size_t J = M; J-- > 0;) {
      NextLCP[J] =
          Subject[I] == Partner[J] ? LCP[J + 1] + 1 : 0;
      MS[I] = std::max(MS[I], NextLCP[J]);
    }
    std::swap(LCP, NextLCP);
  }
  return maximalFromStatistics(MS);
}

std::vector<size_t>
kast::findOccurrences(const std::vector<uint32_t> &Text,
                      std::span<const uint32_t> Pattern) {
  std::vector<size_t> Begins;
  if (Pattern.empty() || Pattern.size() > Text.size())
    return Begins;
  for (size_t I = 0; I + Pattern.size() <= Text.size(); ++I)
    if (std::equal(Pattern.begin(), Pattern.end(), Text.begin() + I))
      Begins.push_back(I);
  return Begins;
}
