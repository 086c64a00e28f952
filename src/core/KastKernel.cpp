//===- core/KastKernel.cpp - The Kast Spectrum Kernel ----------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/KastKernel.h"
#include "core/Matcher.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <span>

using namespace kast;

KastSpectrumKernel::KastSpectrumKernel(KastKernelOptions Options)
    : Options(Options) {}

std::string KastSpectrumKernel::name() const {
  return "kast-spectrum(cut=" + std::to_string(Options.CutWeight) + ")";
}

namespace {

/// Per-string precomputation: the reversed literal sequence and its
/// suffix automaton — the partner index findMaximalMatches needs, and
/// the end-position index that lists a feature's occurrences.
struct KastPrecomputation final : KernelPrecomputation {
  explicit KastPrecomputation(const WeightedString &X)
      : Reversed(reversed(X.literalIds())), ReversedSam(Reversed) {}

  std::vector<uint32_t> Reversed;
  SuffixAutomaton ReversedSam;
};

/// A candidate feature: a span of A's or B's literal ids.
using Literals = std::span<const uint32_t>;

/// The qualifying occurrences of one feature in one string.
struct Occurrences {
  uint64_t Weight = 0;
  size_t Count = 0;
};

} // namespace

/// Accumulates the occurrences of \p Pattern in \p X that qualify under
/// the cut policy. They are read off \p Prep's end-position index, or
/// found by scanning X when \p Prep is null (the reference matcher).
static Occurrences scoreOccurrences(const WeightedString &X,
                                   const KastPrecomputation *Prep,
                                   Literals Pattern,
                                   const KastKernelOptions &Options) {
  Occurrences Result;
  auto Add = [&](size_t Begin) {
    uint64_t W = X.rangeWeight(Begin, Begin + Pattern.size());
    if (Options.Policy == CutPolicy::PerOccurrence && W < Options.CutWeight)
      return;
    Result.Weight += W;
    ++Result.Count;
  };
  if (!Prep) {
    for (size_t Begin : findOccurrences(X.literalIds(), Pattern))
      Add(Begin);
    return Result;
  }
  // Read backwards, Pattern ends at E in reversed X iff it begins at
  // |X| - 1 - E in X.
  const SuffixAutomaton &Sam = Prep->ReversedSam;
  int32_t State = Sam.locate(Pattern.rbegin(), Pattern.rend());
  assert(State != -1 && "a candidate occurs in both strings");
  for (uint32_t End : Sam.endPositions(State))
    Add(X.size() - 1 - End);
  return Result;
}

/// Calls \p Visit(Literals, InA, InB) per feature of (A, B), in ascending
/// lexicographic literal order (the inner product's summation order).
/// \p PrepA / \p PrepB are optional; the reference matcher uses none.
template <typename VisitFn>
static void visitFeatures(const KastKernelOptions &Options,
                          const WeightedString &A,
                          const KastPrecomputation *PrepA,
                          const WeightedString &B,
                          const KastPrecomputation *PrepB, VisitFn Visit) {
  if (A.empty() || B.empty())
    return;
  assert(A.table().get() == B.table().get() &&
         "kernel arguments must share one token table");
  // §3.2: strings lighter than the cut weight are ignored entirely.
  if (A.totalWeight() < Options.CutWeight ||
      B.totalWeight() < Options.CutWeight)
    return;

  // Maximal match occurrences in both directions.
  const std::vector<uint32_t> &IdsA = A.literalIds(), &IdsB = B.literalIds();
  std::vector<MaximalMatch> MatchesA, MatchesB;
  std::optional<KastPrecomputation> OwnedA, OwnedB;
  if (Options.UseReferenceMatcher) {
    MatchesA = findMaximalMatchesDP(IdsA, IdsB);
    MatchesB = findMaximalMatchesDP(IdsB, IdsA);
    PrepA = PrepB = nullptr;
  } else {
    PrepA = PrepA ? PrepA : &OwnedA.emplace(A);
    PrepB = PrepB ? PrepB : &OwnedB.emplace(B);
    MatchesA = findMaximalMatches(PrepA->Reversed, PrepB->ReversedSam);
    MatchesB = findMaximalMatches(PrepB->Reversed, PrepA->ReversedSam);
  }

  // Their distinct literal sequences, in lexicographic order.
  std::vector<Literals> Candidates;
  Candidates.reserve(MatchesA.size() + MatchesB.size());
  for (const MaximalMatch &M : MatchesA)
    Candidates.push_back(Literals(IdsA).subspan(M.Begin, M.length()));
  for (const MaximalMatch &M : MatchesB)
    Candidates.push_back(Literals(IdsB).subspan(M.Begin, M.length()));
  std::ranges::sort(Candidates, [](Literals L, Literals R) {
    return std::ranges::lexicographical_compare(L, R);
  });
  auto Tail = std::ranges::unique(Candidates, [](Literals L, Literals R) {
    return std::ranges::equal(L, R);
  });
  Candidates.erase(Tail.begin(), Tail.end());

  for (Literals Key : Candidates) {
    Occurrences InA = scoreOccurrences(A, PrepA, Key, Options);
    Occurrences InB = scoreOccurrences(B, PrepB, Key, Options);
    if (Options.Policy == CutPolicy::PerOccurrence
            ? InA.Count == 0 || InB.Count == 0
            : InA.Weight < Options.CutWeight || InB.Weight < Options.CutWeight)
      continue;
    Visit(Key, InA, InB);
  }
}

std::vector<KastFeature>
KastSpectrumKernel::features(const WeightedString &A,
                             const WeightedString &B) const {
  std::vector<KastFeature> Result;
  visitFeatures(Options, A, nullptr, B, nullptr,
                [&Result](Literals Key, Occurrences InA, Occurrences InB) {
                  Result.push_back({{Key.begin(), Key.end()}, InA.Weight,
                                    InB.Weight, InA.Count, InB.Count});
                });
  return Result;
}

std::unique_ptr<KernelPrecomputation>
KastSpectrumKernel::precompute(const WeightedString &X) const {
  // The reference matcher never consults the automaton.
  if (Options.UseReferenceMatcher)
    return nullptr;
  return std::make_unique<KastPrecomputation>(X);
}

double KastSpectrumKernel::evaluate(const WeightedString &A,
                                    const WeightedString &B) const {
  return evaluatePrepared(A, nullptr, B, nullptr);
}

double KastSpectrumKernel::evaluatePrepared(
    const WeightedString &A, const KernelPrecomputation *PrepA,
    const WeightedString &B, const KernelPrecomputation *PrepB) const {
  double Sum = 0.0;
  visitFeatures(Options, A, static_cast<const KastPrecomputation *>(PrepA),
                B, static_cast<const KastPrecomputation *>(PrepB),
                [&Sum](Literals, Occurrences InA, Occurrences InB) {
                  Sum += static_cast<double>(InA.Weight) *
                         static_cast<double>(InB.Weight);
                });
  return Sum;
}
