//===- core/KastKernel.cpp - The Kast Spectrum Kernel ----------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/KastKernel.h"
#include "core/Matcher.h"
#include "linalg/Matrix.h"
#include "util/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <ranges>

using namespace kast;

KastSpectrumKernel::KastSpectrumKernel(KastKernelOptions Options)
    : Options(Options) {}

std::string KastSpectrumKernel::name() const {
  return "kast-spectrum(cut=" + std::to_string(Options.CutWeight) + ")";
}

namespace {

/// Per-sequence precomputation: the reversed literal sequence and its
/// suffix automaton — the partner index findMaximalMatches needs, and
/// the end-position index that lists a feature's occurrences. Both
/// depend on the literal ids alone, so strings that share a sequence
/// share one.
struct KastPrecomputation final : KernelPrecomputation {
  explicit KastPrecomputation(const std::vector<uint32_t> &Ids)
      : Reversed(reversed(Ids)), ReversedSam(Reversed) {}

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

/// A candidate feature of a group pair (G, H): a literal sequence of
/// Length tokens that occurs in both, named by the state it reaches,
/// read back to front, in G's (State[0]) and H's (State[1]) reversed
/// automaton.
struct Candidate {
  int32_t State[2] = {0, 0};
  uint32_t Length = 0;
};

} // namespace

/// §3.2: empty strings and strings lighter than the cut weight are
/// ignored entirely (k = 0 against anything).
static bool ignored(const WeightedString &X, const KastKernelOptions &Options) {
  return X.empty() || X.totalWeight() < Options.CutWeight;
}

/// Accumulates the occurrences of a \p Length-token feature in \p X,
/// beginning at \p Begins, that qualify under the cut policy.
template <typename BeginRange>
static Occurrences weighOccurrences(const WeightedString &X,
                                    const BeginRange &Begins, size_t Length,
                                    const KastKernelOptions &Options) {
  Occurrences Result;
  for (size_t Begin : Begins) {
    uint64_t W = X.rangeWeight(Begin, Begin + Length);
    if (Options.Policy == CutPolicy::PerOccurrence && W < Options.CutWeight)
      continue;
    Result.Weight += W;
    ++Result.Count;
  }
  return Result;
}

/// The qualifying occurrences of the \p Length-token feature in \p State
/// of \p Sam, the automaton of reversed X: read backwards, a feature
/// ends at E in reversed X iff it begins at |X| - 1 - E in X.
static Occurrences occurrencesAt(const WeightedString &X,
                                 const SuffixAutomaton &Sam, int32_t State,
                                 size_t Length,
                                 const KastKernelOptions &Options) {
  const size_t Last = X.size() - 1;
  return weighOccurrences(X,
                          Sam.endPositions(State) |
                              std::views::transform([Last](uint32_t End) {
                                return Last - End;
                              }),
                          Length, Options);
}

/// Whether a feature with occurrences \p InA and \p InB enters the
/// embedding.
static bool qualifies(const Occurrences &InA, const Occurrences &InB,
                      const KastKernelOptions &Options) {
  return Options.Policy == CutPolicy::PerOccurrence
             ? InA.Count != 0 && InB.Count != 0
             : InA.Weight >= Options.CutWeight &&
                   InB.Weight >= Options.CutWeight;
}

/// A weight whose product with the partner's is the feature's term
/// InA.Weight * InB.Weight when qualifies() holds, and 0 when not.
static uint64_t qualifyingWeight(const Occurrences &In,
                                 const KastKernelOptions &Options) {
  return Options.Policy == CutPolicy::PerOccurrence ||
                 In.Weight >= Options.CutWeight
             ? In.Weight
             : 0;
}

/// Calls \p Visit(Literals, InA, InB) per feature of (A, B), in ascending
/// lexicographic literal order (the reference summation order).
/// \p PrepA / \p PrepB are optional; the reference matcher uses none.
template <typename VisitFn>
static void visitFeatures(const KastKernelOptions &Options,
                          const WeightedString &A,
                          const KastPrecomputation *PrepA,
                          const WeightedString &B,
                          const KastPrecomputation *PrepB, VisitFn Visit) {
  if (ignored(A, Options) || ignored(B, Options))
    return;
  assert(A.table().get() == B.table().get() &&
         "kernel arguments must share one token table");

  // Maximal match occurrences in both directions.
  const std::vector<uint32_t> &IdsA = A.literalIds(), &IdsB = B.literalIds();
  std::vector<MaximalMatch> MatchesA, MatchesB;
  std::optional<KastPrecomputation> OwnedA, OwnedB;
  if (Options.UseReferenceMatcher) {
    MatchesA = findMaximalMatchesDP(IdsA, IdsB);
    MatchesB = findMaximalMatchesDP(IdsB, IdsA);
    PrepA = PrepB = nullptr;
  } else {
    PrepA = PrepA ? PrepA : &OwnedA.emplace(IdsA);
    PrepB = PrepB ? PrepB : &OwnedB.emplace(IdsB);
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

  // Occurrences come off the automaton's end-position index, or from a
  // scan of X under the reference matcher.
  auto Score = [&Options](const WeightedString &X,
                          const KastPrecomputation *Prep, Literals Key) {
    if (!Prep)
      return weighOccurrences(X, findOccurrences(X.literalIds(), Key),
                              Key.size(), Options);
    int32_t State = Prep->ReversedSam.locate(Key.rbegin(), Key.rend());
    assert(State != -1 && "a candidate occurs in both strings");
    return occurrencesAt(X, Prep->ReversedSam, State, Key.size(), Options);
  };
  for (Literals Key : Candidates) {
    Occurrences InA = Score(A, PrepA, Key), InB = Score(B, PrepB, Key);
    if (qualifies(InA, InB, Options))
      Visit(Key, InA, InB);
  }
}

/// The reference value of k(A, B): the feature products summed in
/// double in visitFeatures' lexicographic order.
static double orderedSum(const KastKernelOptions &Options,
                         const WeightedString &A,
                         const KastPrecomputation *PrepA,
                         const WeightedString &B,
                         const KastPrecomputation *PrepB) {
  double Sum = 0.0;
  visitFeatures(Options, A, PrepA, B, PrepB,
                [&Sum](Literals, Occurrences InA, Occurrences InB) {
                  Sum += static_cast<double>(InA.Weight) *
                         static_cast<double>(InB.Weight);
                });
  return Sum;
}

/// Appends one candidate per distinct literal sequence among the
/// maximal matches of \p Subject relative to \p Partner. The matching
/// walk yields each match's state in the partner's automaton, and a
/// state's factors differ in length, so (partner state, length) names
/// a sequence without comparing literals; each distinct one is then
/// read off one of its partner occurrences and located in the
/// subject's automaton. \p Side is the subject's index into
/// Candidate::State.
static void collectCandidates(const KastPrecomputation &Subject,
                              const KastPrecomputation &Partner, int Side,
                              std::vector<Candidate> &Out) {
  std::vector<int32_t> PartnerStates;
  const std::vector<MaximalMatch> Matches = findMaximalMatches(
      Subject.Reversed, Partner.ReversedSam, &PartnerStates);
  std::vector<uint64_t> Keys(Matches.size());
  for (size_t M = 0; M < Matches.size(); ++M)
    Keys[M] = static_cast<uint64_t>(PartnerStates[M]) << 32 |
              Matches[M].length();
  std::ranges::sort(Keys);
  Keys.erase(std::unique(Keys.begin(), Keys.end()), Keys.end());
  for (uint64_t Key : Keys) {
    Candidate C;
    C.Length = static_cast<uint32_t>(Key);
    C.State[1 - Side] = static_cast<int32_t>(Key >> 32);
    // Reversed, the sequence ends at each of the state's end positions.
    const uint32_t End =
        Partner.ReversedSam.endPositions(C.State[1 - Side]).front();
    auto First = Partner.Reversed.begin() + (End + 1 - C.Length);
    C.State[Side] = Subject.ReversedSam.locate(First, First + C.Length);
    assert(C.State[Side] != -1 && "a match occurs in the subject");
    Out.push_back(C);
  }
}

/// The candidate features of the group pair (G, H): every distinct
/// literal sequence that is a maximal match in either direction.
static std::vector<Candidate> sharedCandidates(const KastPrecomputation &G,
                                               const KastPrecomputation &H) {
  std::vector<Candidate> Candidates;
  collectCandidates(G, H, 0, Candidates);
  collectCandidates(H, G, 1, Candidates);
  // A sequence that is maximal in both directions arrived twice.
  auto Key = [](const Candidate &C) {
    return std::pair(C.State[0], C.Length);
  };
  std::ranges::sort(Candidates, {}, Key);
  auto Tail = std::ranges::unique(Candidates, {}, Key);
  Candidates.erase(Tail.begin(), Tail.end());
  return Candidates;
}

/// sum_C QA[C] * QB[C], summed exactly in 128 bits, as a double — or
/// nothing once the sum reaches 2^53. Below that every product and
/// every partial sum is an exactly representable integer, so any
/// summation order, the reference's included, gives these bits.
static std::optional<double> exactDot(const uint64_t *QA, const uint64_t *QB,
                                      size_t K) {
  __extension__ typedef unsigned __int128 Wide;
  constexpr Wide Limit = Wide(1) << 53;
  Wide Sum = 0;
  for (size_t C = 0; C < K; ++C)
    if ((Sum += static_cast<Wide>(QA[C]) * QB[C]) >= Limit)
      return std::nullopt;
  return static_cast<double>(static_cast<uint64_t>(Sum));
}

/// Scores the member pairs of the group pair (G, H): finds their
/// candidate features once, weighs each row's occurrences of every
/// candidate once, then calls \p Store(I, J, k(*RowsG[I], *RowsH[J]))
/// for each (I, J) that \p Needed(I, J) admits. Every row must carry
/// its group's literal sequence and not be ignored().
template <typename NeededFn, typename StoreFn>
static void scoreGroupPair(const KastKernelOptions &Options,
                           const KastPrecomputation &G,
                           std::span<const WeightedString *const> RowsG,
                           const KastPrecomputation &H,
                           std::span<const WeightedString *const> RowsH,
                           NeededFn Needed, StoreFn Store) {
  const std::vector<Candidate> Candidates = sharedCandidates(G, H);
  const size_t K = Candidates.size();
  // Row R's qualifying weight per candidate, at [R * K, (R + 1) * K).
  auto Weigh = [&](std::span<const WeightedString *const> Rows,
                   const KastPrecomputation &Prep, int Side) {
    std::vector<uint64_t> Q(Rows.size() * K);
    for (size_t R = 0; R < Rows.size(); ++R)
      for (size_t C = 0; C < K; ++C)
        Q[R * K + C] = qualifyingWeight(
            occurrencesAt(*Rows[R], Prep.ReversedSam,
                          Candidates[C].State[Side], Candidates[C].Length,
                          Options),
            Options);
    return Q;
  };
  const std::vector<uint64_t> QG = Weigh(RowsG, G, 0), QH = Weigh(RowsH, H, 1);
  for (size_t I = 0; I < RowsG.size(); ++I)
    for (size_t J = 0; J < RowsH.size(); ++J) {
      if (!Needed(I, J))
        continue;
      std::optional<double> V =
          exactDot(QG.data() + I * K, QH.data() + J * K, K);
      Store(I, J, V ? *V : orderedSum(Options, *RowsG[I], &G, *RowsH[J], &H));
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
  return std::make_unique<KastPrecomputation>(X.literalIds());
}

double KastSpectrumKernel::evaluate(const WeightedString &A,
                                    const WeightedString &B) const {
  return orderedSum(Options, A, nullptr, B, nullptr);
}

double KastSpectrumKernel::evaluatePrepared(
    const WeightedString &A, const KernelPrecomputation *PrepA,
    const WeightedString &B, const KernelPrecomputation *PrepB) const {
  if (Options.UseReferenceMatcher)
    return orderedSum(Options, A, nullptr, B, nullptr);
  if (ignored(A, Options) || ignored(B, Options))
    return 0.0;
  assert(A.table().get() == B.table().get() &&
         "kernel arguments must share one token table");
  std::optional<KastPrecomputation> OwnedA, OwnedB;
  const KastPrecomputation &GA =
      PrepA ? static_cast<const KastPrecomputation &>(*PrepA)
            : OwnedA.emplace(A.literalIds());
  const KastPrecomputation &GB =
      PrepB ? static_cast<const KastPrecomputation &>(*PrepB)
            : OwnedB.emplace(B.literalIds());
  const WeightedString *RowA = &A, *RowB = &B;
  double Value = 0.0;
  scoreGroupPair(
      Options, GA, {&RowA, 1}, GB, {&RowB, 1},
      [](size_t, size_t) { return true; },
      [&Value](size_t, size_t, double V) { Value = V; });
  return Value;
}

void KastGramGroups::appendRows(std::span<const WeightedString> Strings,
                                Matrix &Raw, size_t Threads) {
  const size_t OldN = Rows, OldGroups = Members.size();
  assert(Strings.size() >= OldN && "appendRows only grows the Gram");

  // Group the new rows; an unseen literal-id sequence opens a group.
  std::vector<bool> Grew(OldGroups, false);
  for (size_t Row = OldN; Row < Strings.size(); ++Row) {
    assert(Strings[Row].table() == Strings.front().table() &&
           "kernel arguments must share one token table");
    auto [It, Opened] = GroupOf.try_emplace(
        Strings[Row].literalIds(), static_cast<uint32_t>(Members.size()));
    if (Opened) {
      Members.emplace_back();
      Grew.push_back(false);
    }
    Members[It->second].push_back(static_cast<uint32_t>(Row));
    Grew[It->second] = true;
  }
  Rows = Strings.size();

  // One precomputation per new group, from its first row's ids.
  Prep.resize(Members.size());
  parallelFor(
      Members.size() - OldGroups,
      [&](size_t I) {
        const std::vector<uint32_t> &Ids =
            Strings[Members[OldGroups + I].front()].literalIds();
        Prep[OldGroups + I] = std::make_unique<KastPrecomputation>(Ids);
      },
      Threads);

  // Every group pair with a new member. Each entry belongs to exactly
  // one of them, so concurrent pairs never write the same cell.
  std::vector<std::pair<uint32_t, uint32_t>> Pairs;
  for (uint32_t G = 0; G < Members.size(); ++G)
    for (uint32_t H = G; H < Members.size(); ++H)
      if (Grew[G] || Grew[H])
        Pairs.push_back({G, H});
  parallelFor(
      Pairs.size(),
      [&](size_t P) {
        const auto [G, H] = Pairs[P];
        // A side's rows with a new entry against the other side: all of
        // them if the other side grew, else only its new rows — minus
        // the rows the cut ignores, whose entries stay zero. An empty
        // side skips the pair.
        auto Side = [&](uint32_t Own, uint32_t Other) {
          std::vector<const WeightedString *> Out;
          for (uint32_t Row : Members[Own])
            if ((Grew[Other] || Row >= OldN) &&
                !ignored(Strings[Row], Options))
              Out.push_back(&Strings[Row]);
          return Out;
        };
        const std::vector<const WeightedString *> RowsG = Side(G, H),
                                                  RowsH = Side(H, G);
        if (RowsG.empty() || RowsH.empty())
          return;
        auto RowOf = [&Strings](const WeightedString *S) {
          return static_cast<size_t>(S - Strings.data());
        };
        scoreGroupPair(
            Options, static_cast<const KastPrecomputation &>(*Prep[G]), RowsG,
            static_cast<const KastPrecomputation &>(*Prep[H]), RowsH,
            [&](size_t I, size_t J) {
              const size_t A = RowOf(RowsG[I]), B = RowOf(RowsH[J]);
              return (A >= OldN || B >= OldN) && (G != H || A <= B);
            },
            [&](size_t I, size_t J, double V) {
              const size_t A = RowOf(RowsG[I]), B = RowOf(RowsH[J]);
              Raw.at(A, B) = V;
              Raw.at(B, A) = V;
            });
      },
      Threads);
}
