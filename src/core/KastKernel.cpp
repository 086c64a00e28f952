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
#include <atomic>
#include <cassert>
#include <optional>
#include <ranges>
#include <utility>

using namespace kast;

KastSpectrumKernel::KastSpectrumKernel(KastKernelOptions Options)
    : Options(Options) {}

std::string KastSpectrumKernel::name() const {
  return "kast-spectrum(cut=" + std::to_string(Options.CutWeight) + ")";
}

namespace {

/// Per-sequence precomputation: the reversed literal sequence and its
/// suffix automaton — the partner index visitMaximalMatches needs, and
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

/// The buffers one worker reuses across the group pairs it scores, so
/// that scoring a pair allocates only while a buffer still grows.
struct PairScratch {
  /// Per state of the partner automaton being walked: Walk << 32 |
  /// the length of the last maximal match that reached it in that walk.
  std::vector<uint64_t> Seen;
  uint32_t Walk = 0;
  /// The candidates of the pair being scored.
  std::vector<Candidate> Candidates;
  /// Per side (G, H): the rows scored under the current cut, and row
  /// R's qualifying weight per candidate at [R * K, (R + 1) * K) for K
  /// candidates.
  std::vector<const WeightedString *> Rows[2];
  std::vector<uint64_t> Weights[2];
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

  // The literal sequences of the maximal match occurrences in both
  // directions, in lexicographic order, each once.
  const std::vector<uint32_t> &IdsA = A.literalIds(), &IdsB = B.literalIds();
  std::vector<Literals> Candidates;
  std::optional<KastPrecomputation> OwnedA, OwnedB;
  if (Options.UseReferenceMatcher) {
    for (const MaximalMatch &M : findMaximalMatchesDP(IdsA, IdsB))
      Candidates.push_back(Literals(IdsA).subspan(M.Begin, M.length()));
    for (const MaximalMatch &M : findMaximalMatchesDP(IdsB, IdsA))
      Candidates.push_back(Literals(IdsB).subspan(M.Begin, M.length()));
    PrepA = PrepB = nullptr;
  } else {
    PrepA = PrepA ? PrepA : &OwnedA.emplace(IdsA);
    PrepB = PrepB ? PrepB : &OwnedB.emplace(IdsB);
    auto Collect = [&Candidates](const std::vector<uint32_t> &Ids,
                                 const KastPrecomputation &Subject,
                                 const KastPrecomputation &Partner) {
      visitMaximalMatches(Subject.Reversed, Partner.ReversedSam,
                          [&](size_t End, uint32_t Length, int32_t) {
                            Candidates.push_back(Literals(Ids).subspan(
                                Ids.size() - 1 - End, Length));
                          });
    };
    Collect(IdsA, *PrepA, *PrepB);
    Collect(IdsB, *PrepB, *PrepA);
  }
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

/// Appends to \p Scratch.Candidates a candidate per distinct literal
/// sequence among the maximal matches of \p Subject relative to
/// \p Partner, and perhaps some more copies of one. The matching walk
/// yields each match's state in the partner's automaton, and a state's
/// factors differ in length, so (partner state, length) names a sequence
/// without comparing literals. A match whose state last yielded the same
/// length is a repeat and skipped; any other is read off one of its
/// partner occurrences and located in the subject's automaton. \p Side
/// is the subject's index into Candidate::State.
static void collectCandidates(const KastPrecomputation &Subject,
                              const KastPrecomputation &Partner, int Side,
                              PairScratch &Scratch) {
  const SuffixAutomaton &PartnerSam = Partner.ReversedSam;
  if (Scratch.Seen.size() < PartnerSam.numStates())
    Scratch.Seen.resize(PartnerSam.numStates(), 0);
  if (++Scratch.Walk == 0) {
    // The tags wrapped: forget every earlier walk.
    std::ranges::fill(Scratch.Seen, 0);
    Scratch.Walk = 1;
  }
  const uint64_t Tag = static_cast<uint64_t>(Scratch.Walk) << 32;
  visitMaximalMatches(
      Subject.Reversed, PartnerSam,
      [&](size_t, uint32_t Length, int32_t State) {
        if (std::exchange(Scratch.Seen[State], Tag | Length) == (Tag | Length))
          return;
        Candidate C;
        C.Length = Length;
        C.State[1 - Side] = State;
        // Reversed, the sequence ends at each of the state's end
        // positions.
        const uint32_t End = PartnerSam.endPositions(State).front();
        auto First = Partner.Reversed.begin() + (End + 1 - Length);
        C.State[Side] = Subject.ReversedSam.locate(First, First + Length);
        assert(C.State[Side] != -1 && "a match occurs in the subject");
        Scratch.Candidates.push_back(C);
      });
}

/// The candidate features of the group pair (G, H), into
/// \p Scratch.Candidates: every distinct literal sequence that is a
/// maximal match in either direction.
static void findCandidates(const KastPrecomputation &G,
                           const KastPrecomputation &H, PairScratch &Scratch) {
  Scratch.Candidates.clear();
  collectCandidates(G, H, 0, Scratch);
  collectCandidates(H, G, 1, Scratch);
  // A sequence that is maximal in both directions, or that one walk
  // reached between other lengths of its state, arrived more than once.
  auto Key = [](const Candidate &C) {
    return std::pair(C.State[0], C.Length);
  };
  std::ranges::sort(Scratch.Candidates, {}, Key);
  auto Tail = std::ranges::unique(Scratch.Candidates, {}, Key);
  Scratch.Candidates.erase(Tail.begin(), Tail.end());
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

/// Scores the member pairs of the group pair (G, H) under \p Options
/// over the candidates findCandidates() left in \p Scratch: weighs each
/// of the rows Scratch.Rows[0] (of G) and Scratch.Rows[1] (of H) against
/// every candidate once, then calls
/// \p Store(I, J, k(*Scratch.Rows[0][I], *Scratch.Rows[1][J])) for each
/// (I, J) that \p Needed(I, J) admits. Every row must carry its group's
/// literal sequence and not be ignored().
template <typename NeededFn, typename StoreFn>
static void scoreRows(const KastKernelOptions &Options,
                      const KastPrecomputation &G, const KastPrecomputation &H,
                      PairScratch &Scratch, NeededFn Needed, StoreFn Store) {
  const std::vector<Candidate> &Candidates = Scratch.Candidates;
  const size_t K = Candidates.size();
  const KastPrecomputation *Prep[2] = {&G, &H};
  for (int Side = 0; Side < 2; ++Side) {
    const std::vector<const WeightedString *> &Rows = Scratch.Rows[Side];
    std::vector<uint64_t> &Q = Scratch.Weights[Side];
    Q.resize(Rows.size() * K);
    for (size_t R = 0; R < Rows.size(); ++R)
      for (size_t C = 0; C < K; ++C)
        Q[R * K + C] = qualifyingWeight(
            occurrencesAt(*Rows[R], Prep[Side]->ReversedSam,
                          Candidates[C].State[Side], Candidates[C].Length,
                          Options),
            Options);
  }
  const std::vector<const WeightedString *> &RowsG = Scratch.Rows[0],
                                            &RowsH = Scratch.Rows[1];
  for (size_t I = 0; I < RowsG.size(); ++I)
    for (size_t J = 0; J < RowsH.size(); ++J) {
      if (!Needed(I, J))
        continue;
      std::optional<double> V = exactDot(Scratch.Weights[0].data() + I * K,
                                         Scratch.Weights[1].data() + J * K, K);
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
  PairScratch Scratch;
  findCandidates(GA, GB, Scratch);
  Scratch.Rows[0] = {&A};
  Scratch.Rows[1] = {&B};
  double Value = 0.0;
  scoreRows(
      Options, GA, GB, Scratch, [](size_t, size_t) { return true; },
      [&Value](size_t, size_t, double V) { Value = V; });
  return Value;
}

KastGramGroups::KastGramGroups(std::vector<uint64_t> Cuts, CutPolicy Policy)
    : Cuts(std::move(Cuts)), Policy(Policy) {}

void KastGramGroups::appendRows(std::span<const WeightedString> Strings,
                                std::span<Matrix> Raw, size_t Threads) {
  const size_t OldN = Rows, OldGroups = Members.size();
  assert(Strings.size() >= OldN && "appendRows only grows the Gram");
  assert(Raw.size() == Cuts.size() && "one raw matrix per cut weight");

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
  const size_t NumGroups = Members.size(),
               Settled = static_cast<size_t>(std::ranges::count(Grew, false));
  std::vector<std::pair<uint32_t, uint32_t>> Pairs;
  Pairs.reserve(NumGroups * (NumGroups + 1) / 2 - Settled * (Settled + 1) / 2);
  for (uint32_t G = 0; G < NumGroups; ++G)
    for (uint32_t H = G; H < NumGroups; ++H)
      if (Grew[G] || Grew[H])
        Pairs.push_back({G, H});

  auto RowOf = [&Strings](const WeightedString *S) {
    return static_cast<size_t>(S - Strings.data());
  };
  // A side's rows with a new entry against the other side: all of them
  // if the other side grew, else only its new rows — minus the rows the
  // cut ignores, whose entries stay zero.
  auto FillSide = [&](std::vector<const WeightedString *> &Out, uint32_t Own,
                      uint32_t Other, const KastKernelOptions &Options) {
    Out.clear();
    for (uint32_t Row : Members[Own])
      if ((Grew[Other] || Row >= OldN) && !ignored(Strings[Row], Options))
        Out.push_back(&Strings[Row]);
  };
  auto ScorePair = [&](uint32_t G, uint32_t H, PairScratch &Scratch) {
    const auto &PrepG = static_cast<const KastPrecomputation &>(*Prep[G]),
               &PrepH = static_cast<const KastPrecomputation &>(*Prep[H]);
    bool Found = false;
    for (size_t C = 0; C < Cuts.size(); ++C) {
      const KastKernelOptions Options{Cuts[C], Policy};
      FillSide(Scratch.Rows[0], G, H, Options);
      FillSide(Scratch.Rows[1], H, G, Options);
      // An empty side leaves this cut's entries of the pair as they
      // are; the candidates are found once, for the first cut that
      // needs them.
      if (Scratch.Rows[0].empty() || Scratch.Rows[1].empty())
        continue;
      if (!Found)
        findCandidates(PrepG, PrepH, Scratch);
      Found = true;
      Matrix &Gram = Raw[C];
      scoreRows(
          Options, PrepG, PrepH, Scratch,
          [&](size_t I, size_t J) {
            const size_t A = RowOf(Scratch.Rows[0][I]),
                         B = RowOf(Scratch.Rows[1][J]);
            return (A >= OldN || B >= OldN) && (G != H || A <= B);
          },
          [&](size_t I, size_t J, double V) {
            const size_t A = RowOf(Scratch.Rows[0][I]),
                         B = RowOf(Scratch.Rows[1][J]);
            Gram.at(A, B) = V;
            Gram.at(B, A) = V;
          });
    }
  };

  // Each worker drains the shared pair counter with its own scratch.
  const size_t Workers = std::min(
      Pairs.size(), Threads ? Threads : ThreadPool::shared().threadCount() + 1);
  std::atomic<size_t> Next{0};
  parallelFor(
      Workers,
      [&](size_t) {
        PairScratch Scratch;
        for (size_t P; (P = Next++) < Pairs.size();)
          ScorePair(Pairs[P].first, Pairs[P].second, Scratch);
      },
      Threads);
}
