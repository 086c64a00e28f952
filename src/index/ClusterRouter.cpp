//===- index/ClusterRouter.cpp - Coarse k-means query routing --------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "index/ClusterRouter.h"
#include "core/KernelProfile.h"
#include "util/Rng.h"
#include "util/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cmath>

using namespace kast;

namespace {
/// Bumped once per build() — the "did a restore secretly refit
/// k-means?" probe the restart canary and tests read.
std::atomic<uint64_t> KmeansFits{0};
} // namespace

uint64_t kast::kmeansFitCount() {
  return KmeansFits.load(std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Fitting
//===----------------------------------------------------------------------===//

namespace {

/// The shift that addresses a power-of-two open-addressed table of at
/// least 2 * \p Keys slots (and at least two): with the load factor at
/// most 1/2, every probe chain ends at an empty slot.
int tableShift(size_t Keys) {
  int Bits = 1;
  while ((size_t(1) << Bits) < 2 * Keys)
    ++Bits;
  return 64 - Bits;
}

/// Home slot of \p Hash in a table addressed by \p Shift. Multiply-shift
/// (Fibonacci) hashing rather than the raw top bits: real feature
/// hashes are uniform, but hand-built profiles with small or
/// top-bit-sharing hashes must not degrade every probe into a scan.
size_t homeSlot(uint64_t Hash, int Shift) {
  return static_cast<size_t>((Hash * 0x9E3779B97F4A7C15ULL) >> Shift);
}

/// One Lloyd round's centroids, inverted: each feature hash that some
/// centroid carries maps to the run of (centroid id, value) postings
/// that carry it. Scoring a profile against every centroid then costs
/// one probe per profile feature plus one multiply-add per feature the
/// profile shares with a centroid — instead of one merge join per
/// centroid, whose cost grows with the centroid's size.
///
/// Exactness: a centroid carries each hash at most once, and nearest()
/// walks the profile's features in ascending hash order, so centroid
/// C's accumulator receives exactly the products the merge join
/// dot(centroid C, profile) discovers, in the same ascending-hash
/// order, one f64 addition at a time starting from +0.0. That is the
/// addition sequence util/SimdDot's exactness contract fixes for every
/// kernel, so each score is bit-identical to dot() and the argmax is
/// the one the merge joins would pick.
class CentroidTable {
public:
  explicit CentroidTable(const ProfileStore &Centroids)
      : NumCentroids(Centroids.size()) {
    // Sorting the (hash, centroid) pairs groups each hash's postings
    // into one run, in ascending centroid id.
    struct Entry {
      uint64_t Hash;
      uint32_t Centroid;
      double Value;
    };
    std::vector<Entry> Entries;
    Entries.reserve(Centroids.entryCount());
    for (size_t C = 0; C < NumCentroids; ++C) {
      const ProfileView V = Centroids.view(C);
      for (size_t E = 0; E < V.Size; ++E)
        Entries.push_back(
            {V.Hashes[E], static_cast<uint32_t>(C), V.Values[E]});
    }
    std::sort(Entries.begin(), Entries.end(),
              [](const Entry &L, const Entry &R) {
                return L.Hash != R.Hash ? L.Hash < R.Hash
                                        : L.Centroid < R.Centroid;
              });
    size_t Distinct = 0;
    for (size_t I = 0; I < Entries.size(); ++I)
      Distinct += I == 0 || Entries[I].Hash != Entries[I - 1].Hash;
    Shift = tableShift(Distinct);
    Slots.assign(size_t(1) << (64 - Shift), Slot());
    Postings.reserve(Entries.size());
    for (size_t I = 0; I < Entries.size();) {
      const uint64_t Hash = Entries[I].Hash;
      const uint32_t Begin = static_cast<uint32_t>(Postings.size());
      for (; I < Entries.size() && Entries[I].Hash == Hash; ++I)
        Postings.push_back({Entries[I].Centroid, Entries[I].Value});
      size_t S = homeSlot(Hash, Shift);
      while (Slots[S].Begin != Slots[S].End)
        S = (S + 1) & (Slots.size() - 1);
      Slots[S] = {Hash, Begin, static_cast<uint32_t>(Postings.size())};
    }
  }

  /// argmax over centroids of dot(centroid, V); centroids are unit
  /// norm, so for a fixed profile the cosine argmax reduces to the raw
  /// dot argmax. Ties break toward the lower centroid id (the strict >
  /// keeps the incumbent), as in route(). \p Scores is the caller's
  /// per-worker scratch.
  uint32_t nearest(const ProfileView &V, std::vector<double> &Scores) const {
    Scores.assign(NumCentroids, 0.0);
    const size_t Mask = Slots.size() - 1;
    for (size_t E = 0; E < V.Size; ++E) {
      const uint64_t Hash = V.Hashes[E];
      size_t S = homeSlot(Hash, Shift);
      while (Slots[S].Begin != Slots[S].End && Slots[S].Hash != Hash)
        S = (S + 1) & Mask;
      const double Value = V.Values[E];
      for (uint32_t P = Slots[S].Begin; P < Slots[S].End; ++P)
        Scores[Postings[P].Centroid] += Postings[P].Value * Value;
    }
    uint32_t Best = 0;
    for (size_t C = 1; C < NumCentroids; ++C)
      if (Scores[C] > Scores[Best])
        Best = static_cast<uint32_t>(C);
    return Best;
  }

private:
  /// A run of Postings; an empty run marks an empty slot (a stored
  /// hash always has at least one posting).
  struct Slot {
    uint64_t Hash = 0;
    uint32_t Begin = 0;
    uint32_t End = 0;
  };
  struct Posting {
    uint32_t Centroid;
    double Value;
  };

  size_t NumCentroids;
  int Shift = 0;
  std::vector<Slot> Slots;
  std::vector<Posting> Postings;
};

/// Out[I] = Table.nearest(Store.view(IdOf(I))) for every I, in blocks
/// so each parallelFor item reuses one score buffer. Every item is a
/// pure function of the shared, read-only table, so the result does
/// not depend on \p Threads.
template <typename IdFn>
void assignNearest(const CentroidTable &Table, const ProfileStore &Store,
                   IdFn IdOf, std::vector<uint32_t> &Out, size_t Threads) {
  constexpr size_t Block = 64;
  parallelFor(
      (Out.size() + Block - 1) / Block,
      [&](size_t B) {
        std::vector<double> Scores;
        const size_t End = std::min(Out.size(), (B + 1) * Block);
        for (size_t I = B * Block; I < End; ++I)
          Out[I] = Table.nearest(Store.view(IdOf(I)), Scores);
      },
      Threads);
}

/// Rebuilds the centroid store from the current assignment over the
/// training ids: each centroid is the sum of its members'
/// unit-normalized vectors, re-normalized to unit length. A cluster
/// that lost all its members keeps its previous centroid, so the
/// centroid count never shrinks mid-fit and reseeding stays
/// deterministic. Each feature's sum adds its members' contributions
/// in TrainIds order (the shuffled training order), one f64 addition
/// at a time from +0.0, so the sums are reproducible. Centroids are
/// written straight into the new store's arrays.
ProfileStore updateCentroids(const ProfileStore &Store,
                             const std::vector<size_t> &TrainIds,
                             const std::vector<uint32_t> &Assign,
                             const ProfileStore &Previous) {
  // Each centroid's members, in TrainIds order: a stable counting sort
  // of the training positions by assignment. An empty profile pulls no
  // centroid anywhere, so it joins no member list.
  const size_t NumCentroids = Previous.size();
  std::vector<size_t> MemberBegin(NumCentroids + 1, 0);
  for (size_t T = 0; T < TrainIds.size(); ++T)
    if (Store.view(TrainIds[T]).Norm > 0.0)
      ++MemberBegin[Assign[T] + 1];
  for (size_t C = 0; C < NumCentroids; ++C)
    MemberBegin[C + 1] += MemberBegin[C];
  std::vector<size_t> Members(MemberBegin.back());
  std::vector<size_t> Cursor(MemberBegin.begin(), MemberBegin.end() - 1);
  for (size_t T = 0; T < TrainIds.size(); ++T)
    if (Store.view(TrainIds[T]).Norm > 0.0)
      Members[Cursor[Assign[T]]++] = TrainIds[T];

  std::vector<uint64_t> Hashes;
  std::vector<double> Values;
  std::vector<uint64_t> Offsets = {0};
  Offsets.reserve(NumCentroids + 1);
  // Per-centroid feature sums in first-touch order, found through an
  // open-addressed table of Sums positions (+1; 0 marks an empty slot).
  std::vector<std::pair<uint64_t, double>> Sums;
  std::vector<uint32_t> Slots;
  for (size_t C = 0; C < NumCentroids; ++C) {
    if (MemberBegin[C] == MemberBegin[C + 1]) {
      const ProfileView Kept = Previous.view(C);
      Hashes.insert(Hashes.end(), Kept.Hashes, Kept.Hashes + Kept.Size);
      Values.insert(Values.end(), Kept.Values, Kept.Values + Kept.Size);
      Offsets.push_back(Hashes.size());
      continue;
    }
    size_t Bound = 0;
    for (size_t M = MemberBegin[C]; M < MemberBegin[C + 1]; ++M)
      Bound += Store.view(Members[M]).Size;
    const int Shift = tableShift(Bound);
    Slots.assign(size_t(1) << (64 - Shift), 0);
    Sums.clear();
    for (size_t M = MemberBegin[C]; M < MemberBegin[C + 1]; ++M) {
      const ProfileView V = Store.view(Members[M]);
      const double Scale = 1.0 / V.Norm;
      for (size_t E = 0; E < V.Size; ++E) {
        size_t S = homeSlot(V.Hashes[E], Shift);
        while (Slots[S] != 0 && Sums[Slots[S] - 1].first != V.Hashes[E])
          S = (S + 1) & (Slots.size() - 1);
        if (Slots[S] == 0) {
          Sums.push_back({V.Hashes[E], 0.0});
          Slots[S] = static_cast<uint32_t>(Sums.size());
        }
        Sums[Slots[S] - 1].second += V.Values[E] * Scale;
      }
    }
    std::sort(Sums.begin(), Sums.end(),
              [](const auto &L, const auto &R) { return L.first < R.first; });
    double SelfDot = 0.0;
    for (const auto &[Hash, Value] : Sums)
      SelfDot += Value * Value;
    const double Norm = std::sqrt(SelfDot);
    for (const auto &[Hash, Value] : Sums) {
      Hashes.push_back(Hash);
      Values.push_back(Norm > 0.0 ? Value / Norm : Value);
    }
    Offsets.push_back(Hashes.size());
  }
  return ProfileStore::adopt(std::move(Hashes), std::move(Values),
                             std::move(Offsets));
}

} // namespace

ClusterRouter ClusterRouter::fromArenas(ProfileStore Centroids,
                                        ArrayView<uint32_t> Assignments,
                                        std::shared_ptr<const void> Backing) {
  ClusterRouter Router;
  Router.Centroids = std::move(Centroids);
  Router.AssignmentsP = Assignments.data();
  Router.NumAssigned = Assignments.size();
  Router.Backing = std::move(Backing);
  return Router;
}

ClusterRouter ClusterRouter::build(const ProfileStore &Store,
                                   ClusterRouterOptions Options,
                                   size_t Threads) {
  KmeansFits.fetch_add(1, std::memory_order_relaxed);
  ClusterRouter Router;
  const size_t N = Store.size();
  if (N == 0)
    return Router;

  size_t C = Options.NumCentroids;
  if (C == 0)
    C = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(N))));
  C = std::min(std::max<size_t>(1, std::min(C, N)), size_t(4096));

  // Deterministic training set and seeds: one shuffle yields both the
  // bounded sample (prefix) and the seed order (first C non-empty
  // profiles of that prefix).
  Rng R(Options.Seed);
  std::vector<size_t> Shuffled(N);
  for (size_t I = 0; I < N; ++I)
    Shuffled[I] = I;
  R.shuffle(Shuffled);
  size_t TrainCount = Options.TrainingSample == 0
                          ? N
                          : std::min(N, Options.TrainingSample);
  TrainCount = std::max(TrainCount, C);
  std::vector<size_t> TrainIds(Shuffled.begin(),
                               Shuffled.begin() + TrainCount);

  std::vector<KernelProfile> Seeds;
  for (size_t I = 0; I < TrainIds.size() && Seeds.size() < C; ++I)
    if (Store.view(TrainIds[I]).Norm > 0.0)
      Seeds.push_back(Store.materialize(TrainIds[I]));
  if (Seeds.empty())
    Seeds.push_back(KernelProfile()); // All-empty corpus: one centroid.
  for (KernelProfile &Seed : Seeds) {
    // Seeds are corpus profiles scaled to unit norm, matching the
    // normalization updateCentroids maintains.
    KernelProfile Unit;
    double SelfDot = 0.0;
    for (const ProfileEntry &E : Seed.entries())
      SelfDot += E.Value * E.Value;
    const double Norm = std::sqrt(SelfDot);
    Unit.reserve(Seed.size());
    for (const ProfileEntry &E : Seed.entries())
      Unit.add(E.Hash, Norm > 0.0 ? E.Value / Norm : E.Value);
    Seed = std::move(Unit);
  }
  ProfileStore Centroids;
  Centroids.appendAll(Seeds);

  // Lloyd iterations over the training set. Each round inverts its
  // centroids once, and every profile's assignment is a pure function
  // of that shared table, so parallelFor cannot perturb it.
  std::vector<uint32_t> TrainAssign(TrainIds.size(), 0);
  for (size_t Iter = 0; Iter < Options.MaxIterations; ++Iter) {
    std::vector<uint32_t> Next(TrainIds.size(), 0);
    assignNearest(
        CentroidTable(Centroids), Store,
        [&](size_t T) { return TrainIds[T]; }, Next, Threads);
    const bool Stable = Iter > 0 && Next == TrainAssign;
    TrainAssign = std::move(Next);
    if (Stable)
      break;
    Centroids = updateCentroids(Store, TrainIds, TrainAssign, Centroids);
  }

  // Final assignment covers every profile, sampled or not.
  Router.AssignmentsOwned.assign(N, 0);
  assignNearest(
      CentroidTable(Centroids), Store, [](size_t I) { return I; },
      Router.AssignmentsOwned, Threads);
  Router.syncOwned();
  Router.Centroids = std::move(Centroids);
  return Router;
}

std::vector<uint32_t> ClusterRouter::route(const KernelProfile &Query,
                                           size_t NProbe) const {
  // One-off convenience shape: flatten and delegate, so both entry
  // points share one sweep (and its vectorized dot). Batch callers use
  // the scratch overload directly and skip the per-call allocations.
  const FlatProfile Flat(Query);
  std::vector<std::pair<double, uint32_t>> Scored;
  std::vector<uint32_t> Probes;
  route(Flat, NProbe, Scored, Probes);
  return Probes;
}

void ClusterRouter::route(const FlatProfile &Query, size_t NProbe,
                          std::vector<std::pair<double, uint32_t>> &Scored,
                          std::vector<uint32_t> &Probes) const {
  Probes.clear();
  const size_t C = Centroids.size();
  if (C == 0)
    return;
  const size_t Take = NProbe == 0 ? C : std::min(NProbe, C);
  Scored.clear();
  Scored.reserve(C);
  for (size_t I = 0; I < C; ++I)
    Scored.push_back({dot(Centroids.view(I), Query),
                      static_cast<uint32_t>(I)});
  std::partial_sort(Scored.begin(), Scored.begin() + Take, Scored.end(),
                    [](const auto &L, const auto &R) {
                      if (L.first != R.first)
                        return L.first > R.first;
                      return L.second < R.second;
                    });
  Probes.reserve(Take);
  for (size_t I = 0; I < Take; ++I)
    Probes.push_back(Scored[I].second);
}
