//===- ml/HierarchicalClustering.cpp - Agglomerative clustering ------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ml/HierarchicalClustering.h"
#include "util/TextTable.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

using namespace kast;

const char *kast::linkageName(Linkage L) {
  switch (L) {
  case Linkage::Single:
    return "single";
  case Linkage::Complete:
    return "complete";
  case Linkage::Average:
    return "average";
  }
  return "single";
}

Dendrogram::Dendrogram(size_t NumLeaves, std::vector<Merge> Merges)
    : NumLeaves(NumLeaves), Merges(std::move(Merges)) {
  assert((NumLeaves == 0 || this->Merges.size() == NumLeaves - 1) &&
         "a dendrogram over n leaves has n-1 merges");
}

/// Union-find over leaf ids after applying the first \p NumMerges
/// merges, renumbered densely by first leaf occurrence.
static std::vector<size_t> flatten(size_t NumLeaves,
                                   const std::vector<Merge> &Merges,
                                   size_t NumMerges) {
  // Cluster id space: leaves [0, n), internal [n, n + merges).
  std::vector<size_t> Root(NumLeaves + Merges.size());
  for (size_t I = 0; I < Root.size(); ++I)
    Root[I] = I;
  auto Find = [&Root](size_t X) {
    while (Root[X] != X) {
      Root[X] = Root[Root[X]];
      X = Root[X];
    }
    return X;
  };
  for (size_t M = 0; M < NumMerges; ++M) {
    size_t Id = NumLeaves + M;
    Root[Find(Merges[M].Left)] = Id;
    Root[Find(Merges[M].Right)] = Id;
  }

  std::vector<size_t> Dense(NumLeaves);
  std::vector<size_t> SeenRoots;
  for (size_t Leaf = 0; Leaf < NumLeaves; ++Leaf) {
    size_t R = Find(Leaf);
    auto It = std::find(SeenRoots.begin(), SeenRoots.end(), R);
    if (It == SeenRoots.end()) {
      SeenRoots.push_back(R);
      Dense[Leaf] = SeenRoots.size() - 1;
    } else {
      Dense[Leaf] = static_cast<size_t>(It - SeenRoots.begin());
    }
  }
  return Dense;
}

std::vector<size_t> Dendrogram::cutToClusters(size_t K) const {
  assert(K >= 1 && K <= std::max<size_t>(NumLeaves, 1) &&
         "cluster count out of range");
  if (NumLeaves == 0)
    return {};
  size_t NumMerges = NumLeaves - K;
  return flatten(NumLeaves, Merges, NumMerges);
}

std::vector<size_t> Dendrogram::cutAtHeight(double Height) const {
  size_t NumMerges = 0;
  while (NumMerges < Merges.size() && Merges[NumMerges].Distance <= Height)
    ++NumMerges;
  return flatten(NumLeaves, Merges, NumMerges);
}

size_t Dendrogram::numClustersAtHeight(double Height) const {
  std::vector<size_t> Flat = cutAtHeight(Height);
  size_t Max = 0;
  for (size_t C : Flat)
    Max = std::max(Max, C + 1);
  return Max;
}

Dendrogram kast::clusterHierarchical(const Matrix &Distance, Linkage Link) {
  assert(Distance.rows() == Distance.cols() && "distance matrix not square");
  const size_t N = Distance.rows();
  std::vector<Merge> Merges;
  if (N < 2)
    return Dendrogram(N, std::move(Merges));

  // Active cluster slots; slot s holds cluster Ids[s] of size Sizes[s].
  std::vector<size_t> Ids(N);
  std::vector<size_t> Sizes(N, 1);
  for (size_t I = 0; I < N; ++I)
    Ids[I] = I;
  Matrix D = Distance;
  std::vector<char> Active(N, 1);

  // Row minima: Nearest[s] is the first active slot t > s at the
  // smallest distance from s, MinD[s] that distance with NaN read as
  // +inf. Nearest[s] == N when no active slot follows s or s retired.
  constexpr double Inf = std::numeric_limits<double>::infinity();
  std::vector<size_t> Nearest(N, N);
  std::vector<double> MinD(N, Inf);
  auto Rescan = [&](size_t S) {
    size_t T = S + 1;
    while (T < N && !Active[T])
      ++T;
    Nearest[S] = T;
    MinD[S] = Inf;
    if (T == N)
      return;
    const double *Row = &D.at(S, 0);
    MinD[S] = std::isnan(Row[T]) ? Inf : Row[T];
    for (++T; T < N; ++T)
      if (Active[T] && Row[T] < MinD[S]) {
        Nearest[S] = T;
        MinD[S] = Row[T];
      }
  };
  for (size_t I = 0; I + 1 < N; ++I)
    Rescan(I);

  for (size_t Step = 0; Step + 1 < N; ++Step) {
    // The smallest row minimum, first row on ties: the first pair in
    // (i, j) order at the smallest distance. With no finite pair left,
    // that is the first two active slots, at +inf.
    size_t BestI = N;
    for (size_t I = 0; I < N; ++I)
      if (Nearest[I] < N && (BestI == N || MinD[I] < MinD[BestI]))
        BestI = I;
    assert(BestI < N && "no active pair found");
    const size_t BestJ = Nearest[BestI];
    const double BestD = MinD[BestI];

    // Lance-Williams update into slot BestI; slot BestJ retires.
    for (size_t K = 0; K < N; ++K) {
      if (!Active[K] || K == BestI || K == BestJ)
        continue;
      double Dik = D.at(BestI, K);
      double Djk = D.at(BestJ, K);
      double NewD = 0.0;
      switch (Link) {
      case Linkage::Single:
        NewD = std::min(Dik, Djk);
        break;
      case Linkage::Complete:
        NewD = std::max(Dik, Djk);
        break;
      case Linkage::Average: {
        double Ni = static_cast<double>(Sizes[BestI]);
        double Nj = static_cast<double>(Sizes[BestJ]);
        NewD = (Ni * Dik + Nj * Djk) / (Ni + Nj);
        break;
      }
      }
      D.at(BestI, K) = NewD;
      D.at(K, BestI) = NewD;
    }

    Merges.push_back({Ids[BestI], Ids[BestJ], BestD,
                      Sizes[BestI] + Sizes[BestJ]});
    Ids[BestI] = N + Step;
    Sizes[BestI] += Sizes[BestJ];
    Active[BestJ] = 0;
    Nearest[BestJ] = N;

    // Only distances to BestI changed, and rows after BestJ never look
    // at either slot. A row whose nearest was in the pair rescans; an
    // earlier row adopts BestI when it is closer, or as close and
    // earlier than the row's nearest. A NaN adopts nothing, as +inf
    // would not: a row at +inf already points at its first active
    // successor, which BestI cannot precede.
    for (size_t K = 0; K < BestJ; ++K) {
      if (!Active[K] || K == BestI)
        continue;
      if (Nearest[K] == BestI || Nearest[K] == BestJ) {
        Rescan(K);
      } else if (K < BestI) {
        const double Dk = D.at(K, BestI);
        if (Dk < MinD[K] || (Dk == MinD[K] && BestI < Nearest[K])) {
          Nearest[K] = BestI;
          MinD[K] = Dk;
        }
      }
    }
    Rescan(BestI);
  }
  return Dendrogram(N, std::move(Merges));
}

Matrix kast::similarityToDistance(const Matrix &K) {
  assert(K.rows() == K.cols() && "similarity matrix not square");
  const size_t N = K.rows();
  Matrix D(N, N, 0.0);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      D.at(I, J) = I == J ? 0.0 : std::max(0.0, 1.0 - K.at(I, J));
  return D;
}

namespace {

/// Recursive sideways tree printer.
class DendrogramPrinter {
public:
  DendrogramPrinter(const Dendrogram &D,
                    const std::vector<std::string> &Labels)
      : D(D), Labels(Labels) {}

  std::string print() {
    if (D.numLeaves() == 0)
      return "(empty dendrogram)\n";
    size_t RootId = D.numLeaves() == 1
                        ? 0
                        : D.numLeaves() + D.merges().size() - 1;
    std::string Out;
    emit(RootId, "", "", Out);
    return Out;
  }

private:
  void emit(size_t Id, const std::string &Prefix,
            const std::string &Branch, std::string &Out) {
    if (Id < D.numLeaves()) {
      Out += Prefix + Branch +
             (Id < Labels.size() ? Labels[Id]
                                 : "#" + std::to_string(Id)) +
             "\n";
      return;
    }
    const Merge &M = D.merges()[Id - D.numLeaves()];
    Out += Prefix + Branch + "(d=" + formatDouble(M.Distance) + ")\n";
    std::string ChildPrefix = Prefix;
    if (!Branch.empty())
      ChildPrefix += Branch == "`-" ? "  " : "| ";
    emit(M.Left, ChildPrefix, "|-", Out);
    emit(M.Right, ChildPrefix, "`-", Out);
  }

  const Dendrogram &D;
  const std::vector<std::string> &Labels;
};

} // namespace

std::string
kast::renderDendrogramAscii(const Dendrogram &D,
                            const std::vector<std::string> &Labels) {
  DendrogramPrinter Printer(D, Labels);
  return Printer.print();
}
