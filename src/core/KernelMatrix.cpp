//===- core/KernelMatrix.cpp - Gram matrix construction --------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/KernelMatrix.h"
#include "linalg/Eigen.h"
#include "util/SimdDot.h"
#include "util/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace kast;

GramPair kast::invertTrianglePairIndex(size_t P, size_t N) {
  assert(N >= 2 && P < N * (N - 1) / 2 && "pair index out of range");
  // rowStart(i) = i*(2N - i - 1)/2; the largest i with
  // rowStart(i) <= p solves i² - (2N-1)i + 2p = 0. The float root can
  // be off by one, so nudge it exact.
  auto RowStart = [N](size_t I) { return I * (2 * N - I - 1) / 2; };
  double Disc =
      (2.0 * N - 1.0) * (2.0 * N - 1.0) - 8.0 * static_cast<double>(P);
  size_t I = static_cast<size_t>(
      (2.0 * N - 1.0 - std::sqrt(Disc > 0.0 ? Disc : 0.0)) / 2.0);
  if (I >= N - 1)
    I = N - 2;
  while (I > 0 && RowStart(I) > P)
    --I;
  while (I + 1 < N - 1 && RowStart(I + 1) <= P)
    ++I;
  return {I, I + 1 + (P - RowStart(I))};
}

GramPair kast::invertAppendPairIndex(size_t P, size_t OldN) {
  // New row OldN + R pairs with every earlier string (old and new), so
  // its pairs start at offset(R) = R*OldN + R(R-1)/2. The largest R
  // with offset(R) <= p solves R² + (2*OldN - 1)R - 2p = 0; same
  // float-root nudge as above.
  auto Offset = [OldN](size_t R) { return R * OldN + R * (R - 1) / 2; };
  double B = 2.0 * static_cast<double>(OldN) - 1.0;
  double Root =
      (std::sqrt(B * B + 8.0 * static_cast<double>(P)) - B) / 2.0;
  size_t R = Root > 0.0 ? static_cast<size_t>(Root) : 0;
  while (R > 0 && Offset(R) > P)
    --R;
  while (Offset(R + 1) <= P)
    ++R;
  return {OldN + R, P - Offset(R)};
}

KernelMatrix::KernelMatrix(const StringKernel &Kernel,
                           KernelMatrixOptions Options)
    : Kernel(Kernel), Options(Options) {
  // Profiled kernels get the arena-backed tiled path; their per-string
  // state is a flat sparse vector, which the store lays out as
  // structure-of-arrays for the whole corpus. (The fast path dots
  // views directly — the documented ProfiledStringKernel contract that
  // k(A, B) is the plain merge-join dot of the two profiles, the same
  // assumption index/IndexService retrieval already makes.)
  if (!Options.UsePrecompute)
    return;
  Profiled = dynamic_cast<const ProfiledStringKernel *>(&Kernel);
  // The Kast kernel's candidates depend only on literal ids, so its
  // fill works per group of rows that share a sequence.
  const auto *K = dynamic_cast<const KastSpectrumKernel *>(&Kernel);
  if (K && !K->options().UseReferenceMatcher)
    Kast.emplace(std::vector{K->options().CutWeight}, K->options().Policy);
}

/// Row-tile edge for the cache-blocked fill: tile pairs of up to
/// 64×64 view dots reuse each loaded hash array ~64 times while it is
/// cache-resident, and one tile pair is a chunky enough work item for
/// the pool's atomic-counter scheduling.
static constexpr size_t GramTileRows = 64;

/// Cache-blocked fill of the entries the new rows introduce: every
/// (I, J) with I < J and J >= OldN, visited tile-by-tile. Row tiles
/// cover [0, N), column tiles only the new rows [OldN, N); each tile
/// pair is one parallel work item, and each (I, J) belongs to exactly
/// one tile pair, so writes never race.
void KernelMatrix::fillTiled(size_t OldN, size_t N) {
  const size_t RowTiles = (N + GramTileRows - 1) / GramTileRows;
  const size_t ColTiles = (N - OldN + GramTileRows - 1) / GramTileRows;
  parallelFor(
      RowTiles * ColTiles,
      [&](size_t T) {
        const size_t IBegin = (T / ColTiles) * GramTileRows;
        const size_t IEnd = std::min(N, IBegin + GramTileRows);
        const size_t JBegin = OldN + (T % ColTiles) * GramTileRows;
        const size_t JEnd = std::min(N, JBegin + GramTileRows);
        if (IBegin + 1 >= JEnd)
          return; // Entirely on or below the diagonal.
        // Row I plays the one-vs-many query: its probe table is built
        // once and amortized over the tile's column dots. Bit-identical
        // to the pairwise merge-join dot (simd::ExactScan's contract),
        // so the Gram's reproducibility guarantee is untouched.
        simd::ExactScan Scan;
        for (size_t I = IBegin; I < IEnd; ++I) {
          const ProfileView Vi = Store.view(I);
          Scan.assign(Vi.Hashes, Vi.Values, Vi.Size);
          for (size_t J = std::max(JBegin, I + 1); J < JEnd; ++J) {
            const ProfileView Vj = Store.view(J);
            double V = Scan.dot(Vj.Hashes, Vj.Values, Vj.Size);
            Raw.at(I, J) = V;
            Raw.at(J, I) = V;
          }
        }
      },
      Options.Threads);
}

/// The opaque-handle fill: evaluatePrepared over the flattened pair
/// index space (the path of combinators, plain pairwise kernels and
/// the UsePrecompute=off differential baselines).
void KernelMatrix::fillPrepared(size_t OldN, size_t N) {
  auto Fill = [&](size_t I, size_t J) {
    double V = Kernel.evaluatePrepared(Strings[I], Prep[I].get(), Strings[J],
                                       Prep[J].get());
    Raw.at(I, J) = V;
    Raw.at(J, I) = V;
  };
  // The initial build (OldN == 0) is the plain strict upper triangle
  // and keeps the seed's flattened enumeration order.
  if (OldN == 0) {
    const size_t NumPairs = N < 2 ? 0 : N * (N - 1) / 2;
    parallelFor(
        NumPairs,
        [&](size_t P) {
          GramPair Pair = invertTrianglePairIndex(P, N);
          Fill(Pair.I, Pair.J);
        },
        Options.Threads);
  } else {
    const size_t M = N - OldN;
    const size_t NumNewPairs = OldN * M + M * (M - 1) / 2;
    parallelFor(
        NumNewPairs,
        [&](size_t P) {
          GramPair Pair = invertAppendPairIndex(P, OldN);
          Fill(Pair.I, Pair.J);
        },
        Options.Threads);
  }
}

void KernelMatrix::appendRows(const std::vector<WeightedString> &NewStrings) {
  const size_t OldN = Strings.size();
  const size_t M = NewStrings.size();
  if (M == 0)
    return;
  const size_t N = OldN + M;

  Strings.insert(Strings.end(), NewStrings.begin(), NewStrings.end());

  // Per-string state for the new rows only, amortized across every
  // pair each new string participates in. Profiled kernels stage their
  // profiles in parallel, then append them to the arena (a flat copy);
  // the Kast fill builds its per-group state itself; other kernels
  // keep opaque handles (plain kernels nullptr at zero cost). The old
  // rows keep the state built when they were appended.
  if (UseStore()) {
    std::vector<KernelProfile> Staged(M);
    parallelFor(
        M,
        [&](size_t I) { Staged[I] = Profiled->profile(Strings[OldN + I]); },
        Options.Threads);
    Store.appendAll(Staged);
  } else if (!Kast) {
    Prep.resize(N);
    if (Options.UsePrecompute)
      parallelFor(
          M,
          [&](size_t I) {
            Prep[OldN + I] = Kernel.precompute(Strings[OldN + I]);
          },
          Options.Threads);
  }

  // Grow the raw matrix by copying the existing block row-wise — a
  // memory move, never a kernel re-evaluation.
  Matrix Grown(N, N, 0.0);
  for (size_t I = 0; I < OldN; ++I)
    std::copy(Raw.data().begin() + static_cast<ptrdiff_t>(I * OldN),
              Raw.data().begin() + static_cast<ptrdiff_t>((I + 1) * OldN),
              Grown.data().begin() + static_cast<ptrdiff_t>(I * N));
  Raw = std::move(Grown);

  // The Kast fill writes every entry the new rows introduce, diagonal
  // included, in one pass over group pairs.
  Diag.resize(N, 0.0);
  if (Kast) {
    Kast->appendRows(Strings, std::span(&Raw, 1), Options.Threads);
    for (size_t Row = OldN; Row < N; ++Row)
      Diag[Row] = Raw.at(Row, Row);
    return;
  }

  // New diagonal entries; needed for normalization anyway. The store
  // caches every profile's self-dot at append (bit-identical to the
  // merge-join dot of the profile with itself).
  if (UseStore()) {
    for (size_t Row = OldN; Row < N; ++Row) {
      Diag[Row] = Store.selfDot(Row);
      Raw.at(Row, Row) = Diag[Row];
    }
  } else {
    parallelFor(
        M,
        [&](size_t I) {
          const size_t Row = OldN + I;
          Diag[Row] = Kernel.evaluatePrepared(Strings[Row], Prep[Row].get(),
                                              Strings[Row], Prep[Row].get());
          Raw.at(Row, Row) = Diag[Row];
        },
        Options.Threads);
  }

  // The entries the new strings introduce: the OldN × M rectangle plus
  // the M(M-1)/2 new-pair triangle.
  if (UseStore())
    fillTiled(OldN, N);
  else
    fillPrepared(OldN, N);
}

/// \p K with \p Options' post-processing applied: cosine normalization
/// by its diagonal (zero-self-kernel rows get zero off-diagonals and an
/// exact unit diagonal) and PSD repair.
static Matrix postProcess(Matrix K, const KernelMatrixOptions &Options) {
  const size_t N = K.rows();
  if (Options.Normalize) {
    std::vector<double> Diag(N);
    for (size_t I = 0; I < N; ++I)
      Diag[I] = K.at(I, I);
    parallelFor(
        N,
        [&](size_t I) {
          for (size_t J = 0; J < N; ++J) {
            if (I == J)
              continue;
            double D = Diag[I] * Diag[J];
            K.at(I, J) = D > 0.0 ? K.at(I, J) / std::sqrt(D) : 0.0;
          }
          K.at(I, I) = 1.0;
        },
        Options.Threads);
  }

  if (Options.RepairPsd && N > 0)
    K = projectToPsdIfNeeded(K);
  return K;
}

Matrix KernelMatrix::materialize() const { return postProcess(Raw, Options); }

Matrix kast::computeKernelMatrix(const StringKernel &Kernel,
                                 const std::vector<WeightedString> &Strings,
                                 const KernelMatrixOptions &Options) {
  KernelMatrix Gram(Kernel, Options);
  Gram.appendRows(Strings);
  return Gram.materialize();
}

std::vector<Matrix> kast::computeKastGrams(
    const std::vector<WeightedString> &Strings, std::span<const uint64_t> Cuts,
    CutPolicy Policy, const KernelMatrixOptions &Options) {
  const size_t N = Strings.size();
  std::vector<Matrix> Grams(Cuts.size(), Matrix(N, N, 0.0));
  KastGramGroups({Cuts.begin(), Cuts.end()}, Policy)
      .appendRows(Strings, Grams, Options.Threads);
  for (Matrix &K : Grams)
    K = postProcess(std::move(K), Options);
  return Grams;
}
