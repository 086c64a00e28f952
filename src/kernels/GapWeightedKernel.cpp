//===- kernels/GapWeightedKernel.cpp - Gap-weighted subsequences -----------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "kernels/GapWeightedKernel.h"

#include <cassert>
#include <vector>

using namespace kast;

GapWeightedKernel::GapWeightedKernel(size_t P, double Lambda)
    : P(P), Lambda(Lambda) {
  assert(P >= 1 && "subsequence length must be positive");
  assert(Lambda > 0.0 && Lambda <= 1.0 && "lambda must be in (0, 1]");
}

std::string GapWeightedKernel::name() const {
  return "gap-weighted(p=" + std::to_string(P) + ")";
}

double GapWeightedKernel::evaluate(const WeightedString &A,
                                   const WeightedString &B) const {
  const std::vector<uint32_t> &S = A.literalIds();
  const std::vector<uint32_t> &T = B.literalIds();
  const size_t N = S.size(), M = T.size();
  if (N < P || M < P)
    return 0.0;

  // Lodhi et al. (2002) O(p n m) recursion. KPrime holds
  // K'_{l}(s[..i], t[..j]); level 0 is the all-ones table. For each
  // level:
  //   K''_l(i, j) = lambda K''_l(i, j-1)
  //               + [s_i == t_j] lambda^2 K'_{l-1}(i-1, j-1)
  //   K'_l(i, j)  = lambda K'_l(i-1, j) + K''_l(i, j)
  // and finally
  //   K_p = sum over matches (i, j) of lambda^2 K'_{p-1}(i-1, j-1).
  const double L = Lambda;
  const double L2 = L * L;
  const size_t Stride = M + 1;

  std::vector<double> KPrime((N + 1) * Stride, 1.0);
  std::vector<double> KNext((N + 1) * Stride, 0.0);
  std::vector<double> Kpp(Stride, 0.0); // One row, rolled over i.

  for (size_t Level = 1; Level < P; ++Level) {
    std::fill(KNext.begin(), KNext.end(), 0.0);
    for (size_t I = 1; I <= N; ++I) {
      std::fill(Kpp.begin(), Kpp.end(), 0.0);
      for (size_t J = 1; J <= M; ++J) {
        double Match = S[I - 1] == T[J - 1]
                           ? L2 * KPrime[(I - 1) * Stride + (J - 1)]
                           : 0.0;
        Kpp[J] = L * Kpp[J - 1] + Match;
        KNext[I * Stride + J] =
            L * KNext[(I - 1) * Stride + J] + Kpp[J];
      }
    }
    std::swap(KPrime, KNext);
    // Zero the borders that level-0 initialization left at 1: for
    // l >= 1, K'_l is 0 whenever i or j is 0 — already true because
    // KNext rows/columns 0 stay 0 through the recursion.
  }

  double Result = 0.0;
  for (size_t I = 1; I <= N; ++I)
    for (size_t J = 1; J <= M; ++J)
      if (S[I - 1] == T[J - 1])
        Result += L2 * KPrime[(I - 1) * Stride + (J - 1)];
  return Result;
}
