//===- core/StringKernel.cpp - Kernel function interface -------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/StringKernel.h"

#include <cassert>
#include <cmath>

using namespace kast;

StringKernel::~StringKernel() = default;

double StringKernel::evaluateNormalized(const WeightedString &A,
                                        const WeightedString &B) const {
  double Kab = evaluate(A, B);
  double Kaa = evaluate(A, A);
  double Kbb = evaluate(B, B);
  if (Kaa <= 0.0 || Kbb <= 0.0)
    return 0.0;
  return Kab / std::sqrt(Kaa * Kbb);
}

double ProfiledStringKernel::evaluate(const WeightedString &A,
                                      const WeightedString &B) const {
  assert((A.empty() || B.empty() || A.table().get() == B.table().get()) &&
         "kernel arguments must share one token table");
  return profile(A).dot(profile(B));
}
