//===- tests/PsdPropertyTest.cpp - PSD properties of the Gram matrices -----===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The PSD facts that motivate the paper's §4.1 repair step:
/// explicit-embedding kernels (spectrum family, gap-weighted) always
/// yield PSD Gram matrices, whereas the Kast kernel's *pair-dependent*
/// feature set gives up that guarantee — which is exactly why the paper
/// clips negative eigenvalues.
///
//===----------------------------------------------------------------------===//

#include "core/KastKernel.h"
#include "core/KernelMatrix.h"
#include "core/StringSerializer.h"
#include "kernels/GapWeightedKernel.h"
#include "kernels/SpectrumKernels.h"
#include "linalg/Eigen.h"
#include "util/Rng.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace kast;

namespace {

WeightedString fromText(const std::shared_ptr<TokenTable> &Table,
                        const std::string &Text) {
  return parseWeightedString(Text, Table).take();
}

/// Random corpus of short weighted strings over a small alphabet.
std::vector<WeightedString>
randomCorpus(const std::shared_ptr<TokenTable> &Table, Rng &R,
             size_t Count, size_t MaxLength) {
  std::vector<WeightedString> Out;
  for (size_t I = 0; I < Count; ++I) {
    WeightedString S(Table, "s" + std::to_string(I));
    size_t Length = R.uniformInt(1, MaxLength);
    for (size_t T = 0; T < Length; ++T)
      S.append("t" + std::to_string(R.uniformInt(0, 4)),
               R.uniformInt(1, 8));
    Out.push_back(std::move(S));
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// PSD properties — why §4.1 needs the repair step
//===----------------------------------------------------------------------===//

class PsdPropertySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PsdPropertySweep, ExplicitEmbeddingKernelsArePsd) {
  Rng R(GetParam());
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 12, 15);

  const BlendedSpectrumKernel Blended(3, 0.8);
  const KSpectrumKernel KSpec(2);
  const GapWeightedKernel Gap(2, 0.5);
  for (const StringKernel *Kernel :
       std::initializer_list<const StringKernel *>{&Blended, &KSpec,
                                                   &Gap}) {
    KernelMatrixOptions Options;
    Options.Normalize = false;
    Matrix K = computeKernelMatrix(*Kernel, Corpus, Options);
    EXPECT_GE(eigenSymmetric(K, 0).Values.back(), -1e-8) << Kernel->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PsdPropertySweep,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(PsdPropertyTest, KastKernelCanBeIndefinite) {
  // The Kast kernel's feature set depends on the PAIR being compared
  // (maximal matches of A vs B), so the Gram matrix need not be PSD —
  // the reason the paper rebuilds matrices after clipping negative
  // eigenvalues (§4.1). Witness: self-similarities are weight^2 while
  // cross-similarities can exceed the corresponding products when
  // repeated substrings accumulate weight across occurrences.
  // Witness: s0 = aaaa (weight 9 each) + filler. Against s1 = aa +
  // filler, the shared substring "a a" occurs three times in s0 with
  // *overlapping* occurrences, so f_{aa}(s0) = 54 exceeds s0's total
  // weight contribution to the self-kernel: k(s0,s1) = 54 * 18 = 972
  // while sqrt(k(s0,s0) k(s1,s1)) = 37 * 19 = 703.
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = {
      fromText(Table, "a:9 a:9 a:9 a:9 x:1"),
      fromText(Table, "a:9 a:9 y:1"),
  };
  KastSpectrumKernel Kernel({/*CutWeight=*/2});
  KernelMatrixOptions Options;
  Options.Normalize = false;
  Matrix K = computeKernelMatrix(Kernel, Corpus, Options);
  EXPECT_DOUBLE_EQ(K.at(0, 0), 37.0 * 37.0);
  EXPECT_DOUBLE_EQ(K.at(1, 1), 19.0 * 19.0);
  EXPECT_DOUBLE_EQ(K.at(0, 1), 54.0 * 18.0);
  EXPECT_GT(K.at(0, 1),
            std::sqrt(K.at(0, 0)) * std::sqrt(K.at(1, 1)));
  EXPECT_LT(eigenSymmetric(K, 0).Values.back(), -1e-6);
  // And the §4.1 repair fixes it.
  EXPECT_GE(eigenSymmetric(projectToPsd(K), 0).Values.back(), -1e-8);
}
