//===- tests/KastGramAllocTest.cpp - Kast Gram allocation budget -----------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The grouped Kast Gram allocates per group (its automaton and
// precomputation) and per worker (the scratch buffers the worker reuses
// across its group pairs), not per group pair. A counting operator new
// checks it on the paper corpus; replacing operator new is process-wide,
// which is why this test is its own binary.
//
//===----------------------------------------------------------------------===//

#include "core/KastKernel.h"
#include "core/KernelMatrix.h"
#include "core/Pipeline.h"
#include "workloads/DatasetBuilder.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <set>

namespace {
bool Counting = false;
size_t Allocations = 0;
} // namespace

void *operator new(size_t Size) {
  if (Counting)
    ++Allocations;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }

using namespace kast;

// Table 1's corpus with bytes: 110 rows in 63 literal sequences, so
// 2,016 group pairs. When scoring a group pair allocated its own
// buffers, appendRows allocated 62,572 times here; it now allocates
// 1,501 times: for each group's automaton, for the rows KernelMatrix
// copies, and a few times per buffer while the one worker's buffers
// grow.
TEST(KastGramAllocTest, AllocatesPerGroupNotPerGroupPair) {
  const LabeledDataset Data =
      convertCorpus(Pipeline::withBytes(), generateCorpus());
  const std::vector<WeightedString> &Strings = Data.strings();
  std::set<std::vector<uint32_t>> Sequences;
  for (const WeightedString &S : Strings)
    Sequences.insert(S.literalIds());
  const size_t Groups = Sequences.size();
  ASSERT_EQ(Strings.size(), 110u);
  ASSERT_EQ(Groups, 63u);

  KastSpectrumKernel Kernel({/*CutWeight=*/2});
  KernelMatrixOptions Options;
  Options.Threads = 1;
  KernelMatrix Gram(Kernel, Options);
  Allocations = 0;
  Counting = true;
  Gram.appendRows(Strings);
  Counting = false;

  const size_t Pairs = Groups * (Groups + 1) / 2;
  EXPECT_LT(Allocations, 30 * Groups + 4 * Strings.size())
      << Groups << " groups, " << Pairs << " group pairs";
}
