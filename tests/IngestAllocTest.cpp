//===- tests/IngestAllocTest.cpp - ingest allocation budget ----------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The ingest path (parseTrace -> buildTree -> compressTree ->
// flattenTree) allocates a bounded number of times per trace, not per
// event. A counting operator new checks it; replacing operator new is
// process-wide, which is why this test is its own binary.
//
//===----------------------------------------------------------------------===//

#include "core/TreeFlattener.h"
#include "trace/TraceParser.h"
#include "trace/TraceWriter.h"
#include "tree/TreeBuilder.h"
#include "tree/TreeCompressor.h"
#include "workloads/ParallelTrace.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

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

// A 32-rank run of each category is 2.3k-6.3k events. Before the
// ingest path used arenas it allocated 7.2-7.5 times per event.
TEST(IngestAllocTest, UnderOneAllocationPerTenEvents) {
  Rng R(32);
  for (Category C : {Category::FlashIO, Category::RandomPosix,
                     Category::NormalIO, Category::RandomAccess}) {
    const std::string Text = formatTrace(generateParallelTrace(C, 32, R));
    auto Table = TokenTable::create();
    size_t Stage[4];

    Allocations = 0;
    Counting = true;
    Expected<Trace> T = parseTrace(Text, categoryName(C));
    Stage[0] = Allocations;
    PatternTree Tree = buildTree(*T);
    Stage[1] = Allocations;
    compressTree(Tree);
    Stage[2] = Allocations;
    WeightedString S = flattenTree(Tree, Table);
    Stage[3] = Allocations;
    Counting = false;

    ASSERT_TRUE(T.hasValue()) << T.message();
    ASSERT_GT(T->size(), 2000u);
    const double PerEvent =
        static_cast<double>(Allocations) / static_cast<double>(T->size());
    EXPECT_LT(PerEvent, 0.1)
        << categoryName(C) << ": " << T->size() << " events; parse "
        << Stage[0] << ", build " << Stage[1] - Stage[0] << ", compress "
        << Stage[2] - Stage[1] << ", flatten " << Stage[3] - Stage[2]
        << " allocations";
  }
}
