//===- tests/IngestAllocTest.cpp - ingest allocation budget ----------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The ingest path (parseTrace -> buildTree -> compressTree ->
// flattenTree) allocates a bounded number of times per trace, not per
// event, and so does parseStrace; Pipeline::convert allocates as often
// for a long trace as for a short one. A counting operator new checks it;
// replacing operator new is process-wide, which is why this test is its
// own binary.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "core/TreeFlattener.h"
#include "trace/StraceAdapter.h"
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

// Every buffer convert() fills is sized once from a count, so with a
// warm token table a trace and its events repeated 4 and 16 times
// allocate equally often; a buffer that grew by doubling would
// allocate more for each longer trace.
TEST(IngestAllocTest, ConvertAllocationsDoNotGrowWithTheTrace) {
  Rng R(32);
  const Trace Base = generateParallelTrace(Category::FlashIO, 2, R);
  Pipeline P;
  std::vector<size_t> Counts;
  for (size_t Copies : {1, 4, 16}) {
    Trace T(Base.name());
    for (size_t C = 0; C < Copies; ++C)
      for (const TraceEvent &E : Base.events())
        T.append(E);
    P.convert(T); // Interns every literal, so the table stops growing.

    Allocations = 0;
    Counting = true;
    WeightedString S = P.convert(T);
    Counting = false;
    Counts.push_back(Allocations);
  }
  EXPECT_EQ(Counts[1], Counts[0]) << Base.size() << " events, 4 copies";
  EXPECT_EQ(Counts[2], Counts[0]) << Base.size() << " events, 16 copies";
}

namespace {
/// \p T as `strace -f` prints it: a PID column per rank, the I/O calls
/// of the trace's own events, and an mmap line every eighth event that
/// parseStrace skips.
std::string straceText(const Trace &T) {
  std::string Out;
  for (size_t I = 0; I < T.size(); ++I) {
    const TraceEvent &E = T.events()[I];
    const std::string Pid = std::to_string(4000 + E.Handle / 1000) + " ";
    const std::string Fd = std::to_string(E.Handle);
    const std::string Bytes = std::to_string(E.Bytes);
    if (I % 8 == 0)
      Out += Pid + "mmap(NULL, 4096, PROT_READ, MAP_PRIVATE, -1, 0) = 0x7f\n";
    if (E.Op == "open")
      Out += Pid + "openat(AT_FDCWD, \"f\", O_RDWR) = " + Fd + "\n";
    else if (E.Op == "read" || E.Op == "write")
      Out += Pid + E.Op + "(" + Fd + ", \"\\0\"..., " + Bytes + ") = " + Bytes +
             "\n";
    else if (E.Op == "lseek")
      Out += Pid + "lseek(" + Fd + ", 0, SEEK_SET) = 0\n";
    else
      Out += Pid + E.Op + "(" + Fd + ") = 0\n";
  }
  return Out;
}
} // namespace

// One allocation per log, the event vector, however many lines it has.
TEST(IngestAllocTest, StraceParseAllocatesOncePerLog) {
  Rng R(32);
  for (Category C : {Category::FlashIO, Category::RandomPosix,
                     Category::NormalIO, Category::RandomAccess}) {
    const Trace Generated = generateParallelTrace(C, 32, R);
    const std::string Text = straceText(Generated);
    std::string Name = categoryName(C);

    Allocations = 0;
    Counting = true;
    Expected<Trace> T = parseStrace(Text, std::move(Name));
    Counting = false;

    ASSERT_TRUE(T.hasValue()) << T.message();
    ASSERT_EQ(T->size(), Generated.size());
    EXPECT_EQ(Allocations, 1u) << categoryName(C) << ": " << T->size()
                               << " events";
  }
}
