//===- tests/ProfileIndexTest.cpp - profile cache and retrieval ------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The retrieval subsystem's contracts: ProfileIndex queries agree with
// the Gram-matrix ground truth produced by computeKernelMatrix over the
// same kernel, and an index saved as a flat image (core/FlatImage)
// reloads bit-exactly (hashes, value bit patterns, and therefore every
// dot product) — also when saved back over the image it was loaded
// from.
//
//===----------------------------------------------------------------------===//

#include "core/KernelMatrix.h"
#include "core/FlatImage.h"
#include "index/IndexService.h"
#include "index/ProfileIndex.h"
#include "kernels/SpectrumKernels.h"
#include "util/Rng.h"
#include "workloads/DatasetBuilder.h"

#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <fstream>
#include <iterator>

using namespace kast;

namespace {

WeightedString randomString(const std::shared_ptr<TokenTable> &Table,
                            Rng &R, size_t Length, uint32_t Alphabet) {
  WeightedString S(Table);
  for (size_t I = 0; I < Length; ++I)
    S.append("t" + std::to_string(R.uniformInt(0, Alphabet - 1)),
             R.uniformInt(1, 16));
  return S;
}

std::vector<WeightedString>
randomCorpus(const std::shared_ptr<TokenTable> &Table, Rng &R, size_t N,
             const std::string &Prefix) {
  std::vector<WeightedString> Corpus;
  for (size_t I = 0; I < N; ++I) {
    WeightedString S = randomString(Table, R, R.uniformInt(1, 32), 6);
    S.setName(Prefix + std::to_string(I));
    Corpus.push_back(std::move(S));
  }
  return Corpus;
}

void expectBitExact(const KernelProfile &A, const KernelProfile &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A.entries()[I].Hash, B.entries()[I].Hash);
    EXPECT_EQ(std::bit_cast<uint64_t>(A.entries()[I].Value),
              std::bit_cast<uint64_t>(B.entries()[I].Value))
        << "entry " << I;
  }
}

//===----------------------------------------------------------------------===//
// ProfileIndex: queries, determinism, Gram ground truth
//===----------------------------------------------------------------------===//

TEST(ProfileIndexTest, TopKOrderingAndTieBreaks) {
  ProfileIndex Index("test");
  auto MakeProfile = [](std::vector<ProfileEntry> Entries) {
    KernelProfile P;
    for (const ProfileEntry &E : Entries)
      P.add(E.Hash, E.Value);
    P.finalize();
    return P;
  };
  // Entries 0 and 2 are identical (tie); entry 1 is orthogonal.
  Index.add("e0", "x", MakeProfile({{1, 1.0}}));
  Index.add("e1", "y", MakeProfile({{2, 1.0}}));
  Index.add("e2", "x", MakeProfile({{1, 1.0}}));

  KernelProfile Query = MakeProfile({{1, 2.0}});
  std::vector<Neighbor> Hits = Index.query(Query, 2);
  ASSERT_EQ(Hits.size(), 2u);
  EXPECT_EQ(Hits[0].Index, 0u); // Tie with 2 breaks toward smaller index.
  EXPECT_EQ(Hits[1].Index, 2u);
  EXPECT_DOUBLE_EQ(Hits[0].Similarity, 1.0); // Cosine.
  EXPECT_EQ(Index.majorityLabel(Hits), "x");

  // K beyond size clamps; orthogonal entry scores zero.
  Hits = Index.query(Query, 10);
  ASSERT_EQ(Hits.size(), 3u);
  EXPECT_EQ(Hits[2].Index, 1u);
  EXPECT_DOUBLE_EQ(Hits[2].Similarity, 0.0);

  // Raw (unnormalized) dot keeps magnitudes.
  Hits = Index.query(Query, 1, /*Normalize=*/false);
  EXPECT_DOUBLE_EQ(Hits[0].Similarity, 2.0);

  // An empty query has vanishing norm: all cosine scores are zero.
  Hits = Index.query(KernelProfile(), 1);
  ASSERT_EQ(Hits.size(), 1u);
  EXPECT_DOUBLE_EQ(Hits[0].Similarity, 0.0);

  // Bounded selection at its edges, through every entry point. Copies
  // of e0 make the tie at cosine 1 wider than K, and exhaustive routing
  // covers only the first five entries, so the ties straddle the
  // routed prefix and the unrouted tail.
  for (int I = 3; I < 5; ++I)
    Index.add("e" + std::to_string(I), "x", MakeProfile({{1, 1.0}}));
  Index.buildRouting({}, 1);
  for (int I = 5; I < 8; ++I)
    Index.add("e" + std::to_string(I), "x", MakeProfile({{1, 1.0}}));
  Index.add("e8", "y", MakeProfile({{3, 1.0}}));
  ASSERT_EQ(Index.routedCount(), 5u);
  const size_t Live = Index.size();
  const std::vector<size_t> TiesFirst = {0, 2, 3, 4, 5, 6, 7, 1, 8};
  const KernelProfile Alien = MakeProfile({{9, 1.0}}); // Shares nothing.
  const KernelProfile *Probes[] = {&Query, &Alien};
  for (size_t K : {size_t(0), size_t(1), size_t(3), Live, Live + 3}) {
    for (const KernelProfile *Q : Probes) {
      const std::vector<Neighbor> Exact = Index.query(*Q, K);
      ASSERT_EQ(Exact.size(), std::min(K, Live)) << "k " << K;
      for (size_t R = 0; R < Exact.size(); ++R) {
        // The alien query scores +0.0 everywhere: pure position order.
        EXPECT_EQ(Exact[R].Index, Q == &Query ? TiesFirst[R] : R);
        if (Q == &Alien) {
          EXPECT_EQ(std::bit_cast<uint64_t>(Exact[R].Similarity), 0u);
        }
      }
      EXPECT_EQ(Index.queryApprox(*Q, K), Exact) << "k " << K;
      for (bool Approx : {false, true})
        EXPECT_EQ(Index.queryBatch({*Q, *Q}, K, true, 2, Approx),
                  std::vector<std::vector<Neighbor>>(2, Exact))
            << "k " << K;
    }
  }
}

TEST(ProfileIndexTest, MajorityLabelCountsAndTieBreaks) {
  // Regression for the O(k²) rescan-per-neighbor counting: the single
  // pass must keep both halves of the documented contract — highest
  // total count wins, and a count *tie* goes to the label whose first
  // occurrence is nearest.
  ProfileIndex Index("test");
  KernelProfile P;
  P.add(1, 1.0);
  P.finalize();
  // Entry i gets label Labels[i]; similarities are irrelevant to the
  // vote, so synthetic Neighbor lists stand in for query results.
  for (const char *Label : {"y", "x", "x", "y", "z"})
    Index.add("e", Label, P);

  // Adversarial tie: y and x both total 2, y's first occurrence is
  // the nearest neighbor → y wins even though x reaches count 2 first
  // during an incremental scan.
  EXPECT_EQ(Index.majorityLabel({{0, 0.9}, {1, 0.8}, {2, 0.7}, {3, 0.6}}),
            "y");
  // Strict majority displaces a nearer singleton: x twice beats y once.
  EXPECT_EQ(Index.majorityLabel({{3, 0.9}, {1, 0.8}, {2, 0.7}}), "x");
  // Duplicate labels scattered among others still aggregate.
  EXPECT_EQ(Index.majorityLabel({{4, 0.9}, {0, 0.8}, {1, 0.7}, {3, 0.6}}),
            "y");
  // Single neighbor and empty list edge cases.
  EXPECT_EQ(Index.majorityLabel({{2, 0.5}}), "x");
  EXPECT_EQ(Index.majorityLabel({}), "");
}

TEST(ProfileIndexTest, EdgeCasesReturnCleanly) {
  KernelProfile P;
  P.add(3, 1.0);
  P.finalize();

  // Querying an empty index: no hits, no crash, for both entry points.
  ProfileIndex Empty("k");
  EXPECT_TRUE(Empty.query(P, 3).empty());
  EXPECT_TRUE(Empty.query(P, 0).empty());
  std::vector<std::vector<Neighbor>> Batch =
      Empty.queryBatch({P, KernelProfile()}, 3, true, 1);
  ASSERT_EQ(Batch.size(), 2u);
  EXPECT_TRUE(Batch[0].empty());
  EXPECT_TRUE(Batch[1].empty());
  EXPECT_EQ(Empty.majorityLabel({}), "");

  ProfileIndex Index("k");
  Index.add("a", "x", P);
  Index.add("b", "y", P);

  // k == 0 is an explicit no-op, not a caller-discipline assumption.
  EXPECT_TRUE(Index.query(P, 0).empty());
  for (const std::vector<Neighbor> &Hits :
       Index.queryBatch({P, P}, 0, true, 1))
    EXPECT_TRUE(Hits.empty());

  // k beyond size() clamps to size().
  EXPECT_EQ(Index.query(P, 100).size(), 2u);
  EXPECT_EQ(Index.queryBatch({P}, 100, true, 1)[0].size(), 2u);
}

TEST(ProfileIndexTest, AgreesWithGramMatrixGroundTruth) {
  Rng R(60601);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 20, "c");
  BlendedSpectrumKernel Kernel(3, 1.0, /*Weighted=*/true, /*CutWeight=*/2);

  ProfileIndex Index = ProfileIndex::build(Kernel, Corpus, {}, /*Threads=*/1);
  ASSERT_EQ(Index.size(), Corpus.size());
  EXPECT_EQ(Index.kernelName(), Kernel.name());

  KernelMatrixOptions Options;
  Options.Threads = 1;
  Matrix K = computeKernelMatrix(Kernel, Corpus, Options);

  for (size_t I = 0; I < Corpus.size(); ++I) {
    std::vector<Neighbor> Hits = Index.query(Index.profile(I), 2);
    ASSERT_EQ(Hits.size(), 2u);
    // Top hit is the string itself at cosine 1.
    EXPECT_EQ(Hits[0].Index, I);
    EXPECT_NEAR(Hits[0].Similarity, 1.0, 1e-12);
    // Runner-up matches the normalized Gram row's best off-diagonal.
    size_t Best = I == 0 ? 1 : 0;
    for (size_t J = 0; J < Corpus.size(); ++J)
      if (J != I && K.at(I, J) > K.at(I, Best))
        Best = J;
    EXPECT_NEAR(Hits[1].Similarity, K.at(I, Best), 1e-9)
        << "query " << I << ": index found " << Hits[1].Index
        << ", Gram argmax " << Best;
  }
}

TEST(ProfileIndexTest, BatchedQueriesMatchSingleQueries) {
  Rng R(424243);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 16, "c");
  std::vector<WeightedString> Queries = randomCorpus(Table, R, 8, "q");
  KSpectrumKernel Kernel(2, /*Weighted=*/true, /*CutWeight=*/2);

  ProfileIndex Index = ProfileIndex::build(Kernel, Corpus, {}, 1);
  std::vector<KernelProfile> QueryProfiles;
  for (const WeightedString &Q : Queries)
    QueryProfiles.push_back(Kernel.profile(Q));

  std::vector<std::vector<Neighbor>> Batched =
      Index.queryBatch(QueryProfiles, 3, /*Normalize=*/true, /*Threads=*/0);
  ASSERT_EQ(Batched.size(), Queries.size());
  for (size_t I = 0; I < QueryProfiles.size(); ++I)
    EXPECT_EQ(Batched[I], Index.query(QueryProfiles[I], 3));

  // The routed batch, pruned and probing two of four clusters, matches
  // queryApprox at the same NProbe.
  RoutingOptions Pruned;
  Pruned.Cluster.NumCentroids = 4;
  Pruned.MaxDocFrequency = 0.5;
  Pruned.RerankBudget = 4;
  Index.buildRouting(Pruned, 1);
  Batched = Index.queryBatch(QueryProfiles, 3, true, 0, /*Approx=*/true,
                             /*NProbe=*/2);
  ASSERT_EQ(Batched.size(), Queries.size());
  for (size_t I = 0; I < QueryProfiles.size(); ++I)
    EXPECT_EQ(Batched[I], Index.queryApprox(QueryProfiles[I], 3, true, 2));
}

TEST(ProfileIndexTest, QueryBatchIsThreadCountInvariant) {
  // Regression guard for the scratch-reuse scheme: queryBatch hands
  // each worker chunk one reusable scratch buffer, and a query's
  // result must never depend on what the previous query on the same
  // chunk left behind, nor on how queries map to chunks. Identical
  // batches across thread counts (and therefore chunk counts and
  // reuse patterns) must come back bit-identical.
  Rng R(987654);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 24, "c");
  BlendedSpectrumKernel Kernel(3, 1.0, /*Weighted=*/true, /*CutWeight=*/2);
  ProfileIndex Index = ProfileIndex::build(Kernel, Corpus, {}, 1);

  std::vector<KernelProfile> Queries;
  for (const WeightedString &Q : randomCorpus(Table, R, 13, "q"))
    Queries.push_back(Kernel.profile(Q));
  Queries.push_back(KernelProfile());     // Degenerate query mid-batch.
  Queries.push_back(Queries[0]);          // Duplicate: same chunk or not.

  const auto ExpectBitIdentical =
      [](const std::vector<std::vector<Neighbor>> &A,
         const std::vector<std::vector<Neighbor>> &B, const char *What) {
        ASSERT_EQ(A.size(), B.size()) << What;
        for (size_t Q = 0; Q < A.size(); ++Q) {
          ASSERT_EQ(A[Q].size(), B[Q].size()) << What << " query " << Q;
          for (size_t I = 0; I < A[Q].size(); ++I) {
            EXPECT_EQ(A[Q][I].Index, B[Q][I].Index)
                << What << " query " << Q << " rank " << I;
            EXPECT_EQ(std::bit_cast<uint64_t>(A[Q][I].Similarity),
                      std::bit_cast<uint64_t>(B[Q][I].Similarity))
                << What << " query " << Q << " rank " << I;
          }
        }
      };

  std::vector<std::vector<Neighbor>> Reference =
      Index.queryBatch(Queries, 4, true, /*Threads=*/1);
  for (size_t Threads : {size_t(2), size_t(3), size_t(8)})
    ExpectBitIdentical(Index.queryBatch(Queries, 4, true, Threads), Reference,
                       "exact");
  // Per-query results agree with the batch, so scratch reuse is
  // invisible entirely.
  for (size_t Q = 0; Q < Queries.size(); ++Q)
    EXPECT_EQ(Index.query(Queries[Q], 4), Reference[Q]) << "query " << Q;

  // The approximate tier reuses an epoch-versioned candidate scratch
  // across each chunk's queries — same invariant, same sweep.
  RoutingOptions Opts;
  Opts.Cluster.NumCentroids = 4;
  Opts.MaxDocFrequency = 0.5;
  Opts.RerankBudget = 8;
  Opts.DefaultNProbe = 2;
  Index.buildRouting(Opts, 1);
  std::vector<std::vector<Neighbor>> ApproxRef =
      Index.queryBatch(Queries, 4, true, /*Threads=*/1, /*Approx=*/true);
  for (size_t Threads : {size_t(2), size_t(3), size_t(8)})
    ExpectBitIdentical(Index.queryBatch(Queries, 4, true, Threads, true),
                       ApproxRef, "approx");
  for (size_t Q = 0; Q < Queries.size(); ++Q)
    EXPECT_EQ(Index.queryApprox(Queries[Q], 4), ApproxRef[Q])
        << "approx query " << Q;
}

TEST(ProfileIndexTest, SaveLoadPreservesQueries) {
  Rng R(777);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 12, "c");
  std::vector<std::string> Labels;
  for (size_t I = 0; I < Corpus.size(); ++I)
    Labels.push_back(I % 2 == 0 ? "even" : "odd");
  BlendedSpectrumKernel Kernel(3);

  ProfileIndex Index = ProfileIndex::build(Kernel, Corpus, Labels, 1);
  std::string Path = testing::TempDir() + "/kast_index_rt.kfi";
  Status S = Index.save(Path);
  ASSERT_TRUE(S.ok()) << S.message();
  // An unrouted index is a plain version-3 flat image.
  {
    std::ifstream In(Path, std::ios::binary);
    char Header[12];
    ASSERT_TRUE(In.read(Header, sizeof(Header)).good());
    EXPECT_EQ(std::string(Header, 8), std::string(FlatImageMagic, 8));
    EXPECT_EQ(Header[8], static_cast<char>(FlatImageVersion));
  }
  EXPECT_FALSE(std::filesystem::exists(Path + ".tmp"));

  Expected<ProfileIndex> Loaded = ProfileIndex::load(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  ASSERT_EQ(Loaded->size(), Index.size());
  EXPECT_EQ(Loaded->kernelName(), Index.kernelName());
  EXPECT_FALSE(Loaded->routed());
  for (size_t I = 0; I < Index.size(); ++I) {
    EXPECT_EQ(Loaded->name(I), Index.name(I));
    EXPECT_EQ(Loaded->label(I), Index.label(I));
    EXPECT_EQ(Loaded->norm(I), Index.norm(I));
    expectBitExact(Loaded->profile(I), Index.profile(I));
  }
  KernelProfile Query = Kernel.profile(randomString(Table, R, 20, 6));
  EXPECT_EQ(Loaded->query(Query, 5), Index.query(Query, 5));
}

std::string fileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

TEST(ProfileIndexTest, SavingOverTheLoadedImageKeepsIt) {
  // A loaded index views the mapping of its own file — the store, the
  // int8 sidecar and the routing arenas. Saving back to that path must
  // not truncate the bytes it is still reading from.
  Rng R(4242);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 4000, "c");
  BlendedSpectrumKernel Kernel(3);
  ProfileIndex Index = ProfileIndex::build(Kernel, Corpus, {}, 1);
  RoutingOptions Opts;
  Opts.Cluster.NumCentroids = 8;
  Opts.MaxDocFrequency = 0.5;
  Opts.RerankBudget = 32;
  Opts.DefaultNProbe = 3;
  Index.buildRouting(Opts, 1);
  const std::string Path = testing::TempDir() + "/kast_index_self.kfi";
  ASSERT_TRUE(Index.save(Path).ok());
  const std::string Saved = fileBytes(Path);

  std::vector<KernelProfile> Queries;
  for (int I = 0; I < 6; ++I)
    Queries.push_back(Kernel.profile(randomString(Table, R, 24, 6)));

  // Unchanged: load, save back over the same path, re-read.
  {
    Expected<ProfileIndex> Loaded = ProfileIndex::load(Path);
    ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
    Status S = Loaded->save(Path);
    ASSERT_TRUE(S.ok()) << S.message();
    EXPECT_EQ(fileBytes(Path), Saved);
    Expected<ProfileIndex> Again = ProfileIndex::load(Path);
    ASSERT_TRUE(Again.hasValue()) << Again.message();
    for (const KernelProfile &Q : Queries) {
      EXPECT_EQ(Again->query(Q, 5), Index.query(Q, 5));
      EXPECT_EQ(Again->queryApprox(Q, 5), Index.queryApprox(Q, 5));
    }
  }

  // After an add(): the grown index is saved over its source image and
  // re-reads bit-identically, its new entry in the unrouted tail.
  Expected<ProfileIndex> Loaded = ProfileIndex::load(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  Loaded->add("extra", "x", Kernel.profile(randomString(Table, R, 30, 6)));
  Index.add("extra", "x", Loaded->profile(Loaded->size() - 1));
  ASSERT_TRUE(Loaded->save(Path).ok());
  Expected<ProfileIndex> Grown = ProfileIndex::load(Path);
  ASSERT_TRUE(Grown.hasValue()) << Grown.message();
  ASSERT_EQ(Grown->size(), Index.size());
  EXPECT_EQ(Grown->routedCount(), Index.routedCount());
  // The int8 sidecar the add() dropped is written anyway, so the load
  // maps it instead of re-quantizing every entry.
  EXPECT_NE(Grown->store().quantized(), nullptr);
  EXPECT_EQ(Grown->name(Index.size() - 1), "extra");
  for (size_t I = 0; I < Index.size(); ++I)
    expectBitExact(Grown->profile(I), Index.profile(I));
  for (const KernelProfile &Q : Queries) {
    EXPECT_EQ(Grown->query(Q, 5), Index.query(Q, 5));
    EXPECT_EQ(Grown->queryApprox(Q, 5), Index.queryApprox(Q, 5));
  }
}

//===----------------------------------------------------------------------===//
// Corpus profiles as sharded images
//===----------------------------------------------------------------------===//

TEST(ProfileIndexTest, CorpusProfileCacheVerifiesKernelName) {
  CorpusOptions Shape;
  Shape.BaseA = 2;
  Shape.BaseB = 1;
  Shape.BaseC = 0;
  Shape.BaseD = 0;
  Shape.CopiesPerBase = 1;
  LabeledDataset Data =
      convertCorpus(Pipeline::withBytes(), generateCorpus(Shape));
  ASSERT_GT(Data.size(), 0u);

  BlendedSpectrumKernel Kernel(3, 1.0, /*Weighted=*/true, /*CutWeight=*/2);
  std::vector<WeightedString> Strings;
  std::vector<std::string> Labels;
  for (size_t I = 0; I < Data.size(); ++I) {
    Strings.push_back(Data.string(I));
    Labels.push_back(Data.label(I));
  }
  IndexService Service = IndexService::fromIndex(
      ProfileIndex::build(Kernel, Strings, Labels, /*Threads=*/1),
      {.Shards = 2});
  std::string Dir = testing::TempDir() + "/kast_corpus_profiles";
  std::filesystem::remove_all(Dir);
  Status W = writeShardedProfileImages(Service.toShardCaches(), Dir);
  ASSERT_TRUE(W.ok()) << W.message();

  // Every corpus profile comes back with its provenance and bit
  // patterns.
  Expected<std::vector<ProfileStoreCache>> Good =
      loadShardedProfileImages(Dir, Kernel.name());
  ASSERT_TRUE(Good.hasValue()) << Good.message();
  size_t Seen = 0;
  for (const ProfileStoreCache &Shard : *Good)
    for (size_t I = 0; I < Shard.Store.size(); ++I, ++Seen) {
      const std::string Name = Shard.Names.str(I);
      size_t At = 0;
      while (At < Data.size() && Data.string(At).name() != Name)
        ++At;
      ASSERT_LT(At, Data.size()) << Name;
      EXPECT_EQ(Shard.Labels.str(I), Data.label(At));
      expectBitExact(Shard.Store.materialize(I),
                     Kernel.profile(Data.string(At)));
    }
  EXPECT_EQ(Seen, Data.size());

  // A differently-configured kernel names itself differently, and the
  // mismatch is a load-time error, not a silent wrong similarity.
  BlendedSpectrumKernel Other(4, 1.0, /*Weighted=*/true, /*CutWeight=*/2);
  ASSERT_NE(Other.name(), Kernel.name());
  Expected<std::vector<ProfileStoreCache>> Bad =
      loadShardedProfileImages(Dir, Other.name());
  ASSERT_FALSE(Bad.hasValue());
  EXPECT_NE(Bad.message().find(Kernel.name()), std::string::npos)
      << Bad.message();
}

} // namespace
