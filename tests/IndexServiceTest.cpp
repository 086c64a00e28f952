//===- tests/IndexServiceTest.cpp - concurrent serving layer ---------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The serving contract of index/IndexService: adds and removes publish
// atomically and agree with a one-shard service as ground truth (one
// shard ranks ties by insertion order), queries agree with the
// Gram-matrix ground truth of the same kernel, snapshots are immutable
// (they answer identically forever, through concurrent writes and
// compactions), sharded images restart a service bit-exactly — also
// when saved back over the directory the service is mapped from — and
// the whole thing holds up under ASan/UBSan with writers and readers
// interleaving freely.
//
//===----------------------------------------------------------------------===//

#include "core/KernelMatrix.h"
#include "index/IndexService.h"
#include "kernels/SpectrumKernels.h"
#include "util/Rng.h"
#include "workloads/DatasetBuilder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <thread>

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

/// N profiles with unique names "<prefix><i>" and labels cycling
/// through "a"/"b"/"c".
struct NamedProfiles {
  std::vector<std::string> Names;
  std::vector<std::string> Labels;
  std::vector<KernelProfile> Profiles;
};

NamedProfiles makeProfiles(const ProfiledStringKernel &Kernel, size_t N,
                           const std::string &Prefix, uint64_t Seed) {
  Rng R(Seed);
  auto Table = TokenTable::create();
  NamedProfiles Out;
  const char *Cycle[] = {"a", "b", "c"};
  for (size_t I = 0; I < N; ++I) {
    Out.Names.push_back(Prefix + std::to_string(I));
    Out.Labels.push_back(Cycle[I % 3]);
    Out.Profiles.push_back(
        Kernel.profile(randomString(Table, R, R.uniformInt(4, 24), 6)));
  }
  return Out;
}

BlendedSpectrumKernel &kernel() {
  static BlendedSpectrumKernel K(3, 1.0, /*Weighted=*/true, /*CutWeight=*/2);
  return K;
}

/// The borrowed form IndexSnapshot::queryBatch takes.
std::vector<const KernelProfile *>
borrowed(const std::vector<KernelProfile> &Profiles) {
  std::vector<const KernelProfile *> Out;
  for (const KernelProfile &P : Profiles)
    Out.push_back(&P);
  return Out;
}

/// (name, similarity bit pattern) pairs of service hits, for
/// bit-identical ground-truth compares.
using FlatHits = std::vector<std::pair<std::string, uint64_t>>;

FlatHits flatten(const std::vector<ServiceHit> &Hits) {
  FlatHits Out;
  for (const ServiceHit &H : Hits)
    Out.push_back({H.Name, std::bit_cast<uint64_t>(H.Similarity)});
  return Out;
}

std::vector<FlatHits>
flatten(const std::vector<std::vector<ServiceHit>> &Batch) {
  std::vector<FlatHits> Out;
  for (const std::vector<ServiceHit> &Hits : Batch)
    Out.push_back(flatten(Hits));
  return Out;
}

/// N random strings named "<prefix><i>".
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

/// A one-shard service over \p Strings profiled by \p Kernel, added in
/// order (so positions are insertion order), labeled by \p Labels or
/// unlabeled.
IndexService oneShard(const ProfiledStringKernel &Kernel,
                      const std::vector<WeightedString> &Strings,
                      const std::vector<std::string> &Labels = {}) {
  IndexService Service(Kernel.name(), {.Shards = 1});
  for (size_t I = 0; I < Strings.size(); ++I)
    Service.add(Strings[I].name(), Labels.empty() ? "" : Labels[I],
                Kernel.profile(Strings[I]));
  return Service;
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

std::string fileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

/// Saves \p Service as sharded images in \p Dir and restarts a service
/// from them.
Expected<IndexService> saveAndRestart(const IndexService &Service,
                                      const std::string &Dir) {
  if (Status S = writeShardedProfileImages(Service.toShardCaches(), Dir); !S)
    return Expected<IndexService>::error(S.message());
  Expected<std::vector<ProfileStoreCache>> Caches =
      loadShardedProfileImages(Dir, Service.kernelName());
  if (!Caches)
    return Expected<IndexService>::error(Caches.message());
  return IndexService::fromShardCaches(Caches.take());
}

KernelProfile makeProfile(const std::vector<ProfileEntry> &Entries) {
  KernelProfile P;
  for (const ProfileEntry &E : Entries)
    P.add(E.Hash, E.Value);
  P.finalize();
  return P;
}

//===----------------------------------------------------------------------===//
// Single-threaded correctness against one-shard ground truth
//===----------------------------------------------------------------------===//

TEST(IndexServiceTest, AddsPublishImmediatelyAndMatchOneShard) {
  // Small shards and a tiny seal threshold so the test crosses every
  // structural boundary: staging tails, sealed segments, multi-shard
  // merges.
  IndexServiceOptions Options;
  Options.Shards = 3;
  Options.SealThreshold = 4;
  IndexService Service(kernel().name(), Options);
  IndexService Truth(kernel().name(), {.Shards = 1});

  NamedProfiles P = makeProfiles(kernel(), 30, "s", 11);
  for (size_t I = 0; I < P.Profiles.size(); ++I) {
    Service.add(P.Names[I], P.Labels[I], P.Profiles[I]);
    Truth.add(P.Names[I], P.Labels[I], P.Profiles[I]);
    EXPECT_EQ(Service.size(), I + 1); // Visible as soon as add returns.
  }
  EXPECT_EQ(Service.kernelName(), kernel().name());
  EXPECT_EQ(Service.shardCount(), 3u);

  // Similarities are computed by the same merge-join over the same
  // bit patterns, so the sharded service must match one shard
  // hit-for-hit (random profiles make cross-shard ties vanishingly
  // unlikely).
  NamedProfiles Q = makeProfiles(kernel(), 8, "q", 12);
  for (bool Normalize : {true, false})
    for (const KernelProfile &Query : Q.Profiles)
      EXPECT_EQ(flatten(Service.query(Query, 5, Normalize, 1)),
                flatten(Truth.query(Query, 5, Normalize, 1)));

  // Batched equals single, through one snapshot.
  IndexSnapshot Snap = Service.snapshot();
  std::vector<std::vector<ServiceHit>> Batch =
      Snap.queryBatch(borrowed(Q.Profiles), 4, true, 2);
  ASSERT_EQ(Batch.size(), Q.Profiles.size());
  for (size_t I = 0; I < Q.Profiles.size(); ++I)
    EXPECT_EQ(Batch[I], Snap.query(Q.Profiles[I], 4, true, 1));

  // Bounded selection at its edges, on one shard so positions are
  // insertion order and a fresh one-shard service over the survivors
  // is ground truth: ties wider than K straddling seal boundaries and a
  // tombstone, a query scoring zero against everything, and K in
  // {0, 1, live, live + 3} — exact, then exhaustively routed with a
  // tombstone inside the routed segment and tied entries in the tail.
  IndexService One(kernel().name(), {.Shards = 1, .SealThreshold = 4});
  std::vector<std::pair<std::string, const KernelProfile *>> Added;
  std::set<std::string> Removed;
  const auto AddTo = [&](size_t I, const KernelProfile &Prof) {
    Added.push_back({"t" + std::to_string(I), &Prof});
    One.add(Added.back().first, "l", Prof);
  };
  for (size_t I = 0; I < 14; ++I) // Copies of s0 at 0, 3, 6, 9 and 12.
    AddTo(I, P.Profiles[I % 3 == 0 ? 0 : I]);
  const auto RemoveFrom = [&](const std::string &Name) {
    ASSERT_EQ(One.remove(Name), 1u);
    Removed.insert(Name);
  };
  RemoveFrom("t3");
  KernelProfile Alien = makeProfile({{1, 1.0}});
  const auto ExpectSurvivorsRanked = [&](const std::string &What) {
    IndexService Survivors(kernel().name(), {.Shards = 1});
    for (const auto &[Name, Prof] : Added)
      if (!Removed.count(Name))
        Survivors.add(Name, "l", *Prof);
    const size_t Live = Survivors.size();
    const IndexSnapshot S = One.snapshot();
    for (size_t K : {size_t(0), size_t(1), size_t(3), Live, Live + 3})
      for (const KernelProfile *Query : {&P.Profiles[0], &Alien}) {
        const std::string At = What + " k " + std::to_string(K);
        const auto Want = flatten(Survivors.query(*Query, K, true, 1));
        ASSERT_EQ(Want.size(), std::min(K, Live)) << At;
        EXPECT_EQ(flatten(S.query(*Query, K, true, 1)), Want) << At;
        EXPECT_EQ(flatten(S.queryApprox(*Query, K, true, 0, 1)), Want) << At;
        for (bool Approx : {false, true})
          EXPECT_EQ(flatten(S.queryBatch({Query, Query}, K, true, 2,
                                         Approx)[1]),
                    Want)
              << At;
      }
  };
  ExpectSurvivorsRanked("exact");
  RoutingOptions Exhaustive;
  Exhaustive.Cluster.NumCentroids = 3;
  One.rebuildRouting(Exhaustive, 1);
  ASSERT_TRUE(One.routed());
  for (size_t I = 14; I < 17; ++I)
    AddTo(I, P.Profiles[0]);
  RemoveFrom("t6");
  ExpectSurvivorsRanked("routed");
}

TEST(IndexServiceTest, TopKOrderingAndTieBreaks) {
  // One shard, so positions are insertion order; a seal threshold of
  // two spreads the entries over several segments.
  IndexService Index("test", {.Shards = 1, .SealThreshold = 2});
  // Entries e0 and e2 are identical (tie); e1 is orthogonal.
  Index.add("e0", "x", makeProfile({{1, 1.0}}));
  Index.add("e1", "y", makeProfile({{2, 1.0}}));
  Index.add("e2", "x", makeProfile({{1, 1.0}}));

  const KernelProfile Query = makeProfile({{1, 2.0}});
  std::vector<ServiceHit> Hits = Index.query(Query, 2, true, 1);
  ASSERT_EQ(Hits.size(), 2u);
  EXPECT_EQ(Hits[0].Name, "e0"); // Tie with e2 breaks toward the earlier add.
  EXPECT_EQ(Hits[1].Name, "e2");
  EXPECT_DOUBLE_EQ(Hits[0].Similarity, 1.0); // Cosine.
  EXPECT_EQ(IndexSnapshot::majorityLabel(Hits), "x");

  // K beyond size clamps; orthogonal entry scores zero.
  Hits = Index.query(Query, 10, true, 1);
  ASSERT_EQ(Hits.size(), 3u);
  EXPECT_EQ(Hits[2].Name, "e1");
  EXPECT_DOUBLE_EQ(Hits[2].Similarity, 0.0);

  // Raw (unnormalized) dot keeps magnitudes.
  Hits = Index.query(Query, 1, /*Normalize=*/false, 1);
  EXPECT_DOUBLE_EQ(Hits[0].Similarity, 2.0);

  // An empty query has vanishing norm: all cosine scores are zero.
  Hits = Index.query(KernelProfile(), 1, true, 1);
  ASSERT_EQ(Hits.size(), 1u);
  EXPECT_DOUBLE_EQ(Hits[0].Similarity, 0.0);

  // Bounded selection at its edges, through every entry point. Copies
  // of e0 make the tie at cosine 1 wider than K, and exhaustive routing
  // covers only the segment the first five entries compact into, so
  // the ties straddle the routed segment and the later ones.
  for (int I = 3; I < 5; ++I)
    Index.add("e" + std::to_string(I), "x", makeProfile({{1, 1.0}}));
  Index.rebuildRouting({}, 1);
  for (int I = 5; I < 8; ++I)
    Index.add("e" + std::to_string(I), "x", makeProfile({{1, 1.0}}));
  Index.add("e8", "y", makeProfile({{3, 1.0}}));
  ASSERT_TRUE(Index.routed());
  const size_t Live = Index.size();
  const std::vector<std::string> TiesFirst = {"e0", "e2", "e3", "e4", "e5",
                                              "e6", "e7", "e1", "e8"};
  const KernelProfile Alien = makeProfile({{9, 1.0}}); // Shares nothing.
  const IndexSnapshot Snap = Index.snapshot();
  for (size_t K : {size_t(0), size_t(1), size_t(3), Live, Live + 3}) {
    for (const KernelProfile *Q : {&Query, &Alien}) {
      const std::vector<ServiceHit> Exact = Snap.query(*Q, K, true, 1);
      ASSERT_EQ(Exact.size(), std::min(K, Live)) << "k " << K;
      for (size_t R = 0; R < Exact.size(); ++R) {
        // The alien query scores +0.0 everywhere: pure insertion order.
        EXPECT_EQ(Exact[R].Name,
                  Q == &Query ? TiesFirst[R] : "e" + std::to_string(R));
        if (Q == &Alien) {
          EXPECT_EQ(std::bit_cast<uint64_t>(Exact[R].Similarity), 0u);
        }
      }
      EXPECT_EQ(flatten(Snap.queryApprox(*Q, K, true, 0, 1)), flatten(Exact))
          << "k " << K;
      for (bool Approx : {false, true})
        EXPECT_EQ(flatten(Snap.queryBatch({Q, Q}, K, true, 2, Approx)),
                  std::vector<FlatHits>(2, flatten(Exact)))
            << "k " << K;
    }
  }
}

TEST(IndexServiceTest, RemovedRoutedCandidateTakesNoRerankSlot) {
  // A removed entry the routed tier still finds must leave before the
  // re-rank budget is spent: with a budget of one, removing the best
  // candidate hands its slot to the runner-up rather than wasting it
  // and zero-padding a non-candidate in its place.
  IndexService Service("k", {.Shards = 1});
  Service.add("a", "", makeProfile({{1, 1.0}}));
  Service.add("b", "", makeProfile({{1, 0.5}, {3, 1.0}}));
  Service.add("c", "", makeProfile({{2, 1.0}}));
  RoutingOptions Budget;
  Budget.RerankBudget = 1;
  Service.rebuildRouting(Budget, 1);
  ASSERT_EQ(Service.remove("a"), 1u);
  const KernelProfile Query = makeProfile({{1, 1.0}});
  const std::vector<ServiceHit> Exact = Service.query(Query, 1, true, 1);
  ASSERT_EQ(Exact.size(), 1u);
  EXPECT_EQ(Exact[0].Name, "b");
  EXPECT_EQ(flatten(Service.queryApprox(Query, 1, true, 0, 1)),
            flatten(Exact));
}

TEST(IndexServiceTest, EdgeCasesReturnCleanly) {
  IndexService Service("k", {.Shards = 2, .SealThreshold = 2});
  KernelProfile P;
  P.add(3, 1.0);
  P.finalize();

  EXPECT_TRUE(Service.empty());
  EXPECT_TRUE(Service.query(P, 5).empty());
  EXPECT_EQ(Service.remove("missing"), 0u);
  Service.compact(1); // Compacting empty shards is a no-op, not a crash.
  EXPECT_TRUE(Service.snapshot().empty());

  Service.add("only", "l", P);
  EXPECT_TRUE(Service.query(P, 0).empty());          // K == 0.
  EXPECT_EQ(Service.query(P, 100).size(), 1u);       // K clamps to live.
  const KernelProfile Empty;
  std::vector<std::vector<ServiceHit>> Batch =
      Service.snapshot().queryBatch({&P, &Empty}, 3, true, 1);
  ASSERT_EQ(Batch.size(), 2u);
  EXPECT_EQ(Batch[0].size(), 1u);
  // An empty query has vanishing norm; cosine scores zero but the
  // entry is still returned.
  ASSERT_EQ(Batch[1].size(), 1u);
  EXPECT_EQ(Batch[1][0].Similarity, 0.0);

  EXPECT_EQ(IndexSnapshot::majorityLabel({}), "");
}

TEST(IndexServiceTest, OneShardEdgeCasesReturnCleanly) {
  const KernelProfile P = makeProfile({{3, 1.0}});
  const KernelProfile Empty;

  // Querying an empty service: no hits, no crash, through every entry
  // point.
  IndexService None("k", {.Shards = 1});
  EXPECT_TRUE(None.query(P, 3).empty());
  EXPECT_TRUE(None.query(P, 0).empty());
  EXPECT_TRUE(None.queryApprox(P, 3).empty());
  std::vector<std::vector<ServiceHit>> Batch =
      None.snapshot().queryBatch({&P, &Empty}, 3, true, 1);
  ASSERT_EQ(Batch.size(), 2u);
  EXPECT_TRUE(Batch[0].empty());
  EXPECT_TRUE(Batch[1].empty());

  IndexService Index("k", {.Shards = 1});
  Index.add("a", "x", P);
  Index.add("b", "y", P);

  // k == 0 is an explicit no-op, not a caller-discipline assumption.
  EXPECT_TRUE(Index.query(P, 0).empty());
  for (const std::vector<ServiceHit> &Hits :
       Index.snapshot().queryBatch({&P, &P}, 0, true, 1))
    EXPECT_TRUE(Hits.empty());

  // k beyond size() clamps to size().
  EXPECT_EQ(Index.query(P, 100).size(), 2u);
  EXPECT_EQ(Index.snapshot().queryBatch({&P}, 100, true, 1)[0].size(), 2u);
}

TEST(IndexServiceTest, MajorityLabelMatchesIndexContract) {
  // Totals win; count ties go to the nearer hit's label.
  std::vector<ServiceHit> Hits = {{"n0", "y", 0.9},
                                  {"n1", "x", 0.8},
                                  {"n2", "x", 0.7},
                                  {"n3", "y", 0.6}};
  EXPECT_EQ(IndexSnapshot::majorityLabel(Hits), "y");
  Hits.push_back({"n4", "x", 0.5});
  EXPECT_EQ(IndexSnapshot::majorityLabel(Hits), "x");
}

TEST(IndexServiceTest, MajorityLabelCountsAndTieBreaks) {
  // Regression for the O(k²) rescan-per-neighbor counting: the single
  // pass must keep both halves of the contract: the highest total count
  // wins, and a count *tie* goes to the label whose first occurrence is
  // nearest. Similarities are irrelevant to the vote.
  const auto Vote = [](const std::vector<std::string> &Labels) {
    std::vector<ServiceHit> Hits;
    for (size_t I = 0; I < Labels.size(); ++I)
      Hits.push_back({"n" + std::to_string(I), Labels[I],
                      1.0 - 0.1 * static_cast<double>(I)});
    return IndexSnapshot::majorityLabel(Hits);
  };
  // Adversarial tie: y and x both total 2, y's first occurrence is the
  // nearest hit, so y wins even though x reaches count 2 first during
  // an incremental scan.
  EXPECT_EQ(Vote({"y", "x", "x", "y"}), "y");
  // A strict majority displaces a nearer singleton.
  EXPECT_EQ(Vote({"y", "x", "x"}), "x");
  // Duplicate labels scattered among others still aggregate.
  EXPECT_EQ(Vote({"z", "y", "x", "y"}), "y");
  // Single hit and empty list edge cases.
  EXPECT_EQ(Vote({"x"}), "x");
  EXPECT_EQ(Vote({}), "");
}

TEST(IndexServiceTest, AgreesWithGramMatrixGroundTruth) {
  // The one check that does not go through the retrieval engine: the
  // normalized Gram matrix of the same kernel.
  Rng R(60601);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 20, "c");
  BlendedSpectrumKernel Kernel(3, 1.0, /*Weighted=*/true, /*CutWeight=*/2);

  IndexService Index = oneShard(Kernel, Corpus);
  ASSERT_EQ(Index.size(), Corpus.size());
  EXPECT_EQ(Index.kernelName(), Kernel.name());

  KernelMatrixOptions Options;
  Options.Threads = 1;
  Matrix K = computeKernelMatrix(Kernel, Corpus, Options);

  for (size_t I = 0; I < Corpus.size(); ++I) {
    std::vector<ServiceHit> Hits =
        Index.query(Kernel.profile(Corpus[I]), 2, true, 1);
    ASSERT_EQ(Hits.size(), 2u);
    // Top hit is the string itself at cosine 1.
    EXPECT_EQ(Hits[0].Name, Corpus[I].name());
    EXPECT_NEAR(Hits[0].Similarity, 1.0, 1e-12);
    // Runner-up matches the normalized Gram row's best off-diagonal.
    size_t Best = I == 0 ? 1 : 0;
    for (size_t J = 0; J < Corpus.size(); ++J)
      if (J != I && K.at(I, J) > K.at(I, Best))
        Best = J;
    EXPECT_NEAR(Hits[1].Similarity, K.at(I, Best), 1e-9)
        << "query " << I << ": index found " << Hits[1].Name
        << ", Gram argmax " << Corpus[Best].name();
  }
}

TEST(IndexServiceTest, BatchedQueriesMatchSingleQueries) {
  Rng R(424243);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 16, "c");
  std::vector<WeightedString> Queries = randomCorpus(Table, R, 8, "q");
  KSpectrumKernel Kernel(2, /*Weighted=*/true, /*CutWeight=*/2);

  IndexService Index = oneShard(Kernel, Corpus);
  std::vector<KernelProfile> QueryProfiles;
  for (const WeightedString &Q : Queries)
    QueryProfiles.push_back(Kernel.profile(Q));

  std::vector<std::vector<ServiceHit>> Batched = Index.snapshot().queryBatch(
      borrowed(QueryProfiles), 3, /*Normalize=*/true, /*Threads=*/0);
  ASSERT_EQ(Batched.size(), Queries.size());
  for (size_t I = 0; I < QueryProfiles.size(); ++I)
    EXPECT_EQ(flatten(Batched[I]),
              flatten(Index.query(QueryProfiles[I], 3, true, 1)));

  // The routed batch, pruned and probing two of four clusters, matches
  // queryApprox at the same NProbe.
  RoutingOptions Pruned;
  Pruned.Cluster.NumCentroids = 4;
  Pruned.MaxDocFrequency = 0.5;
  Pruned.RerankBudget = 4;
  Index.rebuildRouting(Pruned, 1);
  Batched = Index.snapshot().queryBatch(borrowed(QueryProfiles), 3, true, 0,
                                        /*Approx=*/true, /*NProbe=*/2);
  ASSERT_EQ(Batched.size(), Queries.size());
  for (size_t I = 0; I < QueryProfiles.size(); ++I)
    EXPECT_EQ(flatten(Batched[I]),
              flatten(Index.queryApprox(QueryProfiles[I], 3, true, 2, 1)));
}

TEST(IndexServiceTest, QueryBatchIsThreadCountInvariant) {
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
  IndexService Index = oneShard(Kernel, Corpus);

  std::vector<KernelProfile> Queries;
  for (const WeightedString &Q : randomCorpus(Table, R, 13, "q"))
    Queries.push_back(Kernel.profile(Q));
  Queries.push_back(KernelProfile()); // Degenerate query mid-batch.
  Queries.push_back(Queries[0]);      // Duplicate: same chunk or not.

  const IndexSnapshot Exact = Index.snapshot();
  const auto Reference =
      flatten(Exact.queryBatch(borrowed(Queries), 4, true, /*Threads=*/1));
  for (size_t Threads : {size_t(2), size_t(3), size_t(8)})
    EXPECT_EQ(flatten(Exact.queryBatch(borrowed(Queries), 4, true, Threads)),
              Reference)
        << "exact, threads " << Threads;
  // Per-query results agree with the batch, so scratch reuse is
  // invisible entirely.
  for (size_t Q = 0; Q < Queries.size(); ++Q)
    EXPECT_EQ(flatten(Exact.query(Queries[Q], 4, true, 1)), Reference[Q])
        << "query " << Q;

  // The approximate tier reuses an epoch-versioned candidate scratch
  // across each chunk's queries — same invariant, same sweep.
  RoutingOptions Opts;
  Opts.Cluster.NumCentroids = 4;
  Opts.MaxDocFrequency = 0.5;
  Opts.RerankBudget = 8;
  Opts.DefaultNProbe = 2;
  Index.rebuildRouting(Opts, 1);
  const IndexSnapshot Routed = Index.snapshot();
  const auto ApproxRef = flatten(
      Routed.queryBatch(borrowed(Queries), 4, true, /*Threads=*/1, true));
  for (size_t Threads : {size_t(2), size_t(3), size_t(8)})
    EXPECT_EQ(
        flatten(Routed.queryBatch(borrowed(Queries), 4, true, Threads, true)),
        ApproxRef)
        << "approx, threads " << Threads;
  for (size_t Q = 0; Q < Queries.size(); ++Q)
    EXPECT_EQ(flatten(Routed.queryApprox(Queries[Q], 4, true, 0, 1)),
              ApproxRef[Q])
        << "approx query " << Q;
}

//===----------------------------------------------------------------------===//
// Removal, compaction, snapshot isolation
//===----------------------------------------------------------------------===//

TEST(IndexServiceTest, RemoveTombstonesAndSnapshotsStayIsolated) {
  IndexServiceOptions Options;
  Options.Shards = 2;
  Options.SealThreshold = 4;
  IndexService Service(kernel().name(), Options);
  NamedProfiles P = makeProfiles(kernel(), 16, "s", 21);
  for (size_t I = 0; I < P.Profiles.size(); ++I)
    Service.add(P.Names[I], P.Labels[I], P.Profiles[I]);

  const KernelProfile &Query = P.Profiles[5];
  IndexSnapshot Before = Service.snapshot();
  std::vector<ServiceHit> BeforeHits = Before.query(Query, 16, true, 1);
  ASSERT_EQ(BeforeHits.size(), 16u);
  // The query profile's own entry is the (cosine 1) top hit.
  EXPECT_EQ(BeforeHits[0].Name, "s5");

  EXPECT_EQ(Service.remove("s5"), 1u);
  EXPECT_EQ(Service.remove("s5"), 0u); // Already tombstoned.
  EXPECT_EQ(Service.size(), 15u);

  // Live queries no longer see the entry, at any K.
  for (const ServiceHit &H : Service.query(Query, 16, true, 1))
    EXPECT_NE(H.Name, "s5");
  // The pre-removal snapshot still answers exactly as before.
  EXPECT_EQ(Before.query(Query, 16, true, 1), BeforeHits);
  EXPECT_EQ(Before.size(), 16u);

  // Compaction drops tombstones without changing any answer...
  std::vector<ServiceHit> PreCompact = Service.query(Query, 15, true, 1);
  Service.compact(1);
  EXPECT_EQ(Service.size(), 15u);
  EXPECT_EQ(Service.query(Query, 15, true, 1), PreCompact);
  // ...and pre-compaction snapshots keep the old segments alive.
  EXPECT_EQ(Before.query(Query, 16, true, 1), BeforeHits);

  // Re-adding a removed name serves it again (a fresh entry, not a
  // resurrection of the tombstoned one).
  Service.add("s5", P.Labels[5], P.Profiles[5]);
  EXPECT_EQ(Service.size(), 16u);
  EXPECT_EQ(Service.query(Query, 1, true, 1)[0].Name, "s5");
}

//===----------------------------------------------------------------------===//
// Bulk import/export and the sharded-cache restart path
//===----------------------------------------------------------------------===//

TEST(IndexServiceTest, SaveLoadPreservesQueries) {
  Rng R(777);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 12, "c");
  std::vector<std::string> Labels;
  for (size_t I = 0; I < Corpus.size(); ++I)
    Labels.push_back(I % 2 == 0 ? "even" : "odd");
  BlendedSpectrumKernel Kernel(3);

  IndexService Index = oneShard(Kernel, Corpus, Labels);
  const std::string Dir = testing::TempDir() + "/kast_index_rt";
  std::filesystem::remove_all(Dir);
  Status S = writeShardedProfileImages(Index.toShardCaches(), Dir);
  ASSERT_TRUE(S.ok()) << S.message();
  // An unrouted shard is a plain version-3 flat image.
  {
    std::ifstream In(Dir + "/shard-000.kfi", std::ios::binary);
    char Header[12];
    ASSERT_TRUE(In.read(Header, sizeof(Header)).good());
    EXPECT_EQ(std::string(Header, 8), std::string(FlatImageMagic, 8));
    EXPECT_EQ(Header[8], static_cast<char>(FlatImageVersion));
  }
  EXPECT_FALSE(std::filesystem::exists(Dir + "/shard-000.kfi.tmp"));

  Expected<std::vector<ProfileStoreCache>> Caches =
      loadShardedProfileImages(Dir, Kernel.name());
  ASSERT_TRUE(Caches.hasValue()) << Caches.message();
  ASSERT_EQ(Caches->size(), 1u);
  {
    const ProfileStoreCache &Image = (*Caches)[0];
    const ProfileStoreCache Saved = Index.toShardCaches()[0];
    ASSERT_EQ(Image.Store.size(), Corpus.size());
    EXPECT_EQ(Image.KernelName, Kernel.name());
    EXPECT_EQ(Image.Routing, nullptr);
    for (size_t I = 0; I < Corpus.size(); ++I) {
      EXPECT_EQ(Image.Names[I], Corpus[I].name());
      EXPECT_EQ(Image.Labels[I], Labels[I]);
      EXPECT_EQ(std::bit_cast<uint64_t>(Image.Store.norm(I)),
                std::bit_cast<uint64_t>(Saved.Store.norm(I)));
      expectBitExact(Image.Store.materialize(I), Kernel.profile(Corpus[I]));
    }
  }
  Expected<IndexService> Loaded = IndexService::fromShardCaches(Caches.take());
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  EXPECT_EQ(Loaded->kernelName(), Index.kernelName());
  EXPECT_FALSE(Loaded->routed());
  KernelProfile Query = Kernel.profile(randomString(Table, R, 20, 6));
  EXPECT_EQ(flatten(Loaded->query(Query, 5, true, 1)),
            flatten(Index.query(Query, 5, true, 1)));
}

TEST(IndexServiceTest, SavingOverTheLoadedImageKeepsIt) {
  // A restarted service views the mapping of its own shard image — the
  // store, the int8 sidecar and the routing arenas. Saving back to that
  // directory must not truncate the bytes it is still reading from.
  Rng R(4242);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 4000, "c");
  BlendedSpectrumKernel Kernel(3);
  IndexService Index = oneShard(Kernel, Corpus);
  RoutingOptions Opts;
  Opts.Cluster.NumCentroids = 8;
  Opts.MaxDocFrequency = 0.5;
  Opts.RerankBudget = 32;
  Opts.DefaultNProbe = 3;
  Index.rebuildRouting(Opts, 1);
  const std::string Dir = testing::TempDir() + "/kast_index_self";
  const std::string Path = Dir + "/shard-000.kfi";
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(writeShardedProfileImages(Index.toShardCaches(), Dir).ok());
  const std::string Saved = fileBytes(Path);

  std::vector<KernelProfile> Queries;
  for (int I = 0; I < 6; ++I)
    Queries.push_back(Kernel.profile(randomString(Table, R, 24, 6)));
  const auto ExpectSameAnswers = [&](const IndexService &A,
                                     const IndexService &B,
                                     const std::string &What) {
    for (const KernelProfile &Q : Queries) {
      EXPECT_EQ(flatten(A.query(Q, 5, true, 1)),
                flatten(B.query(Q, 5, true, 1)))
          << What;
      EXPECT_EQ(flatten(A.queryApprox(Q, 5, true, 0, 1)),
                flatten(B.queryApprox(Q, 5, true, 0, 1)))
          << What;
    }
  };
  const auto Restart = [&]() {
    Expected<std::vector<ProfileStoreCache>> Caches =
        loadShardedProfileImages(Dir, Kernel.name());
    EXPECT_TRUE(Caches.hasValue()) << Caches.message();
    return IndexService::fromShardCaches(Caches.take());
  };

  // Unchanged: restart, save back over the same directory, restart
  // again.
  {
    Expected<IndexService> Loaded = Restart();
    ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
    ASSERT_TRUE(Loaded->routed());
    Expected<IndexService> Again = saveAndRestart(*Loaded, Dir);
    ASSERT_TRUE(Again.hasValue()) << Again.message();
    EXPECT_EQ(fileBytes(Path), Saved);
    EXPECT_TRUE(Again->routed());
    ExpectSameAnswers(*Again, Index, "unchanged");
    // The first restart still reads the bytes it mapped.
    ExpectSameAnswers(*Loaded, Index, "unchanged source");
  }

  // After an add(): the grown service is saved over its source image
  // and restarts with every entry bit-exact, its new one last. Routing
  // covers the first of its two segments only, so the image carries
  // none; a re-fit of the restart answers as a re-fit of the original.
  Expected<IndexService> Loaded = Restart();
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  const KernelProfile Extra = Kernel.profile(randomString(Table, R, 30, 6));
  Loaded->add("extra", "x", Extra);
  Index.add("extra", "x", Extra);
  Expected<IndexService> Grown = saveAndRestart(*Loaded, Dir);
  ASSERT_TRUE(Grown.hasValue()) << Grown.message();
  ASSERT_EQ(Grown->size(), Index.size());
  EXPECT_FALSE(Grown->routed());
  ExpectSameAnswers(*Loaded, Index, "grown source");
  const ProfileStoreCache Want = Index.toShardCaches()[0];
  const ProfileStoreCache Got = Grown->toShardCaches()[0];
  ASSERT_EQ(Got.Store.size(), Want.Store.size());
  EXPECT_EQ(Got.Names[Got.Store.size() - 1], "extra");
  for (size_t I = 0; I < Want.Store.size(); ++I) {
    EXPECT_EQ(Got.Names[I], Want.Names[I]);
    expectBitExact(Got.Store.materialize(I), Want.Store.materialize(I));
  }
  for (const KernelProfile &Q : Queries)
    EXPECT_EQ(flatten(Grown->query(Q, 5, true, 1)),
              flatten(Index.query(Q, 5, true, 1)));
  Grown->rebuildRouting(Opts, 1);
  Index.rebuildRouting(Opts, 1);
  ExpectSameAnswers(*Grown, Index, "re-fit");
}

TEST(IndexServiceTest, CorpusProfileCacheVerifiesKernelName) {
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
  IndexService Service(Kernel.name(), {.Shards = 2});
  for (size_t I = 0; I < Data.size(); ++I)
    Service.add(Data.string(I).name(), Data.label(I),
                Kernel.profile(Data.string(I)));
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

TEST(IndexServiceTest, ShardCachesRestartTheServiceBitExactly) {
  IndexServiceOptions Options;
  Options.Shards = 3;
  Options.SealThreshold = 4;
  IndexService Service(kernel().name(), Options);
  NamedProfiles P = makeProfiles(kernel(), 18, "s", 41);
  for (size_t I = 0; I < P.Profiles.size(); ++I)
    Service.add(P.Names[I], P.Labels[I], P.Profiles[I]);
  // Mix a removal in so the export path must drop tombstones.
  ASSERT_EQ(Service.remove("s7"), 1u);

  std::string Dir = testing::TempDir() + "/kast_service_restart";
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(
      writeShardedProfileImages(Service.toShardCaches(), Dir).ok());

  Expected<std::vector<ProfileStoreCache>> Caches =
      loadShardedProfileImages(Dir, kernel().name());
  ASSERT_TRUE(Caches.hasValue()) << Caches.message();
  Expected<IndexService> Restored =
      IndexService::fromShardCaches(Caches.take());
  ASSERT_TRUE(Restored.hasValue()) << Restored.message();

  EXPECT_EQ(Restored->size(), Service.size());
  EXPECT_EQ(Restored->shardCount(), Service.shardCount());
  EXPECT_EQ(Restored->kernelName(), Service.kernelName());
  NamedProfiles Q = makeProfiles(kernel(), 6, "q", 42);
  for (const KernelProfile &Query : Q.Profiles)
    EXPECT_EQ(Restored->query(Query, 6, true, 1),
              Service.query(Query, 6, true, 1));
  // Name-hash routing survived the round trip: remove still lands.
  EXPECT_EQ(Restored->remove("s3"), 1u);
  EXPECT_EQ(Restored->size(), Service.size() - 1);

  // Kernel-name mismatches fail at restore, not as wrong similarity.
  std::vector<ProfileStoreCache> Bad(2);
  Bad[0].KernelName = "one";
  Bad[1].KernelName = "two";
  EXPECT_FALSE(IndexService::fromShardCaches(std::move(Bad)).hasValue());
  EXPECT_FALSE(IndexService::fromShardCaches({}).hasValue());
}

TEST(IndexServiceTest, ForeignCacheLayoutsSweepAllShardsOnRemove) {
  // A hand-assembled layout can hold the same name in several shards,
  // off its hash route. Restore must detect that and remove() must
  // sweep every shard instead of trusting the home-shard invariant.
  KernelProfile P;
  P.add(3, 1.0);
  P.finalize();
  std::vector<ProfileStoreCache> Caches(2);
  for (size_t S = 0; S < 2; ++S) {
    Caches[S].KernelName = "k";
    Caches[S].Store.append(P);
    Caches[S].Names.push_back("dup"); // In both shards: one is off-route.
    Caches[S].Labels.push_back("l");
  }
  Expected<IndexService> Service =
      IndexService::fromShardCaches(std::move(Caches));
  ASSERT_TRUE(Service.hasValue()) << Service.message();
  EXPECT_EQ(Service->size(), 2u);
  EXPECT_EQ(Service->remove("dup"), 2u); // Both copies, both shards.
  EXPECT_EQ(Service->size(), 0u);
  // entryCount keeps counting the tombstoned entries until compact.
  EXPECT_EQ(Service->entryCount(), 2u);
  Service->compact(1);
  EXPECT_EQ(Service->entryCount(), 0u);
}

TEST(IndexServiceTest, ResavingFewerShardsSweepsStaleCacheFiles) {
  // Saving a 2-shard service into a directory that previously held 3
  // shards must not leave the old shard-002 behind, or the next
  // restart would serve the stale corpus alongside the new one.
  KernelProfile P;
  P.add(5, 2.0);
  P.finalize();
  auto MakeService = [&](size_t Shards, size_t Entries) {
    IndexService Service("k", {.Shards = Shards});
    for (size_t I = 0; I < Entries; ++I)
      Service.add("n" + std::to_string(I), "l", P);
    return Service;
  };
  std::string Dir = testing::TempDir() + "/kast_shard_resave";
  std::filesystem::remove_all(Dir);
  IndexService Wide = MakeService(3, 6);
  ASSERT_TRUE(writeShardedProfileImages(Wide.toShardCaches(), Dir).ok());
  IndexService Narrow = MakeService(2, 4);
  ASSERT_TRUE(writeShardedProfileImages(Narrow.toShardCaches(), Dir).ok());

  EXPECT_FALSE(std::filesystem::exists(Dir + "/shard-002.kfi"));
  Expected<std::vector<ProfileStoreCache>> Caches =
      loadShardedProfileImages(Dir, "k");
  ASSERT_TRUE(Caches.hasValue()) << Caches.message();
  ASSERT_EQ(Caches->size(), 2u);
  Expected<IndexService> Restored =
      IndexService::fromShardCaches(Caches.take());
  ASSERT_TRUE(Restored.hasValue()) << Restored.message();
  EXPECT_EQ(Restored->size(), 4u);
}

//===----------------------------------------------------------------------===//
// Flat-image restart: mapped and buffered, routed and not
//===----------------------------------------------------------------------===//

TEST(IndexServiceTest, V3ImagesRestartTheServiceBitExactly) {
  IndexServiceOptions Options;
  Options.Shards = 3;
  Options.SealThreshold = 4;
  IndexService Service(kernel().name(), Options);
  NamedProfiles P = makeProfiles(kernel(), 18, "s", 61);
  for (size_t I = 0; I < P.Profiles.size(); ++I)
    Service.add(P.Names[I], P.Labels[I], P.Profiles[I]);
  ASSERT_EQ(Service.remove("s5"), 1u);

  std::string Dir = testing::TempDir() + "/kast_restart_v3";
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(writeShardedProfileImages(Service.toShardCaches(), Dir).ok());

  // The same images restored through the mapping and through the
  // buffered read.
  Expected<std::vector<ProfileStoreCache>> Mapped =
      loadShardedProfileImages(Dir, kernel().name());
  ASSERT_TRUE(Mapped.hasValue()) << Mapped.message();
  FlatImageReadOptions Buffered;
  Buffered.ForceBuffered = true;
  Expected<std::vector<ProfileStoreCache>> Heap =
      loadShardedProfileImages(Dir, kernel().name(), Buffered);
  ASSERT_TRUE(Heap.hasValue()) << Heap.message();

  Expected<IndexService> FromMap = IndexService::fromShardCaches(Mapped.take());
  ASSERT_TRUE(FromMap.hasValue()) << FromMap.message();
  Expected<IndexService> FromHeap = IndexService::fromShardCaches(Heap.take());
  ASSERT_TRUE(FromHeap.hasValue()) << FromHeap.message();

  // Both restored services answer bit-identically to the original.
  EXPECT_EQ(FromMap->size(), Service.size());
  EXPECT_EQ(FromHeap->size(), Service.size());
  NamedProfiles Q = makeProfiles(kernel(), 6, "q", 62);
  for (const KernelProfile &Query : Q.Profiles) {
    std::vector<ServiceHit> Truth = Service.query(Query, 6, true, 1);
    EXPECT_EQ(FromMap->query(Query, 6, true, 1), Truth);
    EXPECT_EQ(FromHeap->query(Query, 6, true, 1), Truth);
  }
}

TEST(IndexServiceTest, V3ImagesCarryRoutingAndSurviveWriters) {
  IndexServiceOptions Options;
  Options.Shards = 2;
  Options.SealThreshold = 4;
  IndexService Service(kernel().name(), Options);
  NamedProfiles P = makeProfiles(kernel(), 40, "s", 71);
  for (size_t I = 0; I < P.Profiles.size(); ++I)
    Service.add(P.Names[I], P.Labels[I], P.Profiles[I]);
  RoutingOptions Route;
  Route.Cluster.NumCentroids = 4;
  Route.MaxDocFrequency = 0.6;
  Route.DefaultNProbe = 2;
  Route.RerankBudget = 12;
  Route.QuantizedShortlist = true;
  Service.rebuildRouting(Route, 1);
  ASSERT_EQ(Service.snapshot().routedShardCount(), Options.Shards);

  // The export carries the routing tier as flat arena views and the
  // quantized store, which the images embed.
  std::vector<ProfileStoreCache> Exported = Service.toShardCaches();
  for (const ProfileStoreCache &Cache : Exported) {
    ASSERT_NE(Cache.Routing, nullptr);
    EXPECT_EQ(Cache.Routing->Covered, Cache.Store.size());
    EXPECT_NE(Cache.Store.quantized(), nullptr);
  }
  std::string Dir = testing::TempDir() + "/kast_restart_routed_v3";
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(writeShardedProfileImages(Exported, Dir).ok());

  Expected<std::vector<ProfileStoreCache>> Images =
      loadShardedProfileImages(Dir, kernel().name());
  ASSERT_TRUE(Images.hasValue()) << Images.message();
  Expected<IndexService> Restored =
      IndexService::fromShardCaches(Images.take(), Options);
  ASSERT_TRUE(Restored.hasValue()) << Restored.message();
  EXPECT_EQ(Restored->snapshot().routedShardCount(), Options.Shards);

  // Routed (pruned, quantized-shortlist) answers match the original
  // service bit for bit — router, postings, and int8 codes all came
  // through the image.
  NamedProfiles Q = makeProfiles(kernel(), 5, "q", 72);
  for (const KernelProfile &Query : Q.Profiles)
    EXPECT_EQ(Restored->queryApprox(Query, 5, true, 0, 1),
              Service.queryApprox(Query, 5, true, 0, 1));

  // Writers on the restored service must not disturb the mapped
  // segments: adds stage beside them, removes tombstone them, and a
  // pre-mutation snapshot keeps answering identically.
  IndexSnapshot Before = Restored->snapshot();
  std::vector<ServiceHit> Pinned = Before.query(Q.Profiles[0], 5, true, 1);
  NamedProfiles Extra = makeProfiles(kernel(), 8, "x", 73);
  for (size_t I = 0; I < Extra.Profiles.size(); ++I)
    Restored->add(Extra.Names[I], Extra.Labels[I], Extra.Profiles[I]);
  ASSERT_EQ(Restored->remove(P.Names[2]), 1u);
  EXPECT_EQ(Before.query(Q.Profiles[0], 5, true, 1), Pinned);
  EXPECT_EQ(Restored->size(), P.Profiles.size() + Extra.Profiles.size() - 1);

  // Compaction rebuilds owned arenas (promoting away from the mapped
  // image entirely) and the service still answers exactly.
  Restored->compact(1);
  for (const KernelProfile &Query : Q.Profiles) {
    std::vector<ServiceHit> Exact = Restored->query(Query, 5, true, 1);
    EXPECT_EQ(Restored->queryApprox(Query, 5, true, 0, 1), Exact);
  }
}

TEST(IndexServiceTest, EmbeddedRoutingMismatchFailsRestore) {
  // Routing arenas paired with contents they were not fitted on
  // (here: a truncated copy of the shard) must fail loudly at restore.
  IndexService Service("k", {.Shards = 1});
  KernelProfile P;
  P.add(3, 1.0);
  P.finalize();
  for (size_t I = 0; I < 6; ++I)
    Service.add("n" + std::to_string(I), "l", P);
  RoutingOptions Route;
  Route.Cluster.NumCentroids = 2;
  Service.rebuildRouting(Route, 1);
  std::vector<ProfileStoreCache> Exported = Service.toShardCaches();
  ASSERT_EQ(Exported.size(), 1u);
  ASSERT_NE(Exported[0].Routing, nullptr);

  // Drop one profile but keep the arenas.
  ProfileStoreCache Stale;
  Stale.KernelName = Exported[0].KernelName;
  Stale.Routing = Exported[0].Routing;
  for (size_t I = 0; I + 1 < Exported[0].Store.size(); ++I) {
    Stale.Store.appendFrom(Exported[0].Store, I);
    Stale.Names.push_back(Exported[0].Names[I]);
    Stale.Labels.push_back(Exported[0].Labels[I]);
  }
  Expected<IndexService> Bad = IndexService::fromShardCaches({Stale});
  ASSERT_FALSE(Bad.hasValue());
  EXPECT_NE(Bad.message().find("does not match"), std::string::npos)
      << Bad.message();
}

//===----------------------------------------------------------------------===//
// Concurrency stress: snapshot consistency under add/remove/query
//===----------------------------------------------------------------------===//

TEST(IndexServiceStressTest, SnapshotsStayConsistentUnderConcurrentWrites) {
  // Writers interleave adds and removes while readers continuously
  // snapshot and query. The contract under test: a snapshot answers
  // identically no matter when it is re-queried — mid-churn, from
  // another thread, or after the system quiesces. Runs under the
  // KAST_SANITIZE ASan/UBSan CI job like every other test, which is
  // where a torn publish or use-after-invalidate would surface.
  constexpr size_t Writers = 2;
  constexpr size_t Readers = 2;
  constexpr size_t PerWriter = 60;

  IndexServiceOptions Options;
  Options.Shards = 4;
  Options.SealThreshold = 8;
  IndexService Service(kernel().name(), Options);

  std::vector<NamedProfiles> WriterWork;
  for (size_t W = 0; W < Writers; ++W)
    WriterWork.push_back(
        makeProfiles(kernel(), PerWriter, "w" + std::to_string(W) + "-",
                     100 + W));
  NamedProfiles Q = makeProfiles(kernel(), 4, "q", 200);

  std::atomic<size_t> WritersDone{0};
  std::vector<std::thread> Threads;
  for (size_t W = 0; W < Writers; ++W) {
    Threads.emplace_back([&, W] {
      const NamedProfiles &Work = WriterWork[W];
      for (size_t I = 0; I < Work.Profiles.size(); ++I) {
        Service.add(Work.Names[I], Work.Labels[I], Work.Profiles[I]);
        // Every 7th entry is removed again a few adds later; every
        // 25th add triggers a compaction, so the readers race against
        // tombstoning and arena rebuilds too, not just appends.
        if (I % 7 == 6) {
          EXPECT_EQ(Service.remove(Work.Names[I - 3]), 1u);
        }
        if (I % 25 == 24)
          Service.compact(1);
      }
      WritersDone.fetch_add(1);
    });
  }

  struct Observation {
    IndexSnapshot Snap;
    size_t Size = 0;
    std::vector<std::vector<ServiceHit>> Results;
  };
  std::vector<std::vector<Observation>> Retained(Readers);
  for (size_t R = 0; R < Readers; ++R) {
    Threads.emplace_back([&, R] {
      size_t Iteration = 0;
      // At least one iteration even if the writers win the race to
      // finish, so every reader retains at least one observation.
      do {
        IndexSnapshot Snap = Service.snapshot();
        const size_t Size = Snap.size();
        std::vector<std::vector<ServiceHit>> First =
            Snap.queryBatch(borrowed(Q.Profiles), 5, true, 1);
        // Immediate re-query of the same snapshot: identical top-k,
        // identical size, whatever the writers are doing meanwhile.
        EXPECT_EQ(Snap.queryBatch(borrowed(Q.Profiles), 5, true, 1), First);
        EXPECT_EQ(Snap.size(), Size);
        for (const std::vector<ServiceHit> &Hits : First) {
          EXPECT_LE(Hits.size(), std::min<size_t>(5, Size));
          for (size_t H = 1; H < Hits.size(); ++H)
            EXPECT_GE(Hits[H - 1].Similarity, Hits[H].Similarity);
        }
        if (Iteration++ % 8 == 0)
          Retained[R].push_back({std::move(Snap), Size, std::move(First)});
      } while (WritersDone.load() < Writers);
    });
  }
  for (std::thread &T : Threads)
    T.join();

  // Quiesced re-query of every retained snapshot: the acceptance
  // criterion — what a reader observed mid-churn is exactly what the
  // snapshot still answers now that all writers are gone.
  size_t Checked = 0;
  for (const std::vector<Observation> &PerReader : Retained)
    for (const Observation &O : PerReader) {
      EXPECT_EQ(O.Snap.size(), O.Size);
      EXPECT_EQ(O.Snap.queryBatch(borrowed(Q.Profiles), 5, true, 1),
                O.Results);
      ++Checked;
    }
  EXPECT_GT(Checked, 0u);

  // Final ground truth: after the dust settles the service serves
  // exactly the survivors, bit-identically to a fresh one-shard service.
  IndexService Truth(kernel().name(), {.Shards = 1});
  for (size_t W = 0; W < Writers; ++W) {
    const NamedProfiles &Work = WriterWork[W];
    for (size_t I = 0; I < Work.Profiles.size(); ++I) {
      const bool Removed = I % 7 == 3 && I + 3 < Work.Profiles.size() &&
                           (I + 3) % 7 == 6;
      if (!Removed)
        Truth.add(Work.Names[I], Work.Labels[I], Work.Profiles[I]);
    }
  }
  EXPECT_EQ(Service.size(), Truth.size());
  for (const KernelProfile &Query : Q.Profiles) {
    EXPECT_EQ(flatten(Service.query(Query, 5, true, 1)),
              flatten(Truth.query(Query, 5, true, 1)));
  }
}

} // namespace
