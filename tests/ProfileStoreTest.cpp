//===- tests/ProfileStoreTest.cpp - arena storage and its image ------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The structure-of-arrays storage contract: profiles copied into a
// ProfileStore come back bit-exactly (views, materialized staging
// copies, and every pairwise dot), the Gram fast path over store views
// matches the per-pair baseline across tile boundaries, and a
// ProfileStoreCache written as a flat image is validated on the way
// back in.
//
//===----------------------------------------------------------------------===//

#include "core/KernelMatrix.h"
#include "core/FlatImage.h"
#include "core/ProfileStore.h"
#include "kernels/SpectrumKernels.h"
#include "util/Hashing.h"
#include "util/Rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
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
randomCorpus(const std::shared_ptr<TokenTable> &Table, Rng &R, size_t N) {
  std::vector<WeightedString> Corpus;
  for (size_t I = 0; I < N; ++I) {
    WeightedString S = randomString(Table, R, R.uniformInt(1, 32), 6);
    S.setName("s" + std::to_string(I));
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
// Arena append, views, dots
//===----------------------------------------------------------------------===//

TEST(ProfileStoreTest, ViewsAndDotsMatchStagingProfilesBitExactly) {
  Rng R(10110);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 24);
  BlendedSpectrumKernel Kernel(3, 0.9, /*Weighted=*/true, /*CutWeight=*/2);

  std::vector<KernelProfile> Staged;
  ProfileStore Store;
  for (const WeightedString &S : Corpus) {
    Staged.push_back(Kernel.profile(S));
    EXPECT_EQ(Store.append(Staged.back()), Staged.size() - 1);
  }
  ASSERT_EQ(Store.size(), Corpus.size());
  EXPECT_TRUE(Store.isFinalized());

  size_t TotalEntries = 0;
  for (size_t I = 0; I < Staged.size(); ++I) {
    const ProfileView V = Store.view(I);
    ASSERT_EQ(V.Size, Staged[I].size());
    for (size_t E = 0; E < V.Size; ++E) {
      EXPECT_EQ(V.Hashes[E], Staged[I].entries()[E].Hash);
      EXPECT_EQ(std::bit_cast<uint64_t>(V.Values[E]),
                std::bit_cast<uint64_t>(Staged[I].entries()[E].Value));
    }
    // Cached self-dot and norm agree with the merge-join ground truth.
    EXPECT_EQ(std::bit_cast<uint64_t>(V.SelfDot),
              std::bit_cast<uint64_t>(Staged[I].dot(Staged[I])));
    EXPECT_DOUBLE_EQ(V.Norm, std::sqrt(V.SelfDot));
    EXPECT_EQ(Store.selfDot(I), V.SelfDot);
    EXPECT_EQ(Store.norm(I), V.Norm);
    // Materialized staging copies are bit-exact.
    expectBitExact(Store.materialize(I), Staged[I]);
    TotalEntries += V.Size;
  }
  EXPECT_EQ(Store.entryCount(), TotalEntries);

  // Every pairwise dot — view×view and view×staging — is bit-identical
  // to the staging-type merge join.
  for (size_t I = 0; I < Staged.size(); ++I)
    for (size_t J = 0; J < Staged.size(); ++J) {
      double Truth = Staged[I].dot(Staged[J]);
      EXPECT_EQ(std::bit_cast<uint64_t>(dot(Store.view(I), Store.view(J))),
                std::bit_cast<uint64_t>(Truth))
          << I << "," << J;
      EXPECT_EQ(std::bit_cast<uint64_t>(dot(Store.view(I), Staged[J])),
                std::bit_cast<uint64_t>(Truth))
          << I << "," << J;
    }
}

TEST(ProfileStoreTest, AppendFromCopiesArenaToArenaBitExactly) {
  Rng R(20220);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 12);
  BlendedSpectrumKernel Kernel(3, 0.9, /*Weighted=*/true, /*CutWeight=*/2);

  ProfileStore Source;
  for (const WeightedString &S : Corpus)
    Source.append(Kernel.profile(S));

  // Copy every other profile, out of order, into a fresh arena — the
  // shape of a tombstone-dropping compaction — and check bit patterns
  // plus the carried-over self-dot/norm caches.
  ProfileStore Rebuilt;
  std::vector<size_t> Picks = {9, 1, 5, 3, 7};
  for (size_t P = 0; P < Picks.size(); ++P)
    EXPECT_EQ(Rebuilt.appendFrom(Source, Picks[P]), P);
  ASSERT_EQ(Rebuilt.size(), Picks.size());
  EXPECT_TRUE(Rebuilt.isFinalized());
  for (size_t P = 0; P < Picks.size(); ++P) {
    const ProfileView From = Source.view(Picks[P]);
    const ProfileView To = Rebuilt.view(P);
    ASSERT_EQ(To.Size, From.Size);
    for (size_t E = 0; E < To.Size; ++E) {
      EXPECT_EQ(To.Hashes[E], From.Hashes[E]);
      EXPECT_EQ(std::bit_cast<uint64_t>(To.Values[E]),
                std::bit_cast<uint64_t>(From.Values[E]));
    }
    EXPECT_EQ(std::bit_cast<uint64_t>(To.SelfDot),
              std::bit_cast<uint64_t>(From.SelfDot));
    EXPECT_EQ(std::bit_cast<uint64_t>(To.Norm),
              std::bit_cast<uint64_t>(From.Norm));
  }
}

TEST(ProfileStoreTest, EmptyProfilesTakeZeroArenaSpace) {
  ProfileStore Store;
  KernelProfile NonEmpty;
  NonEmpty.add(7, 2.0);
  NonEmpty.finalize();

  Store.append(KernelProfile());
  Store.append(NonEmpty);
  Store.append(KernelProfile());

  ASSERT_EQ(Store.size(), 3u);
  EXPECT_EQ(Store.entryCount(), 1u);
  EXPECT_TRUE(Store.view(0).empty());
  EXPECT_TRUE(Store.view(2).empty());
  EXPECT_EQ(Store.view(0).Norm, 0.0);
  EXPECT_EQ(Store.view(1).Size, 1u);
  EXPECT_DOUBLE_EQ(Store.view(1).SelfDot, 4.0);
  EXPECT_EQ(dot(Store.view(0), Store.view(1)), 0.0);
  EXPECT_TRUE(Store.materialize(0).empty());
}

TEST(ProfileStoreTest, AdoptRebuildsNormsAndValidates) {
  // Two profiles: {(1, 3.0), (5, 4.0)} and {(2, 1.0)}.
  ProfileStore Store = ProfileStore::adopt({1, 5, 2}, {3.0, 4.0, 1.0},
                                           {0, 2, 3});
  ASSERT_EQ(Store.size(), 2u);
  EXPECT_TRUE(Store.isFinalized());
  EXPECT_DOUBLE_EQ(Store.selfDot(0), 25.0);
  EXPECT_DOUBLE_EQ(Store.norm(0), 5.0);
  EXPECT_DOUBLE_EQ(Store.selfDot(1), 1.0);

  // Unsorted (or duplicated) hashes within one profile break the
  // finalize() invariant the dot kernels rely on.
  EXPECT_FALSE(
      ProfileStore::adopt({5, 1}, {1.0, 1.0}, {0, 2}).isFinalized());
  EXPECT_FALSE(
      ProfileStore::adopt({3, 3}, {1.0, 1.0}, {0, 2}).isFinalized());
}

//===----------------------------------------------------------------------===//
// Tiled Gram fill over the store (KernelMatrix fast path)
//===----------------------------------------------------------------------===//

TEST(ProfileStoreTest, TiledGramMatchesPerPairBaselineAcrossTileEdges) {
  Rng R(646465);
  auto Table = TokenTable::create();
  // 70 + 70 rows: the initial build and the appended block both
  // straddle the 64-row tile edge, so partial edge tiles, full tiles,
  // and the rectangle/triangle split all get exercised.
  std::vector<WeightedString> Base = randomCorpus(Table, R, 70);
  std::vector<WeightedString> Extra = randomCorpus(Table, R, 70);
  BlendedSpectrumKernel Kernel(3, 1.0, /*Weighted=*/true, /*CutWeight=*/2);

  KernelMatrixOptions Options;
  Options.Threads = 0; // Exercise the parallel tile fill.
  KernelMatrix Gram(Kernel, Options);
  Gram.appendRows(Base);
  ASSERT_NE(Gram.profileStore(), nullptr);
  EXPECT_EQ(Gram.profileStore()->size(), Base.size());
  Gram.appendRows(Extra);
  EXPECT_EQ(Gram.profileStore()->size(), Base.size() + Extra.size());

  std::vector<WeightedString> All = Base;
  All.insert(All.end(), Extra.begin(), Extra.end());
  KernelMatrixOptions Baseline = Options;
  Baseline.UsePrecompute = false; // Per-pair evaluate(), no store.
  Matrix Truth = computeKernelMatrix(Kernel, All, Baseline);

  Matrix Tiled = Gram.materialize();
  ASSERT_EQ(Tiled.rows(), Truth.rows());
  for (size_t I = 0; I < Truth.rows(); ++I)
    for (size_t J = 0; J < Truth.cols(); ++J)
      EXPECT_NEAR(Tiled.at(I, J), Truth.at(I, J),
                  1e-12 * std::max(1.0, std::fabs(Truth.at(I, J))))
          << "(" << I << ", " << J << ")";
}

TEST(ProfileStoreTest, NonProfiledKernelsKeepTheHandlePath) {
  auto Table = TokenTable::create();
  Rng R(11);
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 4);
  BlendedSpectrumKernel Profiled(2);
  KernelMatrixOptions NoPrecompute;
  NoPrecompute.UsePrecompute = false;
  // UsePrecompute off: even a profiled kernel takes the pairwise path.
  KernelMatrix Off(Profiled, NoPrecompute);
  Off.appendRows(Corpus);
  EXPECT_EQ(Off.profileStore(), nullptr);
  // On: the arena backs the fast path.
  KernelMatrix On(Profiled, {});
  On.appendRows(Corpus);
  EXPECT_NE(On.profileStore(), nullptr);
}

//===----------------------------------------------------------------------===//
// ProfileStoreCache through the flat image
//===----------------------------------------------------------------------===//

ProfileStoreCache makeStoreCache(Rng &R, size_t N,
                                 const std::string &KernelName) {
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, N);
  BlendedSpectrumKernel Kernel(3, 0.8, /*Weighted=*/true, /*CutWeight=*/2);
  ProfileStoreCache Cache;
  Cache.KernelName = KernelName;
  for (size_t I = 0; I < Corpus.size(); ++I) {
    Cache.Names.push_back(Corpus[I].name());
    Cache.Labels.push_back(I % 2 ? "odd" : "even");
    Cache.Store.append(Kernel.profile(Corpus[I]));
  }
  return Cache;
}

std::string imagePath(const std::string &Stem) {
  return testing::TempDir() + "/kast_store_" + Stem + ".kfi";
}

std::string readBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void writeBytes(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

uint64_t u64At(const std::string &Bytes, size_t At) {
  uint64_t V = 0;
  for (size_t I = 0; I < 8; ++I)
    V |= uint64_t(static_cast<unsigned char>(Bytes[At + I])) << (8 * I);
  return V;
}

void setU64(std::string &Bytes, size_t At, uint64_t V) {
  for (size_t I = 0; I < 8; ++I)
    Bytes[At + I] = static_cast<char>((V >> (8 * I)) & 0xFF);
}

/// Re-signs the header (bytes [0,48) plus the section table) after a
/// deliberate edit of a covered field, so the edit itself is what the
/// reader judges.
void resignHeader(std::string &Bytes) {
  const size_t Table = static_cast<size_t>(u64At(Bytes, 8) >> 32) * 32;
  const std::string Covered = Bytes.substr(0, 48) + Bytes.substr(64, Table);
  setU64(Bytes, 48, checksumBytes(Covered.data(), Covered.size()));
}

TEST(ProfileStoreCacheTest, RejectsBadMagicTruncationAndCorruptOffsets) {
  Rng R(40404);
  ProfileStoreCache Cache = makeStoreCache(R, 5, "k");
  const std::string Path = imagePath("reject");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());
  const std::string Bytes = readBytes(Path);

  auto Reject = [&](const std::string &Bad) {
    writeBytes(Path, Bad);
    Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path);
    EXPECT_FALSE(E.hasValue());
    return E.hasValue() ? std::string() : E.message();
  };
  {
    std::string Bad = Bytes;
    Bad[0] = 'X';
    EXPECT_NE(Reject(Bad).find("magic"), std::string::npos);
  }
  {
    std::string Bad = Bytes;
    Bad[8] = 99; // Version field (little-endian low byte).
    resignHeader(Bad);
    EXPECT_NE(Reject(Bad).find("version"), std::string::npos);
  }
  // Truncation anywhere — inside the header, the section table, or a
  // section — is a diagnostic, not garbage.
  for (size_t Cut : {Bytes.size() - 1, Bytes.size() - 9, Bytes.size() / 2,
                     size_t(30), size_t(10)})
    EXPECT_NE(Reject(Bytes.substr(0, Cut)).find("truncated"),
              std::string::npos)
        << "cut at " << Cut;

  // An entry total inconsistent with the offsets is rejected before
  // any profile is served.
  {
    std::string Bad = Bytes;
    setU64(Bad, 32, u64At(Bytes, 32) + 1);
    resignHeader(Bad);
    EXPECT_FALSE(Reject(Bad).empty());
  }
}

TEST(ProfileStoreCacheTest, CorruptOffsetsDiagnoseBeforeEntryAdoption) {
  // A tiny store with known arrays so the CSR offsets {0, 2, 3} have a
  // unique 24-byte encoding in the image.
  ProfileStoreCache Cache;
  Cache.KernelName = "k";
  Cache.Names = std::vector<std::string>{"a", "b"};
  Cache.Labels = std::vector<std::string>{"", ""};
  Cache.Store = ProfileStore::adopt({0x1111111111111111ULL,
                                     0x2222222222222222ULL,
                                     0x3333333333333333ULL},
                                    {3.0, 4.0, 1.0}, {0, 2, 3});
  const std::string Path = imagePath("csr");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());
  const std::string Bytes = readBytes(Path);

  // Locate the offsets section by its unique byte pattern, break
  // monotonicity ({0, 2, 3} -> {0, 7, 3}), and fix its table checksum
  // so the CSR validation — not the checksum — is what fires.
  std::string Pattern(24, '\0');
  Pattern[8] = 2;
  Pattern[16] = 3;
  const size_t At = Bytes.find(Pattern);
  ASSERT_NE(At, std::string::npos);
  ASSERT_EQ(Bytes.find(Pattern, At + 1), std::string::npos);
  std::string Bad = Bytes;
  Bad[At + 8] = 7;
  const size_t Sections = static_cast<size_t>(u64At(Bytes, 8) >> 32);
  for (size_t I = 0; I < Sections; ++I) {
    const size_t Entry = 64 + I * 32;
    if (u64At(Bad, Entry + 8) == At)
      setU64(Bad, Entry + 24, checksumBytes(Bad.data() + At, 24));
  }
  resignHeader(Bad);
  writeBytes(Path, Bad);

  Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path);
  ASSERT_FALSE(E.hasValue());
  EXPECT_NE(E.message().find("offsets"), std::string::npos) << E.message();
  EXPECT_NE(E.message().find("monotonic"), std::string::npos) << E.message();
}

TEST(ProfileStoreCacheTest, FileRoundTripAndWriterValidation) {
  Rng R(50505);
  ProfileStoreCache Cache = makeStoreCache(R, 6, "k");
  const std::string Path = imagePath("rt");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());
  Expected<ProfileStoreCache> Loaded = readProfileStoreImageFile(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  EXPECT_EQ(Loaded->Store.hashes(), Cache.Store.hashes());
  EXPECT_EQ(Loaded->Names, Cache.Names);

  // A cache whose name/label tables disagree with the store is a
  // writer-side error, not a corrupt file — and the failed save leaves
  // the previous image in place.
  Cache.Names.pop_back();
  Status S = writeProfileStoreImageFile(Cache, Path);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.message().find("names"), std::string::npos) << S.message();
  Expected<ProfileStoreCache> Kept = readProfileStoreImageFile(Path);
  ASSERT_TRUE(Kept.hasValue()) << Kept.message();
  EXPECT_EQ(Kept->Store.size(), 6u);
}

} // namespace
