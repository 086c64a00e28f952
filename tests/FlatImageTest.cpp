//===- tests/FlatImageTest.cpp - the flat-image profile format -------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The zero-copy persistence contract of core/FlatImage: a flat image
// round-trips a ProfileStoreCache bit-exactly whether it is mmapped or
// read through the buffered fallback, the mapping survives unlink and
// writer mutation (copy-on-write promotion) and a save over the mapped
// file itself, the int8 sidecar and the routing arenas ride along, and
// every corruption mode — truncation, flipped
// section bytes, a tampered section table, a wrong kernel hash, a
// misaligned section — fails loudly with a diagnostic naming the
// problem instead of serving garbage.
//
//===----------------------------------------------------------------------===//

#include "core/FlatImage.h"
#include "core/ProfileStore.h"
#include "index/IndexService.h"
#include "kernels/SpectrumKernels.h"
#include "util/Hashing.h"
#include "util/Rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <filesystem>
#include <fstream>

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

ProfileStoreCache makeStoreCache(Rng &R, size_t N,
                                 const std::string &KernelName) {
  auto Table = TokenTable::create();
  BlendedSpectrumKernel Kernel(3, 0.8, /*Weighted=*/true, /*CutWeight=*/2);
  ProfileStoreCache Cache;
  Cache.KernelName = KernelName;
  for (size_t I = 0; I < N; ++I) {
    WeightedString S = randomString(Table, R, R.uniformInt(1, 32), 6);
    Cache.Names.push_back("s" + std::to_string(I));
    Cache.Labels.push_back(I % 2 ? "odd" : "even");
    Cache.Store.append(Kernel.profile(S));
  }
  return Cache;
}

std::string tempImagePath(const std::string &Stem) {
  return testing::TempDir() + "/kast_" + Stem + ".kfi";
}

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void writeFileBytes(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(Out.good()) << Path;
}

uint64_t readU64(const std::string &Bytes, size_t At) {
  uint64_t V = 0;
  for (int I = 0; I < 8; ++I)
    V |= static_cast<uint64_t>(
             static_cast<unsigned char>(Bytes[At + static_cast<size_t>(I)]))
         << (8 * I);
  return V;
}

void writeU64(std::string &Bytes, size_t At, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Bytes[At + static_cast<size_t>(I)] =
        static_cast<char>((V >> (8 * I)) & 0xFF);
}

uint32_t readU32(const std::string &Bytes, size_t At) {
  uint32_t V = 0;
  for (int I = 0; I < 4; ++I)
    V |= static_cast<uint32_t>(
             static_cast<unsigned char>(Bytes[At + static_cast<size_t>(I)]))
         << (8 * I);
  return V;
}

/// Locates section \p Id in raw image bytes via the section table.
/// Returns the index of its 32-byte table entry, or npos.
size_t findTableEntry(const std::string &Bytes, FlatSectionId Id) {
  const uint32_t SectionCount = readU32(Bytes, 12);
  for (uint32_t I = 0; I < SectionCount; ++I) {
    const size_t Entry = 64 + static_cast<size_t>(I) * 32;
    if (readU32(Bytes, Entry) == static_cast<uint32_t>(Id))
      return Entry;
  }
  return std::string::npos;
}

/// Recomputes the header checksum (over bytes [0,48) plus the section
/// table) after a test deliberately patched a covered field — so the
/// corruption under test is reached instead of masked by the header
/// checksum check.
void fixHeaderSum(std::string &Bytes) {
  const uint32_t SectionCount = readU32(Bytes, 12);
  std::string Checked = Bytes.substr(0, 48) +
                        Bytes.substr(64, static_cast<size_t>(SectionCount) * 32);
  writeU64(Bytes, 48, checksumBytes(Checked.data(), Checked.size()));
}

void expectStoresBitExact(const ProfileStore &A, const ProfileStore &B) {
  ASSERT_EQ(A.size(), B.size());
  ASSERT_EQ(A.entryCount(), B.entryCount());
  EXPECT_EQ(A.hashes(), B.hashes());
  EXPECT_EQ(A.offsets(), B.offsets());
  for (size_t I = 0; I < A.entryCount(); ++I)
    EXPECT_EQ(std::bit_cast<uint64_t>(A.values()[I]),
              std::bit_cast<uint64_t>(B.values()[I]));
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(std::bit_cast<uint64_t>(A.selfDot(I)),
              std::bit_cast<uint64_t>(B.selfDot(I)));
    EXPECT_EQ(std::bit_cast<uint64_t>(A.norm(I)),
              std::bit_cast<uint64_t>(B.norm(I)));
  }
}

//===----------------------------------------------------------------------===//
// Round trips
//===----------------------------------------------------------------------===//

TEST(FlatImageTest, RoundTripsStoreBitExactly) {
  Rng R(70707);
  ProfileStoreCache Cache = makeStoreCache(R, 23, "blended");
  const std::string Path = tempImagePath("rt");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());

  Expected<ProfileStoreCache> Loaded = readProfileStoreImageFile(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  EXPECT_EQ(Loaded->KernelName, "blended");
  EXPECT_EQ(Loaded->Names, Cache.Names);
  EXPECT_EQ(Loaded->Labels, Cache.Labels);
  EXPECT_EQ(Loaded->Routing, nullptr);
  expectStoresBitExact(Loaded->Store, Cache.Store);
  EXPECT_TRUE(Loaded->Store.isFinalized());

  // Deep validation (full entry-section checksums) passes on an
  // intact file too.
  FlatImageReadOptions Deep;
  Deep.DeepValidate = true;
  Expected<ProfileStoreCache> Audited = readProfileStoreImageFile(Path, Deep);
  ASSERT_TRUE(Audited.hasValue()) << Audited.message();
  expectStoresBitExact(Audited->Store, Cache.Store);
}

TEST(FlatImageTest, BufferedFallbackMatchesMappedRead) {
  Rng R(80808);
  ProfileStoreCache Cache = makeStoreCache(R, 11, "k");
  const std::string Path = tempImagePath("buffered");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());

  Expected<ProfileStoreCache> Mapped = readProfileStoreImageFile(Path);
  ASSERT_TRUE(Mapped.hasValue()) << Mapped.message();
  FlatImageReadOptions Buffered;
  Buffered.ForceBuffered = true;
  Expected<ProfileStoreCache> Heap = readProfileStoreImageFile(Path, Buffered);
  ASSERT_TRUE(Heap.hasValue()) << Heap.message();

  EXPECT_EQ(Heap->KernelName, Mapped->KernelName);
  EXPECT_EQ(Heap->Names, Mapped->Names);
  EXPECT_EQ(Heap->Labels, Mapped->Labels);
  expectStoresBitExact(Heap->Store, Mapped->Store);
  // Both paths view their backing (mmap or heap) rather than copying
  // into owned arenas.
  EXPECT_TRUE(Mapped->Store.isMapped());
  EXPECT_TRUE(Heap->Store.isMapped());
}

TEST(FlatImageTest, EmptyStoreRoundTrips) {
  ProfileStoreCache Cache;
  Cache.KernelName = "k";
  const std::string Path = tempImagePath("empty");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());
  Expected<ProfileStoreCache> Loaded = readProfileStoreImageFile(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  EXPECT_EQ(Loaded->KernelName, "k");
  EXPECT_EQ(Loaded->Store.size(), 0u);
  EXPECT_EQ(Loaded->Store.entryCount(), 0u);
  EXPECT_TRUE(Loaded->Names.empty());
  EXPECT_TRUE(Loaded->Labels.empty());
}

//===----------------------------------------------------------------------===//
// Mapping lifetime
//===----------------------------------------------------------------------===//

TEST(FlatImageTest, MappingSurvivesUnlink) {
  Rng R(111213);
  ProfileStoreCache Cache = makeStoreCache(R, 9, "k");
  const std::string Path = tempImagePath("unlink");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());
  Expected<ProfileStoreCache> Loaded = readProfileStoreImageFile(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();

  ASSERT_TRUE(std::filesystem::remove(Path));
  // Every byte remains readable through the (anonymous-after-unlink)
  // mapping.
  expectStoresBitExact(Loaded->Store, Cache.Store);
}

TEST(FlatImageTest, WriterPromotionLeavesTheImageUntouched) {
  Rng R(141516);
  ProfileStoreCache Cache = makeStoreCache(R, 12, "k");
  const std::string Path = tempImagePath("promote");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());
  const std::string Before = readFileBytes(Path);

  Expected<ProfileStoreCache> Loaded = readProfileStoreImageFile(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  ASSERT_TRUE(Loaded->Store.isMapped());

  // First mutation promotes the store to owned arrays; the mapped
  // bytes (and hence the file and every other process sharing its
  // pages) stay untouched.
  KernelProfile Extra;
  Extra.add(42, 2.5);
  Extra.finalize();
  const size_t NewIndex = Loaded->Store.append(Extra);
  EXPECT_EQ(NewIndex, Cache.Store.size());
  EXPECT_FALSE(Loaded->Store.isMapped());
  EXPECT_EQ(Loaded->Store.size(), Cache.Store.size() + 1);
  EXPECT_EQ(Loaded->Store.view(NewIndex).Hashes[0], 42u);

  // The pre-promotion prefix is still bit-exact...
  for (size_t I = 0; I < Cache.Store.size(); ++I) {
    const ProfileView A = Loaded->Store.view(I);
    const ProfileView B = Cache.Store.view(I);
    ASSERT_EQ(A.Size, B.Size);
    for (size_t E = 0; E < A.Size; ++E) {
      EXPECT_EQ(A.Hashes[E], B.Hashes[E]);
      EXPECT_EQ(std::bit_cast<uint64_t>(A.Values[E]),
                std::bit_cast<uint64_t>(B.Values[E]));
    }
  }
  // ...and the file bytes never changed: a fresh open still sees the
  // original store.
  EXPECT_EQ(readFileBytes(Path), Before);
  Expected<ProfileStoreCache> Again = readProfileStoreImageFile(Path);
  ASSERT_TRUE(Again.hasValue()) << Again.message();
  EXPECT_EQ(Again->Store.size(), Cache.Store.size());
  expectStoresBitExact(Again->Store, Cache.Store);
}

//===----------------------------------------------------------------------===//
// Failure modes
//===----------------------------------------------------------------------===//

TEST(FlatImageTest, RejectsTruncation) {
  Rng R(171819);
  ProfileStoreCache Cache = makeStoreCache(R, 7, "k");
  const std::string Path = tempImagePath("truncate");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());
  const std::string Bytes = readFileBytes(Path);
  ASSERT_GT(Bytes.size(), 4096u);

  // Cuts inside the header, inside the section table, at a page
  // boundary, and one byte short of the end.
  for (size_t Cut : {size_t(10), size_t(80), size_t(4096), Bytes.size() - 1}) {
    const std::string Cropped = tempImagePath("truncate_cut");
    writeFileBytes(Cropped, Bytes.substr(0, Cut));
    Expected<ProfileStoreCache> E = readProfileStoreImageFile(Cropped);
    EXPECT_FALSE(E.hasValue()) << "cut at " << Cut;
    if (!E.hasValue()) {
      EXPECT_NE(E.message().find("truncated"), std::string::npos)
          << "cut at " << Cut << ": " << E.message();
    }
  }
}

TEST(FlatImageTest, RejectsSectionChecksumMismatch) {
  Rng R(202122);
  ProfileStoreCache Cache = makeStoreCache(R, 8, "k");
  const std::string Path = tempImagePath("badsum");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());
  const std::string Good = readFileBytes(Path);

  // A flipped byte in an O(N) metadata section (self-dots) fails every
  // open, shallow or deep.
  {
    const size_t Entry = findTableEntry(Good, FlatSectionId::SelfDots);
    ASSERT_NE(Entry, std::string::npos);
    std::string Bad = Good;
    Bad[static_cast<size_t>(readU64(Good, Entry + 8))] ^= 0x01;
    writeFileBytes(Path, Bad);
    Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path);
    ASSERT_FALSE(E.hasValue());
    EXPECT_NE(E.message().find("checksum"), std::string::npos) << E.message();
  }

  // A flipped byte in an entry-sized section (hashes) is caught by
  // deep validation; the default open skips the O(entries) sweep on
  // the mapped path by design. (Under KAST_FORCE_BUFFERED the fallback
  // always deep-validates, so only the deep half applies.)
  {
    const size_t Entry = findTableEntry(Good, FlatSectionId::Hashes);
    ASSERT_NE(Entry, std::string::npos);
    std::string Bad = Good;
    // Flip a low bit of one hash value high enough up the lane to keep
    // per-profile hash ordering plausible either way; the checksum
    // check is what must fire.
    Bad[static_cast<size_t>(readU64(Good, Entry + 8))] ^= 0x01;
    writeFileBytes(Path, Bad);
    FlatImageReadOptions Deep;
    Deep.DeepValidate = true;
    Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path, Deep);
    ASSERT_FALSE(E.hasValue());
    EXPECT_NE(E.message().find("checksum"), std::string::npos) << E.message();
    if (std::getenv("KAST_FORCE_BUFFERED") == nullptr) {
      Expected<ProfileStoreCache> Shallow = readProfileStoreImageFile(Path);
      EXPECT_TRUE(Shallow.hasValue()) << Shallow.message();
    }
  }
}

TEST(FlatImageTest, RejectsHeaderTamperAndWrongKernelHash) {
  Rng R(232425);
  ProfileStoreCache Cache = makeStoreCache(R, 6, "k");
  const std::string Path = tempImagePath("header");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());
  const std::string Good = readFileBytes(Path);

  // Tampering with the section table without fixing the header sum is
  // caught by the header checksum...
  {
    std::string Bad = Good;
    Bad[64 + 16] ^= 0x01; // Some section's byteSize field.
    writeFileBytes(Path, Bad);
    Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path);
    ASSERT_FALSE(E.hasValue());
    EXPECT_NE(E.message().find("header checksum"), std::string::npos)
        << E.message();
  }
  // ...and a kernel hash that checks out against the header but not
  // the kernel-name bytes is caught by the cross-check.
  {
    std::string Bad = Good;
    writeU64(Bad, 16, readU64(Good, 16) ^ 0xDEADBEEFULL);
    fixHeaderSum(Bad);
    writeFileBytes(Path, Bad);
    Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path);
    ASSERT_FALSE(E.hasValue());
    EXPECT_NE(E.message().find("kernel-name hash"), std::string::npos)
        << E.message();
  }
}

TEST(FlatImageTest, RejectsMisalignedSection) {
  Rng R(262728);
  ProfileStoreCache Cache = makeStoreCache(R, 5, "k");
  const std::string Path = tempImagePath("misaligned");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());
  std::string Bad = readFileBytes(Path);

  const size_t Entry = findTableEntry(Bad, FlatSectionId::Offsets);
  ASSERT_NE(Entry, std::string::npos);
  writeU64(Bad, Entry + 8, readU64(Bad, Entry + 8) + 4);
  fixHeaderSum(Bad);
  writeFileBytes(Path, Bad);
  Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path);
  ASSERT_FALSE(E.hasValue());
  EXPECT_NE(E.message().find("aligned"), std::string::npos) << E.message();
}

TEST(FlatImageTest, RejectsCorruptCsrOffsets) {
  Rng R(293031);
  ProfileStoreCache Cache = makeStoreCache(R, 5, "k");
  const std::string Path = tempImagePath("csr");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());
  std::string Bad = readFileBytes(Path);

  // Break monotonicity of the offsets array and re-checksum the
  // section so validateCsrOffsets (not the checksum) fires — the
  // shared seam with the v2 reader.
  const size_t Entry = findTableEntry(Bad, FlatSectionId::Offsets);
  ASSERT_NE(Entry, std::string::npos);
  const size_t Offset = static_cast<size_t>(readU64(Bad, Entry + 8));
  const size_t Size = static_cast<size_t>(readU64(Bad, Entry + 16));
  writeU64(Bad, Offset + 8, readU64(Bad, Offset + 16) + 100);
  writeU64(Bad, Entry + 24, checksumBytes(Bad.data() + Offset, Size));
  fixHeaderSum(Bad);
  writeFileBytes(Path, Bad);
  Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path);
  ASSERT_FALSE(E.hasValue());
  EXPECT_NE(E.message().find("offsets"), std::string::npos) << E.message();
}

TEST(FlatImageTest, RejectsMissingFile) {
  Expected<ProfileStoreCache> E =
      readProfileStoreImageFile(testing::TempDir() + "/kast_no_such.kfi");
  EXPECT_FALSE(E.hasValue());
}

//===----------------------------------------------------------------------===//
// v4 routing arenas
//===----------------------------------------------------------------------===//

/// Bit-identical, not just ==: a restored routed shard must reproduce
/// the fitted service's similarity bit patterns, so a double compare
/// (which lets -0.0 pass for +0.0) is not enough.
void expectHitsBitIdentical(const std::vector<ServiceHit> &Restored,
                            const std::vector<ServiceHit> &Truth,
                            const std::string &What) {
  ASSERT_EQ(Restored.size(), Truth.size()) << What;
  for (size_t I = 0; I < Truth.size(); ++I) {
    EXPECT_EQ(Restored[I].Name, Truth[I].Name) << What << " rank " << I;
    EXPECT_EQ(Restored[I].Label, Truth[I].Label) << What << " rank " << I;
    EXPECT_EQ(std::bit_cast<uint64_t>(Restored[I].Similarity),
              std::bit_cast<uint64_t>(Truth[I].Similarity))
        << What << " rank " << I;
  }
}

/// A single-shard routed service over \p Cache's entries; its
/// toShardCaches export carries the flat routing arenas a v4 image
/// serializes.
IndexService makeRoutedService(const ProfileStoreCache &Cache) {
  IndexService Service(Cache.KernelName, {.Shards = 1, .SealThreshold = 8});
  for (size_t I = 0; I < Cache.Store.size(); ++I)
    Service.add(Cache.Names.str(I), Cache.Labels.str(I),
                Cache.Store.materialize(I));
  RoutingOptions Route;
  Route.Cluster.NumCentroids = 4;
  Route.MaxDocFrequency = 0.9;
  Route.DefaultNProbe = 2;
  Route.RerankBudget = 8;
  Service.rebuildRouting(Route, 1);
  return Service;
}

/// Writes a routed single-shard image at \p Path and returns the
/// fitted service (the differential truth for restored queries).
IndexService writeRoutedImage(Rng &R, size_t N, const std::string &Path) {
  ProfileStoreCache Corpus = makeStoreCache(R, N, "k");
  IndexService Service = makeRoutedService(Corpus);
  std::vector<ProfileStoreCache> Exported = Service.toShardCaches();
  EXPECT_NE(Exported[0].Routing, nullptr);
  EXPECT_TRUE(writeProfileStoreImageFile(Exported[0], Path).ok());
  return Service;
}

TEST(FlatImageTest, RoutedImageRestoresWithoutRefitOrRebuild) {
  Rng R(353637);
  const std::string Path = tempImagePath("routed_rt");
  IndexService Service = writeRoutedImage(R, 32, Path);

  // Routing arenas bump the image to version 4.
  EXPECT_EQ(readU32(readFileBytes(Path), 8), 4u);

  const uint64_t Fits = kmeansFitCount();
  const uint64_t Rebuilds = postingRebuildCount();
  FlatImageReadOptions Deep;
  Deep.DeepValidate = true;
  Expected<ProfileStoreCache> Loaded = readProfileStoreImageFile(Path, Deep);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  ASSERT_NE(Loaded->Routing, nullptr);
  EXPECT_EQ(Loaded->Routing->Covered, Loaded->Store.size());
  // Strings decode lazily: the open materialized no name or label.
  if (std::getenv("KAST_FORCE_BUFFERED") == nullptr) {
    EXPECT_TRUE(Loaded->Names.isMapped());
    EXPECT_TRUE(Loaded->Labels.isMapped());
  }

  std::vector<ProfileStoreCache> Caches;
  Caches.push_back(Loaded.take());
  Expected<IndexService> Restored = IndexService::fromShardCaches(
      std::move(Caches), {.Shards = 1, .SealThreshold = 8});
  ASSERT_TRUE(Restored.hasValue()) << Restored.message();
  ASSERT_EQ(Restored->snapshot().routedShardCount(), 1u);
  // The whole restore performed no k-means fit and no posting rebuild.
  EXPECT_EQ(kmeansFitCount(), Fits);
  EXPECT_EQ(postingRebuildCount(), Rebuilds);

  // Mapped-arena answers are bit-identical to the fitted service's,
  // routed (pruned, budgeted) and exact alike.
  auto Table = TokenTable::create();
  BlendedSpectrumKernel Kernel(3, 0.8, /*Weighted=*/true, /*CutWeight=*/2);
  for (int I = 0; I < 6; ++I) {
    KernelProfile Q = Kernel.profile(randomString(Table, R, 24, 6));
    expectHitsBitIdentical(Restored->queryApprox(Q, 5, true, 0, 1),
                           Service.queryApprox(Q, 5, true, 0, 1),
                           "routed q" + std::to_string(I));
    expectHitsBitIdentical(Restored->query(Q, 5, true, 1),
                           Service.query(Q, 5, true, 1),
                           "exact q" + std::to_string(I));
  }
}

TEST(FlatImageTest, RoutedRestoreBufferedMatchesMapped) {
  Rng R(383940);
  const std::string Path = tempImagePath("routed_buffered");
  IndexService Service = writeRoutedImage(R, 24, Path);

  FlatImageReadOptions Buffered;
  Buffered.ForceBuffered = true;
  const uint64_t Fits = kmeansFitCount();
  const uint64_t Rebuilds = postingRebuildCount();
  Expected<ProfileStoreCache> Heap = readProfileStoreImageFile(Path, Buffered);
  ASSERT_TRUE(Heap.hasValue()) << Heap.message();
  ASSERT_NE(Heap->Routing, nullptr);

  std::vector<ProfileStoreCache> Caches;
  Caches.push_back(Heap.take());
  Expected<IndexService> Restored = IndexService::fromShardCaches(
      std::move(Caches), {.Shards = 1, .SealThreshold = 8});
  ASSERT_TRUE(Restored.hasValue()) << Restored.message();
  ASSERT_EQ(Restored->snapshot().routedShardCount(), 1u);
  // The buffered fallback views its heap copy exactly like the mmap
  // path views the mapping: still no refit, no rebuild.
  EXPECT_EQ(kmeansFitCount(), Fits);
  EXPECT_EQ(postingRebuildCount(), Rebuilds);

  auto Table = TokenTable::create();
  BlendedSpectrumKernel Kernel(3, 0.8, /*Weighted=*/true, /*CutWeight=*/2);
  for (int I = 0; I < 5; ++I) {
    KernelProfile Q = Kernel.profile(randomString(Table, R, 20, 6));
    expectHitsBitIdentical(Restored->queryApprox(Q, 4, true, 0, 1),
                           Service.queryApprox(Q, 4, true, 0, 1),
                           "buffered q" + std::to_string(I));
  }
}

TEST(FlatImageTest, RoutedSectionTruncationAndChecksums) {
  Rng R(414243);
  const std::string Path = tempImagePath("routed_corrupt");
  writeRoutedImage(R, 16, Path);
  const std::string Good = readFileBytes(Path);

  // Truncation inside the routing tail of the image.
  {
    writeFileBytes(Path, Good.substr(0, Good.size() - 1));
    Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path);
    ASSERT_FALSE(E.hasValue());
    EXPECT_NE(E.message().find("truncated"), std::string::npos)
        << E.message();
  }

  // A flipped byte in an O(N) routing section (the assignments) fails
  // every open, shallow or deep.
  {
    const size_t Entry = findTableEntry(Good, FlatSectionId::RouteAssignments);
    ASSERT_NE(Entry, std::string::npos);
    std::string Bad = Good;
    Bad[static_cast<size_t>(readU64(Good, Entry + 8))] ^= 0x01;
    writeFileBytes(Path, Bad);
    Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path);
    ASSERT_FALSE(E.hasValue());
    EXPECT_NE(E.message().find("checksum"), std::string::npos) << E.message();
  }

  // A flipped byte in an entry-sized routing payload (posting values)
  // is caught by deep validation only — the shallow mapped open skips
  // the O(postings) sweep by design.
  {
    const size_t Entry = findTableEntry(Good, FlatSectionId::PostingValues);
    ASSERT_NE(Entry, std::string::npos);
    std::string Bad = Good;
    Bad[static_cast<size_t>(readU64(Good, Entry + 8))] ^= 0x01;
    writeFileBytes(Path, Bad);
    FlatImageReadOptions Deep;
    Deep.DeepValidate = true;
    Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path, Deep);
    ASSERT_FALSE(E.hasValue());
    EXPECT_NE(E.message().find("checksum"), std::string::npos) << E.message();
    if (std::getenv("KAST_FORCE_BUFFERED") == nullptr) {
      Expected<ProfileStoreCache> Shallow = readProfileStoreImageFile(Path);
      EXPECT_TRUE(Shallow.hasValue()) << Shallow.message();
    }
  }

  // A misaligned routing section is structural, caught before any
  // checksum work.
  {
    const size_t Entry = findTableEntry(Good, FlatSectionId::RouteMeta);
    ASSERT_NE(Entry, std::string::npos);
    std::string Bad = Good;
    writeU64(Bad, Entry + 8, readU64(Good, Entry + 8) + 4);
    fixHeaderSum(Bad);
    writeFileBytes(Path, Bad);
    Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path);
    ASSERT_FALSE(E.hasValue());
    EXPECT_NE(E.message().find("aligned"), std::string::npos) << E.message();
  }

  // The twelve routing sections are all-or-nothing: dropping the last
  // one from the table (and re-signing the header) is rejected, not
  // silently downgraded to an unrouted image.
  {
    std::string Bad = Good;
    const uint32_t SectionCount = readU32(Good, 12);
    ASSERT_EQ(readU32(Bad, 64 + (SectionCount - 1) * 32),
              static_cast<uint32_t>(FlatSectionId::PostingValues));
    Bad[12] = static_cast<char>(SectionCount - 1);
    fixHeaderSum(Bad);
    writeFileBytes(Path, Bad);
    Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path);
    ASSERT_FALSE(E.hasValue());
    EXPECT_NE(E.message().find("all of their sections"), std::string::npos)
        << E.message();
  }
}

TEST(FlatImageTest, RoutedSectionsRejectedUnderVersionSkew) {
  Rng R(444546);
  const std::string Path = tempImagePath("routed_skew");
  writeRoutedImage(R, 12, Path);
  const std::string Good = readFileBytes(Path);

  // Routing sections under a version-3 header: a v3-era reader (or a
  // rolled-back binary) must fail loudly on the unknown ids.
  {
    std::string Bad = Good;
    Bad[8] = 3;
    fixHeaderSum(Bad);
    writeFileBytes(Path, Bad);
    Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path);
    ASSERT_FALSE(E.hasValue());
    EXPECT_NE(E.message().find("unknown section id"), std::string::npos)
        << E.message();
  }
  // A future version is rejected outright.
  {
    std::string Bad = Good;
    Bad[8] = 5;
    fixHeaderSum(Bad);
    writeFileBytes(Path, Bad);
    Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path);
    ASSERT_FALSE(E.hasValue());
    EXPECT_NE(E.message().find("version"), std::string::npos) << E.message();
  }
}

TEST(FlatImageTest, WriterRefusesPartialRoutingCover) {
  // Routing covers one whole shard. A cache whose arenas cover fewer
  // profiles than its store holds is refused, not saved as a routed
  // prefix, by both writers.
  Rng R(515253);
  ProfileStoreCache Corpus = makeStoreCache(R, 12, "k");
  ProfileStoreCache Grown = makeRoutedService(Corpus).toShardCaches()[0];
  ASSERT_NE(Grown.Routing, nullptr);
  Grown.Store.append(Corpus.Store.materialize(0));
  Grown.Names.push_back("extra");
  Grown.Labels.push_back("even");
  ASSERT_EQ(Grown.Routing->Covered + 1, Grown.Store.size());

  const std::string Path = tempImagePath("partial_cover");
  std::filesystem::remove(Path);
  Status S = writeProfileStoreImageFile(Grown, Path);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.message().find("must cover all"), std::string::npos)
      << S.message();
  EXPECT_FALSE(std::filesystem::exists(Path));
  EXPECT_FALSE(std::filesystem::exists(Path + ".tmp"));

  const std::string Dir = testing::TempDir() + "/kast_partial_cover";
  std::filesystem::remove_all(Dir);
  S = writeShardedProfileImages({Grown}, Dir);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.message().find("must cover all"), std::string::npos)
      << S.message();
}

TEST(FlatImageTest, ReaderRefusesPartialRoutingCover) {
  // An image whose routing meta claims a cover one short of its
  // profile count — the assignments section shrunk to match, every
  // checksum re-signed — is consistent in every other respect, so only
  // the cover rule stands between it and a routed prefix.
  Rng R(545556);
  const std::string Path = tempImagePath("partial_cover_read");
  writeRoutedImage(R, 16, Path);
  std::string Bad = readFileBytes(Path);
  const uint64_t N = readU64(Bad, 24);
  const size_t Meta = findTableEntry(Bad, FlatSectionId::RouteMeta);
  const size_t Assign = findTableEntry(Bad, FlatSectionId::RouteAssignments);
  ASSERT_NE(Meta, std::string::npos);
  ASSERT_NE(Assign, std::string::npos);
  const size_t MetaAt = static_cast<size_t>(readU64(Bad, Meta + 8));
  ASSERT_EQ(readU64(Bad, MetaAt + 72), N);
  writeU64(Bad, MetaAt + 72, N - 1);
  writeU64(Bad, Assign + 16, (N - 1) * 4);
  const uint32_t SectionCount = readU32(Bad, 12);
  for (uint32_t I = 0; I < SectionCount; ++I) {
    const size_t Entry = 64 + static_cast<size_t>(I) * 32;
    writeU64(Bad, Entry + 24,
             checksumBytes(Bad.data() + readU64(Bad, Entry + 8),
                           static_cast<size_t>(readU64(Bad, Entry + 16))));
  }
  fixHeaderSum(Bad);
  writeFileBytes(Path, Bad);
  Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path);
  ASSERT_FALSE(E.hasValue());
  EXPECT_NE(E.message().find("must cover all"), std::string::npos)
      << E.message();
}

TEST(FlatImageTest, QuantizedAndRoutingSidecarsRideAlong) {
  Rng R(90909);
  const std::string Path = tempImagePath("sidecars");
  IndexService Service = writeRoutedImage(R, 15, Path);
  const ProfileStoreCache Truth = Service.toShardCaches()[0];
  ASSERT_NE(Truth.Store.quantized(), nullptr);

  FlatImageReadOptions Deep;
  Deep.DeepValidate = true;
  Expected<ProfileStoreCache> Loaded = readProfileStoreImageFile(Path, Deep);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  const QuantizedStore *Q = Loaded->Store.quantized();
  ASSERT_NE(Q, nullptr);
  const QuantizedStore *TruthQ = Truth.Store.quantized();
  ASSERT_EQ(Q->size(), TruthQ->size());
  ASSERT_EQ(Q->entryCount(), TruthQ->entryCount());
  EXPECT_EQ(Q->values(), TruthQ->values());
  for (size_t I = 0; I < Q->size(); ++I)
    EXPECT_EQ(std::bit_cast<uint64_t>(Q->scale(I)),
              std::bit_cast<uint64_t>(TruthQ->scale(I)));
  ASSERT_NE(Loaded->Routing, nullptr);
  const RoutingArenas &A = *Loaded->Routing;
  const RoutingArenas &B = *Truth.Routing;
  EXPECT_EQ(A.Covered, B.Covered);
  EXPECT_EQ(A.RerankBudget, B.RerankBudget);
  EXPECT_EQ(A.Assignments, B.Assignments);
  expectStoresBitExact(A.Centroids, B.Centroids);
  EXPECT_EQ(A.FeatureHashes, B.FeatureHashes);
  EXPECT_EQ(A.PostingBegin, B.PostingBegin);
  EXPECT_EQ(A.PostingIds, B.PostingIds);
}

TEST(FlatImageTest, SavingOverTheMappedSourceKeepsIt) {
  // The loaded cache's arrays alias the mapping of Path itself; the
  // save must stage beside it and rename, never truncate what it is
  // still reading.
  Rng R(505050);
  ProfileStoreCache Cache = makeStoreCache(R, 4000, "k");
  const std::string Path = tempImagePath("self_save");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());
  const std::string Before = readFileBytes(Path);

  Expected<ProfileStoreCache> Loaded = readProfileStoreImageFile(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  Status S = writeProfileStoreImageFile(*Loaded, Path);
  ASSERT_TRUE(S.ok()) << S.message();
  EXPECT_EQ(readFileBytes(Path), Before);
  EXPECT_FALSE(std::filesystem::exists(Path + ".tmp"));
  // The old mapping still reads the original bytes...
  expectStoresBitExact(Loaded->Store, Cache.Store);
  // ...and the rewritten file re-reads bit-identically.
  Expected<ProfileStoreCache> Again = readProfileStoreImageFile(Path);
  ASSERT_TRUE(Again.hasValue()) << Again.message();
  EXPECT_EQ(Again->Names, Cache.Names);
  expectStoresBitExact(Again->Store, Cache.Store);
}

TEST(FlatImageTest, SectionlessV3ImagesStillLoadUnrouted) {
  // An unrouted cache writes the version-3 layout; opening it yields
  // no routing arenas.
  Rng R(474849);
  ProfileStoreCache Cache = makeStoreCache(R, 10, "k");
  const std::string Path = tempImagePath("v3_fallback");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());
  EXPECT_EQ(readU32(readFileBytes(Path), 8), 3u);
  Expected<ProfileStoreCache> Loaded = readProfileStoreImageFile(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  EXPECT_EQ(Loaded->Routing, nullptr);
  expectStoresBitExact(Loaded->Store, Cache.Store);
}

} // namespace
