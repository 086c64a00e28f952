//===- tests/WorkloadsTest.cpp - generators, mutator, corpus ---------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/FlatImage.h"
#include "workloads/CorpusIO.h"
#include "workloads/DatasetBuilder.h"
#include "workloads/Generators.h"
#include "workloads/Mutator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>

using namespace kast;

namespace {

/// \returns the set of operation names in \p T.
std::set<std::string> opNames(const Trace &T) {
  std::set<std::string> Names;
  for (const TraceEvent &E : T.events())
    Names.insert(E.Op);
  return Names;
}

/// \returns true if every open on a handle is eventually closed.
bool openCloseBalanced(const Trace &T) {
  std::set<uint64_t> Open;
  for (const TraceEvent &E : T.events()) {
    if (E.isOpen())
      Open.insert(E.Handle);
    else if (E.isClose())
      Open.erase(E.Handle);
  }
  return Open.empty();
}

} // namespace

//===----------------------------------------------------------------------===//
// Generators — the structural facts behind the paper's clusters
//===----------------------------------------------------------------------===//

TEST(GeneratorTest, Deterministic) {
  Rng R1(99), R2(99);
  for (Category C : {Category::FlashIO, Category::RandomPosix,
                     Category::NormalIO, Category::RandomAccess})
    EXPECT_EQ(generateTrace(C, R1).events(), generateTrace(C, R2).events());
}

TEST(GeneratorTest, OnlyRandomPosixHasLseek) {
  Rng R(1);
  for (int Round = 0; Round < 10; ++Round) {
    EXPECT_TRUE(opNames(generateRandomPosix(R)).count("lseek"));
    EXPECT_FALSE(opNames(generateFlashIO(R)).count("lseek"));
    EXPECT_FALSE(opNames(generateNormalIO(R)).count("lseek"));
    EXPECT_FALSE(opNames(generateRandomAccess(R)).count("lseek"));
  }
}

TEST(GeneratorTest, FlashIOHasDiverseWriteSizes) {
  Rng R(2);
  for (int Round = 0; Round < 10; ++Round) {
    Trace T = generateFlashIO(R);
    std::set<uint64_t> WriteSizes;
    for (const TraceEvent &E : T.events())
      if (E.Op == "write")
        WriteSizes.insert(E.Bytes);
    // "contiguous write operations with different byte values".
    EXPECT_GE(WriteSizes.size(), 4u);
  }
}

TEST(GeneratorTest, FlashIOIsMultiHandle) {
  Rng R(3);
  Trace T = generateFlashIO(R);
  EXPECT_GE(T.handles().size(), 2u);
}

TEST(GeneratorTest, NormalAndRandomAccessShareVocabulary) {
  // C and D must "share roughly the same pattern": same op names and
  // overlapping size pools.
  Rng R(4);
  std::set<uint64_t> SizesC, SizesD;
  std::set<std::string> NamesC, NamesD;
  for (int Round = 0; Round < 20; ++Round) {
    Trace C = generateNormalIO(R);
    for (const TraceEvent &E : C.events()) {
      NamesC.insert(E.Op);
      if (E.Bytes)
        SizesC.insert(E.Bytes);
    }
    Trace D = generateRandomAccess(R);
    for (const TraceEvent &E : D.events()) {
      NamesD.insert(E.Op);
      if (E.Bytes)
        SizesD.insert(E.Bytes);
    }
  }
  EXPECT_EQ(NamesC, NamesD);
  EXPECT_EQ(SizesC, SizesD);
}

TEST(GeneratorTest, AllTracesWellFormed) {
  Rng R(5);
  for (Category C : {Category::FlashIO, Category::RandomPosix,
                     Category::NormalIO, Category::RandomAccess}) {
    for (int Round = 0; Round < 5; ++Round) {
      Trace T = generateTrace(C, R);
      EXPECT_FALSE(T.empty());
      EXPECT_TRUE(openCloseBalanced(T)) << categoryName(C);
    }
  }
}

TEST(GeneratorTest, ScaleGrowsTraces) {
  Rng R1(6), R2(6);
  GeneratorConfig Small, Large;
  Large.Scale = 4;
  size_t SmallTotal = 0, LargeTotal = 0;
  for (int Round = 0; Round < 5; ++Round) {
    SmallTotal += generateNormalIO(R1, Small).size();
    LargeTotal += generateNormalIO(R2, Large).size();
  }
  EXPECT_GT(LargeTotal, 2 * SmallTotal);
}

TEST(GeneratorTest, CategoryNamesAndLabels) {
  EXPECT_STREQ(categoryLabel(Category::FlashIO), "A");
  EXPECT_STREQ(categoryLabel(Category::RandomPosix), "B");
  EXPECT_STREQ(categoryLabel(Category::NormalIO), "C");
  EXPECT_STREQ(categoryLabel(Category::RandomAccess), "D");
  EXPECT_STREQ(categoryName(Category::FlashIO), "flash-io");
}

//===----------------------------------------------------------------------===//
// Mutator
//===----------------------------------------------------------------------===//

TEST(MutatorTest, ProducesSmallChanges) {
  Rng R(7);
  Trace Base = generateNormalIO(R);
  for (int Round = 0; Round < 20; ++Round) {
    Trace Mutant = mutateTrace(Base, R);
    // Size changes by at most MaxMutations * MaxRunLength.
    size_t Diff = Mutant.size() > Base.size() ? Mutant.size() - Base.size()
                                              : Base.size() - Mutant.size();
    EXPECT_LE(Diff, 12u);
  }
}

TEST(MutatorTest, NeverIntroducesForeignOps) {
  Rng R(8);
  for (Category C : {Category::FlashIO, Category::NormalIO,
                     Category::RandomAccess}) {
    Trace Base = generateTrace(C, R);
    std::set<std::string> BaseNames = opNames(Base);
    for (int Round = 0; Round < 20; ++Round) {
      Trace Mutant = mutateTrace(Base, R);
      for (const std::string &Name : opNames(Mutant))
        EXPECT_TRUE(BaseNames.count(Name))
            << "mutation invented op " << Name;
    }
  }
}

TEST(MutatorTest, PreservesOpenCloseBalance) {
  Rng R(9);
  Trace Base = generateFlashIO(R);
  for (int Round = 0; Round < 20; ++Round)
    EXPECT_TRUE(openCloseBalanced(mutateTrace(Base, R)));
}

TEST(MutatorTest, DeterministicGivenRngState) {
  Trace Base = generateNormalIO(*std::make_unique<Rng>(10).get());
  Rng R1(11), R2(11);
  EXPECT_EQ(mutateTrace(Base, R1).events(), mutateTrace(Base, R2).events());
}

TEST(MutatorTest, UsuallyChangesTheTrace) {
  Rng R(12);
  Trace Base = generateRandomPosix(R);
  int Changed = 0;
  for (int Round = 0; Round < 20; ++Round)
    Changed += mutateTrace(Base, R).events() != Base.events();
  EXPECT_GE(Changed, 15);
}

//===----------------------------------------------------------------------===//
// Corpus builder — the 110-example shape of §4.1
//===----------------------------------------------------------------------===//

TEST(CorpusTest, PaperShape) {
  std::vector<LabeledTrace> Corpus = generateCorpus();
  EXPECT_EQ(Corpus.size(), 110u);
  std::map<std::string, size_t> Counts;
  for (const LabeledTrace &E : Corpus)
    ++Counts[E.Label];
  EXPECT_EQ(Counts["A"], 50u);
  EXPECT_EQ(Counts["B"], 20u);
  EXPECT_EQ(Counts["C"], 20u);
  EXPECT_EQ(Counts["D"], 20u);
  // 22 base examples.
  size_t Bases = 0;
  for (const LabeledTrace &E : Corpus)
    Bases += !E.IsMutant;
  EXPECT_EQ(Bases, 22u);
}

TEST(CorpusTest, DeterministicForSeed) {
  std::vector<LabeledTrace> C1 = generateCorpus();
  std::vector<LabeledTrace> C2 = generateCorpus();
  ASSERT_EQ(C1.size(), C2.size());
  for (size_t I = 0; I < C1.size(); ++I)
    EXPECT_EQ(C1[I].T.events(), C2[I].T.events());
}

TEST(CorpusTest, NamesEncodeLineage) {
  std::vector<LabeledTrace> Corpus = generateCorpus();
  EXPECT_EQ(Corpus[0].T.name(), "A0.0");
  EXPECT_EQ(Corpus[1].T.name(), "A0.1");
  EXPECT_EQ(Corpus[5].T.name(), "A1.0");
}

TEST(CorpusTest, CustomShape) {
  CorpusOptions Options;
  Options.BaseA = 1;
  Options.BaseB = 1;
  Options.BaseC = 0;
  Options.BaseD = 0;
  Options.CopiesPerBase = 2;
  std::vector<LabeledTrace> Corpus = generateCorpus(Options);
  EXPECT_EQ(Corpus.size(), 6u);
}

//===----------------------------------------------------------------------===//
// Corpus directory I/O
//===----------------------------------------------------------------------===//

TEST(CorpusIOTest, RoundTripsThroughDirectory) {
  CorpusOptions Options;
  Options.BaseA = 2;
  Options.BaseB = 1;
  Options.BaseC = 1;
  Options.BaseD = 1;
  Options.CopiesPerBase = 1;
  std::vector<LabeledTrace> Corpus = generateCorpus(Options);

  std::string Dir = testing::TempDir() + "/kast_corpus_rt";
  Status W = writeCorpusDirectory(Corpus, Dir);
  ASSERT_TRUE(W.ok()) << W.message();

  Expected<std::vector<LabeledTrace>> Loaded = loadCorpusDirectory(Dir);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  ASSERT_EQ(Loaded->size(), Corpus.size());

  // Directory order is name-sorted; match by name.
  for (const LabeledTrace &Original : Corpus) {
    const LabeledTrace *Found = nullptr;
    for (const LabeledTrace &Candidate : *Loaded)
      if (Candidate.T.name() == Original.T.name())
        Found = &Candidate;
    ASSERT_NE(Found, nullptr) << Original.T.name();
    EXPECT_EQ(Found->T.events(), Original.T.events());
    EXPECT_EQ(Found->Label, Original.Label);
    EXPECT_EQ(Found->BaseIndex, Original.BaseIndex);
    EXPECT_EQ(Found->IsMutant, Original.IsMutant);
  }
}

TEST(CorpusIOTest, MissingDirectoryFails) {
  EXPECT_FALSE(loadCorpusDirectory("/nonexistent/kast/dir").hasValue());
}

TEST(CorpusIOTest, IgnoresForeignFiles) {
  std::string Dir = testing::TempDir() + "/kast_corpus_foreign";
  std::filesystem::create_directories(Dir);
  {
    std::ofstream Note(Dir + "/README.md");
    Note << "not a trace\n";
    std::ofstream T(Dir + "/X1.0.trace");
    T << "read 1 bytes=8\n";
  }
  Expected<std::vector<LabeledTrace>> Loaded = loadCorpusDirectory(Dir);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  ASSERT_EQ(Loaded->size(), 1u);
  EXPECT_EQ((*Loaded)[0].Label, "X");
  EXPECT_FALSE((*Loaded)[0].IsMutant);
}

TEST(CorpusIOTest, LoadsInNumericLineageOrderNotLexicographic) {
  // With ten or more bases, lexicographic file-name order interleaves
  // lineages ("A10.0" < "A2.0"); the loader must order by numeric
  // (label, base, copy) so corpus order matches generation order.
  std::string Dir = testing::TempDir() + "/kast_corpus_order";
  std::filesystem::create_directories(Dir);
  std::vector<std::string> Names;
  for (size_t Base = 0; Base < 12; ++Base)
    for (size_t Copy = 0; Copy < 2; ++Copy)
      Names.push_back("A" + std::to_string(Base) + "." +
                      std::to_string(Copy));
  Names.push_back("B2.0");
  Names.push_back("B10.0"); // After B2.0 despite "B10" < "B2" lexically.
  for (const std::string &Name : Names) {
    std::ofstream T(Dir + "/" + Name + ".trace");
    T << "read 1 bytes=8\n";
  }

  Expected<std::vector<LabeledTrace>> Loaded = loadCorpusDirectory(Dir);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  ASSERT_EQ(Loaded->size(), Names.size());
  // Names was built in lineage order already.
  for (size_t I = 0; I < Names.size(); ++I)
    EXPECT_EQ((*Loaded)[I].T.name(), Names[I]) << "position " << I;
  // The adversarial pairs, spelled out: base 2 precedes base 10.
  auto Position = [&](const std::string &Name) {
    for (size_t I = 0; I < Loaded->size(); ++I)
      if ((*Loaded)[I].T.name() == Name)
        return I;
    return Loaded->size();
  };
  EXPECT_LT(Position("A2.0"), Position("A10.0"));
  EXPECT_LT(Position("B2.0"), Position("B10.0"));
}

TEST(CorpusIOTest, ShardedProfileCachesRoundTrip) {
  // Three uneven shards of hand-built profiles round-trip through
  // "<dir>/shard-NNN.kfi" images with order, provenance and bit
  // patterns intact; kernel-name verification, hole detection and
  // staging leftovers are hard errors.
  auto MakeCache = [](const std::string &Prefix, size_t Count) {
    ProfileStoreCache Cache;
    Cache.KernelName = "sharded-kernel";
    for (size_t I = 0; I < Count; ++I) {
      KernelProfile P;
      P.add(I * 17 + 3, 1.25 * static_cast<double>(I + 1));
      P.add(I * 17 + 9, -0.5);
      P.finalize();
      Cache.Store.append(P);
      Cache.Names.push_back(Prefix + std::to_string(I));
      Cache.Labels.push_back(Prefix);
    }
    return Cache;
  };
  std::vector<ProfileStoreCache> Shards;
  Shards.push_back(MakeCache("a", 3));
  Shards.push_back(MakeCache("b", 1));
  Shards.push_back(MakeCache("c", 5));

  std::string Dir = testing::TempDir() + "/kast_sharded_caches";
  std::filesystem::remove_all(Dir);
  Status W = writeShardedProfileImages(Shards, Dir);
  ASSERT_TRUE(W.ok()) << W.message();

  Expected<std::vector<ProfileStoreCache>> Loaded =
      loadShardedProfileImages(Dir, "sharded-kernel");
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  ASSERT_EQ(Loaded->size(), Shards.size());
  for (size_t S = 0; S < Shards.size(); ++S) {
    ASSERT_EQ((*Loaded)[S].Store.size(), Shards[S].Store.size());
    EXPECT_EQ((*Loaded)[S].Names, Shards[S].Names);
    EXPECT_EQ((*Loaded)[S].Labels, Shards[S].Labels);
    EXPECT_EQ((*Loaded)[S].Store.hashes(), Shards[S].Store.hashes());
    EXPECT_EQ((*Loaded)[S].Store.values(), Shards[S].Store.values());
    EXPECT_EQ((*Loaded)[S].Store.offsets(), Shards[S].Store.offsets());
  }

  // Wrong kernel name: load-time error naming the culprit.
  Expected<std::vector<ProfileStoreCache>> Bad =
      loadShardedProfileImages(Dir, "other-kernel");
  ASSERT_FALSE(Bad.hasValue());
  EXPECT_NE(Bad.message().find("sharded-kernel"), std::string::npos)
      << Bad.message();

  // A hole in the shard numbering (partial corpus) is a hard error.
  std::filesystem::remove(Dir + "/shard-001.kfi");
  Expected<std::vector<ProfileStoreCache>> Holey =
      loadShardedProfileImages(Dir, "sharded-kernel");
  ASSERT_FALSE(Holey.hasValue());
  EXPECT_NE(Holey.message().find("missing shard 1"), std::string::npos)
      << Holey.message();

  // An empty directory is "nothing to restore", not an empty service.
  std::string Empty = testing::TempDir() + "/kast_sharded_empty";
  std::filesystem::create_directories(Empty);
  EXPECT_FALSE(loadShardedProfileImages(Empty).hasValue());

  // An empty shard list is refused outright — writing it would sweep
  // every existing shard file as stale and erase the previous
  // generation while reporting success.
  EXPECT_FALSE(writeShardedProfileImages({}, Dir).ok());
  EXPECT_TRUE(std::filesystem::exists(Dir + "/shard-000.kfi"));
  EXPECT_TRUE(std::filesystem::exists(Dir + "/shard-002.kfi"));

  // A leftover ".kfi.tmp" staging file marks an interrupted save whose
  // .kfi neighbors may mix generations: the loader refuses the whole
  // directory, and a completed re-save sweeps the leftover and
  // unblocks it.
  { std::ofstream Tmp(Dir + "/shard-000.kfi.tmp"); Tmp << "partial"; }
  Expected<std::vector<ProfileStoreCache>> Interrupted =
      loadShardedProfileImages(Dir, "sharded-kernel");
  ASSERT_FALSE(Interrupted.hasValue());
  EXPECT_NE(Interrupted.message().find("interrupted"), std::string::npos)
      << Interrupted.message();
  ASSERT_TRUE(writeShardedProfileImages({MakeCache("z", 2)}, Dir).ok());
  EXPECT_FALSE(std::filesystem::exists(Dir + "/shard-000.kfi.tmp"));
  Expected<std::vector<ProfileStoreCache>> Swept =
      loadShardedProfileImages(Dir, "sharded-kernel");
  ASSERT_TRUE(Swept.hasValue()) << Swept.message();
  EXPECT_EQ(Swept->size(), 1u);

  // Non-canonical spellings ("shard-7.kfi") never alias the writer's
  // padded names: the loader reports them instead of miscounting.
  { std::ofstream Alias(Dir + "/shard-7.kfi"); Alias << "alias"; }
  Expected<std::vector<ProfileStoreCache>> Aliased =
      loadShardedProfileImages(Dir, "sharded-kernel");
  ASSERT_FALSE(Aliased.hasValue());
  EXPECT_NE(Aliased.message().find("shard-7.kfi"), std::string::npos)
      << Aliased.message();
}

TEST(CorpusIOTest, ShardedProfileImagesRoundTrip) {
  // The loaded stores view their file mappings, and the shards round
  // trip whichever shard the hole or the staging leftover is in.
  auto MakeCache = [](const std::string &Prefix, size_t Count) {
    ProfileStoreCache Cache;
    Cache.KernelName = "image-kernel";
    for (size_t I = 0; I < Count; ++I) {
      KernelProfile P;
      P.add(I * 17 + 3, 1.25 * static_cast<double>(I + 1));
      P.add(I * 17 + 9, -0.5);
      P.finalize();
      Cache.Store.append(P);
      Cache.Names.push_back(Prefix + std::to_string(I));
      Cache.Labels.push_back(Prefix);
    }
    return Cache;
  };
  std::vector<ProfileStoreCache> Shards;
  Shards.push_back(MakeCache("a", 4));
  Shards.push_back(MakeCache("b", 2));

  std::string Dir = testing::TempDir() + "/kast_sharded_images";
  std::filesystem::remove_all(Dir);
  Status W = writeShardedProfileImages(Shards, Dir);
  ASSERT_TRUE(W.ok()) << W.message();
  EXPECT_TRUE(std::filesystem::exists(Dir + "/shard-000.kfi"));
  EXPECT_TRUE(std::filesystem::exists(Dir + "/shard-001.kfi"));

  Expected<std::vector<ProfileStoreCache>> Loaded =
      loadShardedProfileImages(Dir, "image-kernel");
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  ASSERT_EQ(Loaded->size(), Shards.size());
  for (size_t S = 0; S < Shards.size(); ++S) {
    EXPECT_TRUE((*Loaded)[S].Store.isMapped());
    ASSERT_EQ((*Loaded)[S].Store.size(), Shards[S].Store.size());
    EXPECT_EQ((*Loaded)[S].Names, Shards[S].Names);
    EXPECT_EQ((*Loaded)[S].Labels, Shards[S].Labels);
    EXPECT_EQ((*Loaded)[S].Store.hashes(), Shards[S].Store.hashes());
    EXPECT_EQ((*Loaded)[S].Store.values(), Shards[S].Store.values());
    EXPECT_EQ((*Loaded)[S].Store.offsets(), Shards[S].Store.offsets());
  }

  // A hole at shard 0...
  std::filesystem::remove(Dir + "/shard-000.kfi");
  Expected<std::vector<ProfileStoreCache>> Holey =
      loadShardedProfileImages(Dir, "image-kernel");
  ASSERT_FALSE(Holey.hasValue());
  EXPECT_NE(Holey.message().find("missing shard 0"), std::string::npos)
      << Holey.message();

  // ...and a staging leftover beside an intact generation.
  ASSERT_TRUE(writeShardedProfileImages(Shards, Dir).ok());
  { std::ofstream Tmp(Dir + "/shard-001.kfi.tmp"); Tmp << "partial"; }
  Expected<std::vector<ProfileStoreCache>> Interrupted =
      loadShardedProfileImages(Dir, "image-kernel");
  ASSERT_FALSE(Interrupted.hasValue());
  EXPECT_NE(Interrupted.message().find("interrupted"), std::string::npos)
      << Interrupted.message();
  ASSERT_TRUE(writeShardedProfileImages(Shards, Dir).ok());
  EXPECT_FALSE(std::filesystem::exists(Dir + "/shard-001.kfi.tmp"));
  Expected<std::vector<ProfileStoreCache>> Resaved =
      loadShardedProfileImages(Dir, "image-kernel");
  ASSERT_TRUE(Resaved.hasValue()) << Resaved.message();
  EXPECT_EQ(Resaved->size(), Shards.size());
}

TEST(CorpusIOTest, MalformedNamesAreDiagnosedErrors) {
  // Each offending file goes in its own directory because loading
  // stops at the first error.
  struct Case {
    const char *File;
    const char *ExpectInMessage;
  };
  const Case Cases[] = {
      {"1A.0.trace", "label"},       // No alphabetic prefix.
      {"A.trace", "suffix"},         // No '.<copy>' part at all.
      {"A.0.trace", "base"},         // Label but no base index.
      {"A1.x.trace", "copy"},        // Copy part is not a number.
      {"unnamed.trace", "suffix"},   // Bare word, no lineage.
  };
  for (const Case &C : Cases) {
    std::string Dir =
        testing::TempDir() + "/kast_corpus_bad_" + std::string(1, C.File[0]) +
        std::to_string(&C - Cases);
    std::filesystem::create_directories(Dir);
    {
      std::ofstream T(Dir + "/" + C.File);
      T << "read 1 bytes=8\n";
    }
    Expected<std::vector<LabeledTrace>> Loaded = loadCorpusDirectory(Dir);
    ASSERT_FALSE(Loaded.hasValue()) << C.File;
    EXPECT_NE(Loaded.message().find("malformed trace name"),
              std::string::npos)
        << C.File << ": " << Loaded.message();
    EXPECT_NE(Loaded.message().find(C.ExpectInMessage), std::string::npos)
        << C.File << ": " << Loaded.message();
  }
}

TEST(CorpusIOTest, MultiLetterLabelsAndLineageParse) {
  std::string Dir = testing::TempDir() + "/kast_corpus_multiletter";
  std::filesystem::create_directories(Dir);
  {
    std::ofstream T(Dir + "/AB12.3.trace");
    T << "read 1 bytes=8\n";
  }
  Expected<std::vector<LabeledTrace>> Loaded = loadCorpusDirectory(Dir);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  ASSERT_EQ(Loaded->size(), 1u);
  EXPECT_EQ((*Loaded)[0].Label, "AB");
  EXPECT_EQ((*Loaded)[0].BaseIndex, 12u);
  EXPECT_TRUE((*Loaded)[0].IsMutant);
}

TEST(CorpusTest, ConversionSharesOneTable) {
  CorpusOptions Options;
  Options.BaseA = 2;
  Options.BaseB = 1;
  Options.BaseC = 1;
  Options.BaseD = 1;
  Options.CopiesPerBase = 1;
  std::vector<LabeledTrace> Corpus = generateCorpus(Options);
  Pipeline P;
  LabeledDataset Data = convertCorpus(P, Corpus);
  ASSERT_EQ(Data.size(), Corpus.size());
  for (size_t I = 1; I < Data.size(); ++I)
    EXPECT_EQ(Data.string(I).table().get(), Data.string(0).table().get());
  // Names carried over.
  EXPECT_EQ(Data.string(0).name(), "A0.0");
}
