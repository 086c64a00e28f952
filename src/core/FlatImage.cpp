//===- core/FlatImage.cpp - The on-disk profile format --------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/FlatImage.h"

#include "util/Hashing.h"
#include "util/MappedImage.h"
#include "util/StringUtil.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string_view>

using namespace kast;

namespace {

constexpr uint64_t HeaderBytes = 64;
constexpr uint64_t TableEntryBytes = 32;
/// The checksummed prefix of the header: everything up to the
/// headerSum field itself.
constexpr uint64_t HeaderSumPrefix = 48;
constexpr uint32_t MaxSections = 64;
/// Counts past this are structurally impossible for a real corpus and
/// only arise from corruption; rejecting early keeps the (N+1)*8 size
/// arithmetic below overflow-free.
constexpr uint64_t MaxCount = uint64_t(1) << 48;

const char *sectionName(FlatSectionId Id) {
  switch (Id) {
  case FlatSectionId::KernelName:
    return "kernel-name";
  case FlatSectionId::Offsets:
    return "offsets";
  case FlatSectionId::Hashes:
    return "hashes";
  case FlatSectionId::Values:
    return "values";
  case FlatSectionId::SelfDots:
    return "self-dots";
  case FlatSectionId::Norms:
    return "norms";
  case FlatSectionId::Names:
    return "names";
  case FlatSectionId::Labels:
    return "labels";
  case FlatSectionId::QuantValues:
    return "quantized-values";
  case FlatSectionId::QuantScales:
    return "quantized-scales";
  case FlatSectionId::RouteMeta:
    return "routing-meta";
  case FlatSectionId::RouteAssignments:
    return "routing-assignments";
  case FlatSectionId::CentroidOffsets:
    return "centroid-offsets";
  case FlatSectionId::CentroidHashes:
    return "centroid-hashes";
  case FlatSectionId::CentroidValues:
    return "centroid-values";
  case FlatSectionId::CentroidSelfDots:
    return "centroid-self-dots";
  case FlatSectionId::CentroidNorms:
    return "centroid-norms";
  case FlatSectionId::PostingClusterBegin:
    return "posting-cluster-begin";
  case FlatSectionId::PostingFeatures:
    return "posting-features";
  case FlatSectionId::PostingBegin:
    return "posting-begin";
  case FlatSectionId::PostingIds:
    return "posting-ids";
  case FlatSectionId::PostingValues:
    return "posting-values";
  }
  return "unknown";
}

/// The "KASTIVIX" routing-meta section: a fixed 128-byte block holding
/// the flattened RoutingOptions and the arena counts every other
/// routing section's size is checked against. Layout (offsets in
/// bytes, little-endian):
///
///   0   magic           8  "KASTIVIX"
///   8   metaVersion     u32  1
///   12  flags           u32  bit 0: QuantizedShortlist
///   16  maxDocFrequency f64 bits
///   24  rerankBudget    u64
///   32  defaultNProbe   u64
///   40  numCentroids    u64  (the *option*; 0 = auto)
///   48  maxIterations   u64
///   56  trainingSample  u64
///   64  seed            u64
///   72  covered         u64  profiles covered (assignment count),
///                            always profileCount
///   80  centroidCount   u64  fitted centroids C
///   88  centroidEntries u64  total centroid features ce
///   96  featureCount    u64  surviving posting features F
///   104 postingCount    u64  total postings P
///   112 prunedFeatures  u64
///   120 reserved        u64  0
constexpr char RouteMetaMagic[8] = {'K', 'A', 'S', 'T', 'I', 'V', 'I', 'X'};
constexpr uint32_t RouteMetaVersion = 1;
constexpr uint64_t RouteMetaBytes = 128;
constexpr uint32_t RouteMetaFlagQuantizedShortlist = 1u << 0;

void appendU32(std::vector<unsigned char> &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<unsigned char>((V >> (8 * I)) & 0xFF));
}

void appendU64(std::vector<unsigned char> &Out, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<unsigned char>((V >> (8 * I)) & 0xFF));
}

uint64_t readU64At(const unsigned char *Data, uint64_t Offset) {
  uint64_t V = 0;
  for (int I = 0; I < 8; ++I)
    V |= static_cast<uint64_t>(Data[Offset + I]) << (8 * I);
  return V;
}

uint32_t readU32At(const unsigned char *Data, uint64_t Offset) {
  uint32_t V = 0;
  for (int I = 0; I < 4; ++I)
    V |= static_cast<uint32_t>(Data[Offset + I]) << (8 * I);
  return V;
}

uint64_t alignUp(uint64_t V, uint64_t A) { return (V + A - 1) / A * A; }

/// One section staged for writing: id plus either a borrowed pointer
/// into live store memory (the zero-copy common case) or an owned
/// buffer built for the occasion (names/labels tables).
struct SectionOut {
  FlatSectionId Id;
  const unsigned char *Data = nullptr;
  uint64_t Size = 0;
  std::vector<unsigned char> Owned;
  uint64_t Offset = 0;

  static SectionOut borrowed(FlatSectionId Id, const void *Data,
                             uint64_t Size) {
    SectionOut S;
    S.Id = Id;
    S.Data = static_cast<const unsigned char *>(Data);
    S.Size = Size;
    return S;
  }

  static SectionOut owned(FlatSectionId Id, std::vector<unsigned char> Bytes) {
    SectionOut S;
    S.Id = Id;
    S.Owned = std::move(Bytes);
    S.Data = S.Owned.data();
    S.Size = S.Owned.size();
    return S;
  }
};

/// A string list as a self-contained section: (N+1) u64 offsets into
/// the byte blob that follows — the same CSR idea as the profile
/// arrays, so restore is a bounds-checked view, not a length-prefixed
/// parse.
std::vector<unsigned char> buildStringTable(const StringColumn &Strings) {
  std::vector<unsigned char> Out;
  uint64_t Total = 0;
  for (size_t I = 0; I < Strings.size(); ++I)
    Total += Strings[I].size();
  Out.reserve((Strings.size() + 1) * 8 + Total);
  uint64_t Offset = 0;
  appendU64(Out, 0);
  for (size_t I = 0; I < Strings.size(); ++I) {
    Offset += Strings[I].size();
    appendU64(Out, Offset);
  }
  for (size_t I = 0; I < Strings.size(); ++I) {
    const std::string_view S = Strings[I];
    Out.insert(Out.end(), S.begin(), S.end());
  }
  return Out;
}

/// Encodes \p R's scalars and counts as the 128-byte routing-meta
/// block (layout above).
std::vector<unsigned char> buildRouteMeta(const RoutingArenas &R) {
  std::vector<unsigned char> Out;
  Out.reserve(RouteMetaBytes);
  Out.insert(Out.end(), RouteMetaMagic, RouteMetaMagic + sizeof(RouteMetaMagic));
  appendU32(Out, RouteMetaVersion);
  appendU32(Out, R.QuantizedShortlist ? RouteMetaFlagQuantizedShortlist : 0);
  appendU64(Out, std::bit_cast<uint64_t>(R.MaxDocFrequency));
  appendU64(Out, R.RerankBudget);
  appendU64(Out, R.DefaultNProbe);
  appendU64(Out, R.ClusterNumCentroids);
  appendU64(Out, R.ClusterMaxIterations);
  appendU64(Out, R.ClusterTrainingSample);
  appendU64(Out, R.ClusterSeed);
  appendU64(Out, R.Covered);
  appendU64(Out, R.Centroids.size());
  appendU64(Out, R.Centroids.entryCount());
  appendU64(Out, R.FeatureHashes.size());
  appendU64(Out, R.PostingIds.size());
  appendU64(Out, R.PrunedFeatures);
  appendU64(Out, 0); // reserved
  return Out;
}

/// Parsed table entry on the read side.
struct SectionIn {
  uint64_t Offset = 0;
  uint64_t Size = 0;
  uint64_t Sum = 0;
  bool Present = false;
};

/// Validates a NAMES/LABELS section's offset table without
/// materializing a single string: (Count+1) u64 offsets with a leading
/// 0, non-decreasing, in bounds, final equal to the blob size. Once
/// this passes, the section is safe to hand to
/// StringColumn::fromMapped — every later operator[] is a view whose
/// bounds these offsets pin, so strings decode lazily on first access
/// instead of as O(N) allocations at open.
Status validateStringTable(const unsigned char *Data, uint64_t Size,
                           uint64_t Count, const char *What) {
  const uint64_t TableBytes = (Count + 1) * 8;
  if (Size < TableBytes)
    return Status::error(std::string("flat image ") + What +
                         " section too small for its offset table");
  const uint64_t BlobBytes = Size - TableBytes;
  uint64_t Prev = readU64At(Data, 0);
  if (Prev != 0)
    return Status::error(std::string("flat image ") + What +
                         " offsets must start at 0");
  for (uint64_t I = 0; I < Count; ++I) {
    const uint64_t Next = readU64At(Data, (I + 1) * 8);
    if (Next < Prev || Next > BlobBytes)
      return Status::error(std::string("flat image ") + What +
                           " offsets not monotonic or out of bounds");
    Prev = Next;
  }
  if (Prev != BlobBytes)
    return Status::error(std::string("flat image ") + What +
                         " offsets disagree with blob size");
  return Status();
}

/// The one writer: \p Cache's store with its names/labels and int8
/// sidecar, plus its routing arenas — which is what flips the written
/// version to 4. Writes exactly \p Path; the public entry points
/// decide the staging name.
Status writeImageAt(const ProfileStoreCache &Cache, const std::string &Path) {
  if constexpr (std::endian::native != std::endian::little)
    return Status::error("flat image writer requires a little-endian host");
  const std::string &KernelName = Cache.KernelName;
  const ProfileStore &Store = Cache.Store;
  if (Cache.Names.size() != Store.size() || Cache.Labels.size() != Store.size())
    return Status::error("flat image has " + std::to_string(Store.size()) +
                         " profiles but " + std::to_string(Cache.Names.size()) +
                         " names / " + std::to_string(Cache.Labels.size()) +
                         " labels");
  // Empty routing (an unfitted or empty-corpus router) carries no
  // information a restore could use; write a plain v3 image.
  const RoutingArenas *Routing = Cache.Routing.get();
  if (Routing && (Routing->Covered == 0 || Routing->Centroids.size() == 0))
    Routing = nullptr;
  if (Routing) {
    const RoutingArenas &R = *Routing;
    const uint64_t C = R.Centroids.size();
    const uint64_t F = R.FeatureHashes.size();
    if (R.Covered != Store.size())
      return Status::error("flat image routing covers " +
                           std::to_string(R.Covered) + " of " +
                           std::to_string(Store.size()) +
                           " profiles; it must cover all of them");
    if (R.Assignments.size() != R.Covered ||
        R.ClusterBegin.size() != C + 1 || R.PostingBegin.size() != F + 1 ||
        R.PostingIds.size() != R.PostingValues.size())
      return Status::error("flat image routing arenas are inconsistent with "
                           "their counts");
  }

  const uint64_t N = Store.size();
  const uint64_t Total = Store.entryCount();

  // On a little-endian host the in-memory arrays *are* the wire bytes,
  // so every array section is borrowed straight from the store — the
  // writer's only copies are the string tables.
  std::vector<SectionOut> Sections;
  Sections.push_back(SectionOut::borrowed(FlatSectionId::KernelName,
                                          KernelName.data(),
                                          KernelName.size()));
  Sections.push_back(SectionOut::borrowed(
      FlatSectionId::Offsets, Store.offsets().data(), (N + 1) * 8));
  Sections.push_back(SectionOut::borrowed(FlatSectionId::Hashes,
                                          Store.hashes().data(), Total * 8));
  static_assert(sizeof(double) == sizeof(uint64_t));
  Sections.push_back(SectionOut::borrowed(FlatSectionId::Values,
                                          Store.values().data(), Total * 8));
  Sections.push_back(SectionOut::borrowed(FlatSectionId::SelfDots,
                                          Store.selfDots().data(), N * 8));
  Sections.push_back(
      SectionOut::borrowed(FlatSectionId::Norms, Store.norms().data(), N * 8));
  Sections.push_back(
      SectionOut::owned(FlatSectionId::Names, buildStringTable(Cache.Names)));
  Sections.push_back(
      SectionOut::owned(FlatSectionId::Labels, buildStringTable(Cache.Labels)));
  if (const QuantizedStore *Quant = Store.quantized()) {
    Sections.push_back(SectionOut::borrowed(FlatSectionId::QuantValues,
                                            Quant->values().data(), Total));
    Sections.push_back(SectionOut::borrowed(FlatSectionId::QuantScales,
                                            Quant->scales().data(), N * 8));
  }
  if (Routing) {
    const RoutingArenas &R = *Routing;
    const uint64_t C = R.Centroids.size();
    Sections.push_back(
        SectionOut::owned(FlatSectionId::RouteMeta, buildRouteMeta(R)));
    Sections.push_back(SectionOut::borrowed(FlatSectionId::RouteAssignments,
                                            R.Assignments.data(),
                                            R.Assignments.size() * 4));
    Sections.push_back(SectionOut::borrowed(FlatSectionId::CentroidOffsets,
                                            R.Centroids.offsets().data(),
                                            (C + 1) * 8));
    Sections.push_back(SectionOut::borrowed(FlatSectionId::CentroidHashes,
                                            R.Centroids.hashes().data(),
                                            R.Centroids.entryCount() * 8));
    Sections.push_back(SectionOut::borrowed(FlatSectionId::CentroidValues,
                                            R.Centroids.values().data(),
                                            R.Centroids.entryCount() * 8));
    Sections.push_back(SectionOut::borrowed(FlatSectionId::CentroidSelfDots,
                                            R.Centroids.selfDots().data(),
                                            C * 8));
    Sections.push_back(SectionOut::borrowed(FlatSectionId::CentroidNorms,
                                            R.Centroids.norms().data(),
                                            C * 8));
    Sections.push_back(SectionOut::borrowed(FlatSectionId::PostingClusterBegin,
                                            R.ClusterBegin.data(),
                                            R.ClusterBegin.size() * 8));
    Sections.push_back(SectionOut::borrowed(FlatSectionId::PostingFeatures,
                                            R.FeatureHashes.data(),
                                            R.FeatureHashes.size() * 8));
    Sections.push_back(SectionOut::borrowed(FlatSectionId::PostingBegin,
                                            R.PostingBegin.data(),
                                            R.PostingBegin.size() * 8));
    Sections.push_back(SectionOut::borrowed(FlatSectionId::PostingIds,
                                            R.PostingIds.data(),
                                            R.PostingIds.size() * 4));
    Sections.push_back(SectionOut::borrowed(FlatSectionId::PostingValues,
                                            R.PostingValues.data(),
                                            R.PostingValues.size() * 8));
  }

  // Lay the sections out page-aligned after the header + table.
  uint64_t Cursor =
      HeaderBytes + Sections.size() * TableEntryBytes;
  for (SectionOut &S : Sections) {
    S.Offset = alignUp(Cursor, FlatImageAlignment);
    Cursor = S.Offset + S.Size;
  }

  // Header prefix [0, 48) and the table, checksummed together.
  std::vector<unsigned char> Prelude;
  Prelude.reserve(HeaderSumPrefix + Sections.size() * TableEntryBytes);
  Prelude.insert(Prelude.end(), FlatImageMagic,
                 FlatImageMagic + sizeof(FlatImageMagic));
  appendU32(Prelude, Routing ? FlatImageVersionRouted : FlatImageVersion);
  appendU32(Prelude, static_cast<uint32_t>(Sections.size()));
  appendU64(Prelude, checksumBytes(KernelName.data(), KernelName.size()));
  appendU64(Prelude, N);
  appendU64(Prelude, Total);
  appendU64(Prelude, HeaderBytes); // tableOffset
  for (const SectionOut &S : Sections) {
    appendU32(Prelude, static_cast<uint32_t>(S.Id));
    appendU32(Prelude, 0);
    appendU64(Prelude, S.Offset);
    appendU64(Prelude, S.Size);
    appendU64(Prelude, checksumBytes(S.Data, S.Size));
  }
  const uint64_t HeaderSum = checksumBytes(Prelude.data(), Prelude.size());

  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out)
    return Status::error("cannot open '" + Path + "' for writing");
  Out.write(reinterpret_cast<const char *>(Prelude.data()),
            static_cast<std::streamsize>(HeaderSumPrefix));
  char Tail[16] = {};
  std::memcpy(Tail, &HeaderSum, 8); // LE host: memory order is wire order
  Out.write(Tail, sizeof(Tail));    // headerSum + reserved
  Out.write(reinterpret_cast<const char *>(Prelude.data()) + HeaderSumPrefix,
            static_cast<std::streamsize>(Prelude.size() - HeaderSumPrefix));

  uint64_t Written = HeaderBytes + Sections.size() * TableEntryBytes;
  static const char Zeros[4096] = {};
  for (const SectionOut &S : Sections) {
    for (uint64_t Pad = S.Offset - Written; Pad > 0;) {
      const uint64_t Chunk = Pad < sizeof(Zeros) ? Pad : sizeof(Zeros);
      Out.write(Zeros, static_cast<std::streamsize>(Chunk));
      Pad -= Chunk;
    }
    if (S.Size > 0)
      Out.write(reinterpret_cast<const char *>(S.Data),
                static_cast<std::streamsize>(S.Size));
    Written = S.Offset + S.Size;
  }
  Out.close();
  if (!Out)
    return Status::error("cannot flush '" + Path + "'");
  return Status();
}

} // namespace

/// A single-file save never truncates the file it replaces: the
/// source arrays may alias a mapping of that very file (a loaded image
/// saved back to its own path), so the bytes go to "<Path>.tmp", which
/// is renamed over \p Path only once complete and removed on failure.
Status kast::writeProfileStoreImageFile(const ProfileStoreCache &Cache,
                                        const std::string &Path) {
  const std::string Staging = Path + ".tmp";
  Status S = writeImageAt(Cache, Staging);
  std::error_code Ec;
  if (S) {
    std::filesystem::rename(Staging, Path, Ec);
    if (!Ec)
      return S;
    S = Status::error("cannot rename '" + Staging + "' into place: " +
                      Ec.message());
  }
  std::filesystem::remove(Staging, Ec);
  return S;
}

Status kast::validateCsrOffsets(const uint64_t *Offsets, size_t Count,
                                uint64_t Total) {
  if (Count == 0)
    return Status::error("corrupt flat image: empty offset array");
  if (Offsets[0] != 0)
    return Status::error("corrupt flat image: offsets must start at 0");
  for (size_t I = 1; I < Count; ++I)
    if (Offsets[I] < Offsets[I - 1])
      return Status::error("corrupt flat image: offsets not monotonic");
  if (Offsets[Count - 1] != Total)
    return Status::error("corrupt flat image: offsets disagree with "
                         "entry total");
  return Status();
}

Expected<ProfileStoreCache>
kast::readProfileStoreImageFile(const std::string &Path,
                                const FlatImageReadOptions &Options) {
  using Result = Expected<ProfileStoreCache>;
  if constexpr (std::endian::native != std::endian::little)
    return Result::error("flat image reader requires a little-endian host");

  Expected<std::shared_ptr<const MappedImage>> Opened =
      MappedImage::open(Path, Options.ForceBuffered);
  if (!Opened)
    return Result::error(Opened.message());
  std::shared_ptr<const MappedImage> Image = Opened.take();
  const unsigned char *Data = Image->data();
  const uint64_t Size = Image->size();
  // The buffered fallback has already read every byte, so full
  // checksum coverage is free of extra faults; take it.
  const bool Deep = Options.DeepValidate || !Image->isMapped();

  auto fail = [&](const std::string &Message) {
    return Result::error("'" + Path + "': " + Message);
  };

  if (Size < HeaderBytes)
    return fail("truncated flat image: missing header");
  if (std::memcmp(Data, FlatImageMagic, 8) != 0)
    return fail("not a flat image (bad magic)");
  const uint32_t Version = readU32At(Data, 8);
  if (Version != FlatImageVersion && Version != FlatImageVersionRouted)
    return fail("unsupported flat image version " + std::to_string(Version) +
                " (expected " + std::to_string(FlatImageVersion) + " or " +
                std::to_string(FlatImageVersionRouted) + ")");
  const uint32_t SectionCount = readU32At(Data, 12);
  const uint64_t KernelHash = readU64At(Data, 16);
  const uint64_t N = readU64At(Data, 24);
  const uint64_t Total = readU64At(Data, 32);
  const uint64_t TableOffset = readU64At(Data, 40);
  const uint64_t HeaderSum = readU64At(Data, 48);
  if (SectionCount == 0 || SectionCount > MaxSections)
    return fail("corrupt flat image: implausible section count " +
                std::to_string(SectionCount));
  if (N >= MaxCount || Total >= MaxCount)
    return fail("corrupt flat image: implausible profile/entry count");
  if (TableOffset != HeaderBytes)
    return fail("corrupt flat image: misaligned section table (offset " +
                std::to_string(TableOffset) + ", expected " +
                std::to_string(HeaderBytes) + ")");
  const uint64_t TableBytes = uint64_t(SectionCount) * TableEntryBytes;
  if (Size < HeaderBytes + TableBytes)
    return fail("truncated flat image: section table past end of file");

  // The header checksum covers the prefix and the whole table, so one
  // comparison validates every offset/size/sum we are about to trust.
  std::vector<unsigned char> Checked;
  Checked.reserve(HeaderSumPrefix + TableBytes);
  Checked.insert(Checked.end(), Data, Data + HeaderSumPrefix);
  Checked.insert(Checked.end(), Data + HeaderBytes,
                 Data + HeaderBytes + TableBytes);
  if (checksumBytes(Checked.data(), Checked.size()) != HeaderSum)
    return fail("corrupt flat image: header checksum mismatch");

  SectionIn Sections[MaxSections + 1] = {};
  for (uint32_t I = 0; I < SectionCount; ++I) {
    const uint64_t Entry = HeaderBytes + uint64_t(I) * TableEntryBytes;
    const uint32_t Id = readU32At(Data, Entry);
    SectionIn S;
    S.Offset = readU64At(Data, Entry + 8);
    S.Size = readU64At(Data, Entry + 16);
    S.Sum = readU64At(Data, Entry + 24);
    S.Present = true;
    // The routing-arena ids only exist from version 4 on; seeing one
    // under version 3 is skew (a patched header or a mixed-up writer),
    // not a format this reader can trust.
    const bool StoreId =
        Id >= 1 && Id <= static_cast<uint32_t>(FlatSectionId::QuantScales);
    const bool RoutingId =
        Version >= FlatImageVersionRouted &&
        Id >= static_cast<uint32_t>(FlatSectionId::RouteMeta) &&
        Id <= static_cast<uint32_t>(FlatSectionId::PostingValues);
    if (!StoreId && !RoutingId)
      return fail("corrupt flat image: unknown section id " +
                  std::to_string(Id) + " for version " +
                  std::to_string(Version));
    const char *Name = sectionName(static_cast<FlatSectionId>(Id));
    if (S.Offset % FlatImageAlignment != 0)
      return fail(std::string("corrupt flat image: ") + Name +
                  " section not " + std::to_string(FlatImageAlignment) +
                  "-byte aligned");
    if (S.Offset > Size || S.Size > Size - S.Offset)
      return fail(std::string("truncated flat image: ") + Name +
                  " section past end of file");
    if (Sections[Id].Present)
      return fail(std::string("corrupt flat image: duplicate ") + Name +
                  " section");
    Sections[Id] = S;
  }

  auto section = [&](FlatSectionId Id) -> const SectionIn & {
    return Sections[static_cast<uint32_t>(Id)];
  };
  auto sectionData = [&](FlatSectionId Id) {
    return Data + section(Id).Offset;
  };

  // Presence and exact sizes of the mandatory sections. The
  // entry-array sizes anchor every later pointer view, so they are
  // hard requirements, not checksummed suggestions.
  const struct {
    FlatSectionId Id;
    uint64_t WantSize;
    bool Exact;
  } Shape[] = {
      {FlatSectionId::KernelName, 0, false},
      {FlatSectionId::Offsets, (N + 1) * 8, true},
      {FlatSectionId::Hashes, Total * 8, true},
      {FlatSectionId::Values, Total * 8, true},
      {FlatSectionId::SelfDots, N * 8, true},
      {FlatSectionId::Norms, N * 8, true},
      {FlatSectionId::Names, (N + 1) * 8, false},
      {FlatSectionId::Labels, (N + 1) * 8, false},
  };
  for (const auto &Want : Shape) {
    const SectionIn &S = section(Want.Id);
    const char *Name = sectionName(Want.Id);
    if (!S.Present)
      return fail(std::string("corrupt flat image: missing ") + Name +
                  " section");
    if (Want.Exact ? S.Size != Want.WantSize : S.Size < Want.WantSize)
      return fail(std::string("corrupt flat image: ") + Name +
                  " section size disagrees with header counts");
  }

  // Verify checksums: always for the O(N)-sized metadata sections,
  // entry-sized arrays only under deep validation (see header).
  auto verify = [&](FlatSectionId Id) -> Status {
    const SectionIn &S = section(Id);
    if (S.Present &&
        checksumBytes(Data + S.Offset, static_cast<size_t>(S.Size)) != S.Sum)
      return Status::error(std::string("corrupt flat image: ") +
                           sectionName(Id) + " section checksum mismatch");
    return Status();
  };
  for (FlatSectionId Id :
       {FlatSectionId::KernelName, FlatSectionId::Offsets,
        FlatSectionId::SelfDots, FlatSectionId::Norms, FlatSectionId::Names,
        FlatSectionId::Labels, FlatSectionId::QuantScales,
        FlatSectionId::RouteMeta,
        FlatSectionId::RouteAssignments, FlatSectionId::CentroidOffsets,
        FlatSectionId::CentroidSelfDots, FlatSectionId::CentroidNorms,
        FlatSectionId::PostingClusterBegin, FlatSectionId::PostingBegin})
    if (Status S = verify(Id); !S)
      return fail(S.message());
  if (Deep)
    for (FlatSectionId Id :
         {FlatSectionId::Hashes, FlatSectionId::Values,
          FlatSectionId::QuantValues, FlatSectionId::CentroidHashes,
          FlatSectionId::CentroidValues, FlatSectionId::PostingFeatures,
          FlatSectionId::PostingIds, FlatSectionId::PostingValues})
      if (Status S = verify(Id); !S)
        return fail(S.message());

  std::string KernelName(
      reinterpret_cast<const char *>(sectionData(FlatSectionId::KernelName)),
      static_cast<size_t>(section(FlatSectionId::KernelName).Size));
  if (checksumBytes(KernelName.data(), KernelName.size()) != KernelHash)
    return fail("corrupt flat image: kernel-name hash mismatch");

  const uint64_t *Offsets =
      reinterpret_cast<const uint64_t *>(sectionData(FlatSectionId::Offsets));
  if (Status S = validateCsrOffsets(Offsets, static_cast<size_t>(N + 1), Total);
      !S)
    return fail(S.message());

  // Names/labels stay in the image: validate the offset tables once,
  // then view them lazily — no string materializes until someone reads
  // one (core/StringColumn).
  if (Status S = validateStringTable(sectionData(FlatSectionId::Names),
                                     section(FlatSectionId::Names).Size, N,
                                     "names");
      !S)
    return fail(S.message());
  if (Status S = validateStringTable(sectionData(FlatSectionId::Labels),
                                     section(FlatSectionId::Labels).Size, N,
                                     "labels");
      !S)
    return fail(S.message());

  ProfileStoreCache Cache;
  Cache.KernelName = std::move(KernelName);
  std::shared_ptr<const void> Backing = Image;
  auto stringColumn = [&](FlatSectionId Id) {
    const unsigned char *D = sectionData(Id);
    return StringColumn::fromMapped(
        reinterpret_cast<const uint64_t *>(D),
        reinterpret_cast<const char *>(D) + (N + 1) * 8,
        static_cast<size_t>(N), Backing);
  };
  Cache.Names = stringColumn(FlatSectionId::Names);
  Cache.Labels = stringColumn(FlatSectionId::Labels);
  Cache.Store = ProfileStore::fromMapped(
      Offsets,
      reinterpret_cast<const uint64_t *>(sectionData(FlatSectionId::Hashes)),
      reinterpret_cast<const double *>(sectionData(FlatSectionId::Values)),
      reinterpret_cast<const double *>(sectionData(FlatSectionId::SelfDots)),
      reinterpret_cast<const double *>(sectionData(FlatSectionId::Norms)),
      static_cast<size_t>(N), static_cast<size_t>(Total), Backing);
  if (Deep && !Cache.Store.isFinalized())
    return fail("corrupt flat image: profile entries not sorted by hash");

  // Optional quantized sidecar: both sections or neither.
  const SectionIn &QValues = section(FlatSectionId::QuantValues);
  const SectionIn &QScales = section(FlatSectionId::QuantScales);
  if (QValues.Present != QScales.Present)
    return fail("corrupt flat image: quantized sidecar needs both the "
                "quantized-values and quantized-scales sections");
  if (QValues.Present) {
    if (QValues.Size != Total || QScales.Size != N * 8)
      return fail("corrupt flat image: quantized sidecar size disagrees "
                  "with header counts");
    Cache.Store.adoptQuantized(
        std::make_shared<const QuantizedStore>(QuantizedStore::fromMapped(
            reinterpret_cast<const int8_t *>(
                sectionData(FlatSectionId::QuantValues)),
            Offsets,
            reinterpret_cast<const double *>(
                sectionData(FlatSectionId::QuantScales)),
            static_cast<size_t>(N), static_cast<size_t>(Total), Backing)));
  }

  // v4 routing arenas: all twelve sections or none. Structural checks
  // here are the always-on tier — everything an in-bounds query walk
  // depends on (CSR monotonicity, assignment range, exact sizes) —
  // while the payload arrays' checksums ride the deep tier like the
  // store's own entry arrays.
  const FlatSectionId RoutingIds[] = {
      FlatSectionId::RouteMeta,        FlatSectionId::RouteAssignments,
      FlatSectionId::CentroidOffsets,  FlatSectionId::CentroidHashes,
      FlatSectionId::CentroidValues,   FlatSectionId::CentroidSelfDots,
      FlatSectionId::CentroidNorms,    FlatSectionId::PostingClusterBegin,
      FlatSectionId::PostingFeatures,  FlatSectionId::PostingBegin,
      FlatSectionId::PostingIds,       FlatSectionId::PostingValues};
  size_t RoutingPresent = 0;
  for (FlatSectionId Id : RoutingIds)
    if (section(Id).Present)
      ++RoutingPresent;
  if (RoutingPresent != 0 && RoutingPresent != std::size(RoutingIds))
    return fail("corrupt flat image: routing arenas need all of their "
                "sections (" +
                std::to_string(RoutingPresent) + " of " +
                std::to_string(std::size(RoutingIds)) + " present)");
  if (RoutingPresent != 0) {
    const SectionIn &Meta = section(FlatSectionId::RouteMeta);
    const unsigned char *MetaData = sectionData(FlatSectionId::RouteMeta);
    if (Meta.Size != RouteMetaBytes ||
        std::memcmp(MetaData, RouteMetaMagic, sizeof(RouteMetaMagic)) != 0)
      return fail("corrupt flat image: malformed routing-meta section");
    if (readU32At(MetaData, 8) != RouteMetaVersion)
      return fail("unsupported flat image routing-meta version " +
                  std::to_string(readU32At(MetaData, 8)));
    const uint32_t Flags = readU32At(MetaData, 12);
    auto R = std::make_shared<RoutingArenas>();
    R->QuantizedShortlist = (Flags & RouteMetaFlagQuantizedShortlist) != 0;
    R->MaxDocFrequency = std::bit_cast<double>(readU64At(MetaData, 16));
    R->RerankBudget = readU64At(MetaData, 24);
    R->DefaultNProbe = readU64At(MetaData, 32);
    R->ClusterNumCentroids = readU64At(MetaData, 40);
    R->ClusterMaxIterations = readU64At(MetaData, 48);
    R->ClusterTrainingSample = readU64At(MetaData, 56);
    R->ClusterSeed = readU64At(MetaData, 64);
    R->Covered = readU64At(MetaData, 72);
    const uint64_t C = readU64At(MetaData, 80);
    const uint64_t CentroidEntries = readU64At(MetaData, 88);
    const uint64_t F = readU64At(MetaData, 96);
    const uint64_t P = readU64At(MetaData, 104);
    R->PrunedFeatures = readU64At(MetaData, 112);
    if (!(R->MaxDocFrequency >= 0.0) || R->MaxDocFrequency > 1.0)
      return fail("corrupt flat image: routing df threshold out of range");
    if (R->Covered != N)
      return fail("corrupt flat image: routing covers " +
                  std::to_string(R->Covered) + " of " + std::to_string(N) +
                  " profiles; it must cover all of them");
    if (C == 0 || C >= MaxCount || CentroidEntries >= MaxCount ||
        F >= MaxCount || P >= MaxCount)
      return fail("corrupt flat image: routing-meta counts disagree with "
                  "header counts");
    const struct {
      FlatSectionId Id;
      uint64_t WantSize;
    } RoutingShape[] = {
        {FlatSectionId::RouteAssignments, R->Covered * 4},
        {FlatSectionId::CentroidOffsets, (C + 1) * 8},
        {FlatSectionId::CentroidHashes, CentroidEntries * 8},
        {FlatSectionId::CentroidValues, CentroidEntries * 8},
        {FlatSectionId::CentroidSelfDots, C * 8},
        {FlatSectionId::CentroidNorms, C * 8},
        {FlatSectionId::PostingClusterBegin, (C + 1) * 8},
        {FlatSectionId::PostingFeatures, F * 8},
        {FlatSectionId::PostingBegin, (F + 1) * 8},
        {FlatSectionId::PostingIds, P * 4},
        {FlatSectionId::PostingValues, P * 8},
    };
    for (const auto &Want : RoutingShape)
      if (section(Want.Id).Size != Want.WantSize)
        return fail(std::string("corrupt flat image: ") +
                    sectionName(Want.Id) +
                    " section size disagrees with routing-meta counts");

    const uint64_t *CentroidOffsets = reinterpret_cast<const uint64_t *>(
        sectionData(FlatSectionId::CentroidOffsets));
    if (Status S = validateCsrOffsets(
            CentroidOffsets, static_cast<size_t>(C + 1), CentroidEntries);
        !S)
      return fail("routing centroids: " + S.message());
    const uint64_t *ClusterBegin = reinterpret_cast<const uint64_t *>(
        sectionData(FlatSectionId::PostingClusterBegin));
    if (Status S = validateCsrOffsets(ClusterBegin,
                                      static_cast<size_t>(C + 1), F);
        !S)
      return fail("routing cluster index: " + S.message());
    const uint64_t *PostingBegin = reinterpret_cast<const uint64_t *>(
        sectionData(FlatSectionId::PostingBegin));
    if (Status S = validateCsrOffsets(PostingBegin,
                                      static_cast<size_t>(F + 1), P);
        !S)
      return fail("routing posting index: " + S.message());
    const uint32_t *Assignments = reinterpret_cast<const uint32_t *>(
        sectionData(FlatSectionId::RouteAssignments));
    for (uint64_t I = 0; I < R->Covered; ++I)
      if (Assignments[I] >= C)
        return fail("corrupt flat image: routing assignment " +
                    std::to_string(I) + " names centroid " +
                    std::to_string(Assignments[I]) + " of " +
                    std::to_string(C));

    R->Assignments = {Assignments, static_cast<size_t>(R->Covered)};
    R->Centroids = ProfileStore::fromMapped(
        CentroidOffsets,
        reinterpret_cast<const uint64_t *>(
            sectionData(FlatSectionId::CentroidHashes)),
        reinterpret_cast<const double *>(
            sectionData(FlatSectionId::CentroidValues)),
        reinterpret_cast<const double *>(
            sectionData(FlatSectionId::CentroidSelfDots)),
        reinterpret_cast<const double *>(
            sectionData(FlatSectionId::CentroidNorms)),
        static_cast<size_t>(C), static_cast<size_t>(CentroidEntries), Backing);
    if (Deep && !R->Centroids.isFinalized())
      return fail("corrupt flat image: centroid features not sorted by hash");
    R->FeatureHashes = {reinterpret_cast<const uint64_t *>(
                            sectionData(FlatSectionId::PostingFeatures)),
                        static_cast<size_t>(F)};
    R->ClusterBegin = {ClusterBegin, static_cast<size_t>(C + 1)};
    R->PostingBegin = {PostingBegin, static_cast<size_t>(F + 1)};
    R->PostingIds = {reinterpret_cast<const uint32_t *>(
                         sectionData(FlatSectionId::PostingIds)),
                     static_cast<size_t>(P)};
    R->PostingValues = {reinterpret_cast<const double *>(
                            sectionData(FlatSectionId::PostingValues)),
                        static_cast<size_t>(P)};
    R->Backing = Backing;
    Cache.Routing = std::move(R);
  }

  // Serving faults pages in query order, which is as random as the
  // query stream; tell the kernel not to read ahead aggressively.
  Image->adviseRandom();
  return Cache;
}

//===----------------------------------------------------------------------===//
// Sharded images
//===----------------------------------------------------------------------===//

namespace {

constexpr std::string_view ShardExt = ".kfi";
constexpr std::string_view StagingExt = ".kfi.tmp";

/// \p Shard zero-padded to at least three digits.
std::string paddedShardNumber(uint64_t Shard) {
  std::string Number = std::to_string(Shard);
  while (Number.size() < 3)
    Number.insert(Number.begin(), '0');
  return Number;
}

/// "<Dir>/shard-NNN.kfi"; writer, sweeper and loader agree through
/// this formatter and parseShardNumber.
std::string shardFilePath(const std::string &Dir, size_t Shard) {
  return Dir + "/shard-" + paddedShardNumber(Shard) + std::string(ShardExt);
}

/// The inverse of shardFilePath's file-name half: the shard number of
/// a "shard-NNN.kfi" name, nullopt for anything else — including
/// staging files and non-canonical spellings like "shard-7.kfi",
/// which would otherwise alias the writer's "shard-007.kfi" in sweep
/// and contiguity decisions.
std::optional<uint64_t> parseShardNumber(std::string_view File) {
  if (!File.starts_with("shard-") || !endsWith(File, ShardExt))
    return std::nullopt;
  std::string_view Digits =
      File.substr(6, File.size() - 6 - ShardExt.size());
  std::optional<uint64_t> Number = parseUnsigned(Digits);
  if (!Number || Digits != paddedShardNumber(*Number))
    return std::nullopt;
  return Number;
}

bool isStagingFile(std::string_view File) {
  return File.starts_with("shard-") && endsWith(File, StagingExt);
}

} // namespace

Status
kast::writeShardedProfileImages(const std::vector<ProfileStoreCache> &Shards,
                                const std::string &Dir) {
  // An empty shard list would write nothing and then sweep *every*
  // existing shard file as stale — a degenerate input silently erasing
  // the previous generation. No real service produces it (a service
  // always has at least one shard), so refuse loudly.
  if (Shards.empty())
    return Status::error("refusing to write an empty sharded profile cache "
                         "to '" + Dir + "'");
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  if (Ec)
    return Status::error("cannot create directory '" + Dir +
                         "': " + Ec.message());
  // Three-phase save — write staging files, sweep stale files, rename
  // into place — ordered so that *no* crash point leaves a directory
  // that loads silently wrong: the loader refuses any directory with
  // leftover staging files, and until the very last rename at least
  // one staging file exists.
  //
  // Phase 1: write every shard under its staging name (an ENOSPC here
  // leaves the previous generation untouched).
  for (size_t S = 0; S < Shards.size(); ++S)
    if (Status W = writeImageAt(Shards[S], shardFilePath(Dir, S) + ".tmp"); !W)
      return W;
  // Phase 2: sweep files of the previous generation the new one will
  // not overwrite — higher-numbered shards (their numbering would stay
  // contiguous and silently restore the old corpus alongside the new)
  // and staging leftovers of older interrupted saves. A file the sweep
  // cannot delete fails the save loudly for the same reason.
  std::filesystem::directory_iterator It(Dir, Ec);
  if (Ec)
    return Status::error("cannot re-read directory '" + Dir +
                         "': " + Ec.message());
  for (const std::filesystem::directory_entry &Entry : It) {
    if (!Entry.is_regular_file())
      continue;
    const std::string File = Entry.path().filename().string();
    bool Stale = false;
    if (isStagingFile(File)) {
      // Our own phase-1 files are "shard-<canonical 0..N-1>.kfi.tmp";
      // anything else staging-shaped is a leftover.
      std::optional<uint64_t> Number =
          parseShardNumber(std::string_view(File).substr(0, File.size() - 4));
      Stale = !Number || *Number >= Shards.size();
    } else if (std::optional<uint64_t> Number = parseShardNumber(File)) {
      Stale = *Number >= Shards.size();
    }
    if (!Stale)
      continue;
    std::filesystem::remove(Entry.path(), Ec);
    if (Ec)
      return Status::error("cannot remove stale shard image '" +
                           Entry.path().string() + "': " + Ec.message());
  }
  // Phase 3: rename the staging files into place (atomic per file;
  // each rename overwrites the same-numbered previous-generation file,
  // so partial progress only ever mixes with a loud staging leftover).
  for (size_t S = 0; S < Shards.size(); ++S) {
    const std::string Path = shardFilePath(Dir, S);
    std::filesystem::rename(Path + ".tmp", Path, Ec);
    if (Ec)
      return Status::error("cannot rename '" + Path + ".tmp' into place: " +
                           Ec.message());
  }
  return Status();
}

Expected<std::vector<ProfileStoreCache>>
kast::loadShardedProfileImages(const std::string &Dir,
                               const std::string &ExpectedKernelName,
                               const FlatImageReadOptions &Options) {
  using Result = Expected<std::vector<ProfileStoreCache>>;
  std::error_code Ec;
  std::filesystem::directory_iterator It(Dir, Ec);
  if (Ec)
    return Result::error("cannot read directory '" + Dir +
                         "': " + Ec.message());

  // Collect the shard numbers actually present, then demand the
  // contiguous range 0..N-1: a hole means the corpus on disk is
  // partial, and serving a partial corpus silently would skew every
  // query that restart answers.
  std::vector<uint64_t> Numbers;
  for (const std::filesystem::directory_entry &Entry : It) {
    if (!Entry.is_regular_file())
      continue;
    const std::string File = Entry.path().filename().string();
    // A staging file means a save is in flight or died mid-way; the
    // shard files beside it may mix generations, so refuse the whole
    // directory rather than restore them silently (a completed re-save
    // sweeps the leftovers and unblocks).
    if (isStagingFile(File))
      return Result::error("interrupted save: staging file '" + File +
                           "' present in '" + Dir +
                           "'; re-save the shards or remove it");
    if (!File.starts_with("shard-") || !endsWith(File, ShardExt))
      continue;
    std::optional<uint64_t> Number = parseShardNumber(File);
    if (!Number)
      return Result::error("unparseable shard image name '" + File +
                           "' in '" + Dir + "'");
    Numbers.push_back(*Number);
  }
  if (Numbers.empty())
    return Result::error("no shard-*.kfi images in '" + Dir + "'");
  std::sort(Numbers.begin(), Numbers.end());
  for (size_t S = 0; S < Numbers.size(); ++S)
    if (Numbers[S] != S)
      return Result::error("shard images in '" + Dir +
                           "' are not contiguous: missing shard " +
                           std::to_string(S));

  std::vector<ProfileStoreCache> Shards;
  Shards.reserve(Numbers.size());
  for (size_t S = 0; S < Numbers.size(); ++S) {
    const std::string Path = shardFilePath(Dir, S);
    Expected<ProfileStoreCache> Cache = readProfileStoreImageFile(Path, Options);
    if (!Cache)
      return Result::error(Cache.message());
    if (!ExpectedKernelName.empty() &&
        Cache->KernelName != ExpectedKernelName)
      return Result::error("shard image '" + Path +
                           "' was built by kernel '" + Cache->KernelName +
                           "', expected '" + ExpectedKernelName + "'");
    Shards.push_back(Cache.take());
  }
  return Shards;
}
