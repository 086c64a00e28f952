//===- core/FlatImage.h - The on-disk profile format -----------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "flat image": KAST's one on-disk format for kernel profiles. A
/// ProfileStore is serialized so that the on-disk layout *is* the
/// in-memory layout, so a profile paid for once is reloaded by mapping,
/// not parsing: the reader maps the file read-only, validates the
/// header and metadata sections, and hands back a ProfileStore whose
/// arrays alias the mapping (ProfileStore::fromMapped). Restart cost is
/// validation plus first-page faults, independent of entry count;
/// every process serving the same image shares one set of clean
/// page-cache pages; and corpora larger than RAM are served by letting
/// the kernel page.
///
/// Wire layout (all integers little-endian; doubles as IEEE-754 bit
/// patterns; byte offsets from the start of the file). Images are
/// written and read only on little-endian hosts, where the wire bytes
/// are the in-memory bytes; both entry points refuse to run elsewhere.
///
///   0    magic          8 bytes  "KASTFLAT"
///   8    version        u32      3, or 4 with routing arenas
///   12   sectionCount   u32
///   16   kernelHash     u64      checksumBytes(kernel name bytes)
///   24   profileCount   u64      N
///   32   entryCount     u64      total entries across all profiles
///   40   tableOffset    u64      64
///   48   headerSum      u64      checksumBytes(bytes [0,48) ++ table)
///   56   reserved       u64      0
///   64   section table  sectionCount x 32 bytes:
///          id u32, reserved u32, offset u64, byteSize u64, checksum u64
///   ...  sections, each aligned to FlatImageAlignment, zero-padded
///        between — aligned so u64/f64 views into the mapping are
///        well-aligned and each section starts on its own page.
///
/// Sections (ids in FlatSectionId; M* = mandatory):
///
///   M KERNELNAME  raw bytes of the producing kernel's name()
///   M OFFSETS     (N+1) x u64   CSR offsets (leading 0, last == total)
///   M HASHES      total x u64   feature hashes, one blob
///   M VALUES      total x f64   feature values
///   M SELFDOTS    N x f64       cached self-dots (dot(p, p))
///   M NORMS       N x f64       cached norms (sqrt of self-dot)
///   M NAMES       (N+1) x u64 string offsets, then the byte blob
///   M LABELS      same shape as NAMES
///     QVALUES     total x i8    QuantizedStore codes (int8 sidecar)
///     QSCALES     N x f64       QuantizedStore per-profile scales
///
/// Version 4 adds the routing tier as flat arenas — the canonical
/// in-memory CSR layout of index/ClusterRouter and index/InvertedIndex
/// serialized directly, so a routed restore is validate-and-view like
/// the store itself (no k-means refit, no posting rebuild). All twelve
/// sections appear together or not at all; a writer emits version 4
/// iff they are present, so unrouted images stay version 3:
///
///     RMETA       128 bytes     "KASTIVIX": the routing options and
///                               arena counts (layout in FlatImage.cpp)
///     RASSIGN     covered x u32 per-profile centroid assignment
///     COFFSETS    (C+1) x u64   centroid CSR offsets
///     CHASHES     ce x u64      centroid feature hashes
///     CVALUES     ce x f64      centroid feature values
///     CSELFDOTS   C x f64       centroid self-dots
///     CNORMS      C x f64       centroid norms
///     PCLUSTERS   (C+1) x u64   posting CSR: cluster -> feature range
///     PFEATURES   F x u64       surviving feature hashes
///     PBEGIN      (F+1) x u64   posting CSR: feature -> posting range
///     PIDS        P x u32       posting profile ids
///     PVALUES     P x f64       posting values (impact-ordered)
///
/// The routing covers every profile of the image: the writer refuses
/// arenas with any other `covered` count, and the reader refuses an
/// image whose routing meta claims one. SELFDOTS and NORMS ride in the
/// image because recomputing them is an O(entries) pass; QVALUES/
/// QSCALES (present iff the store had a built sidecar at write time)
/// and the routing sections let a routed, quantized shard restore with
/// no rebuild at all.
///
/// Validation. Opening always verifies the header checksum (which
/// covers the section table), section bounds and alignment, the
/// kernel-name hash, the CSR offset invariants, and the checksums of
/// every metadata-sized section (everything O(N): offsets, self-dots,
/// norms, names, labels, scales, and the routing meta / assignment /
/// CSR-offset sections). The entry-sized sections (HASHES/VALUES/
/// QVALUES and the routing payload arrays CHASHES/CVALUES/PFEATURES/
/// PIDS/PVALUES) are checksummed only under
/// FlatImageReadOptions::DeepValidate — verifying them eagerly would
/// fault every page and reintroduce the O(entries) open the format
/// exists to avoid. The buffered fallback (no mmap, or
/// KAST_FORCE_BUFFERED=1) always deep-validates: it has already paid
/// for every byte.
///
/// Lifetime. The returned cache's Store holds the MappedImage via
/// shared_ptr; whoever ends up owning the store (e.g. an IndexService
/// sealed segment) keeps the mapping alive, and the mapping survives
/// unlink/rename of the path. The first mutation of the store promotes
/// it to owned arrays and drops the image reference (see
/// core/ProfileStore.h). Because every save writes a sibling staging
/// file and renames it into place, saving over the path an image was
/// mapped from is safe: the mapping keeps the old file's bytes.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_CORE_FLATIMAGE_H
#define KAST_CORE_FLATIMAGE_H

#include "core/ProfileStore.h"
#include "core/StringColumn.h"
#include "util/Error.h"

#include <memory>
#include <string>
#include <vector>

namespace kast {

inline constexpr char FlatImageMagic[8] = {'K', 'A', 'S', 'T',
                                           'F', 'L', 'A', 'T'};
/// Version 3 is an image without routing sections; version 4 carries
/// the routing arenas.
inline constexpr uint32_t FlatImageVersion = 3;
inline constexpr uint32_t FlatImageVersionRouted = 4;

/// Section alignment (and the x86-64/aarch64 page size): sections
/// start page-aligned so each is independently mappable/advisable and
/// any 8-byte element view into it is well-aligned.
inline constexpr uint64_t FlatImageAlignment = 4096;

/// Section identifiers. Values are wire constants; ids from RouteMeta
/// on are the version-4 routing arenas and are rejected in version-3
/// files (version skew), so a v3-era reader and a v4 file fail loudly
/// in both directions. Id 11 is unassigned.
enum class FlatSectionId : uint32_t {
  KernelName = 1,
  Offsets = 2,
  Hashes = 3,
  Values = 4,
  SelfDots = 5,
  Norms = 6,
  Names = 7,
  Labels = 8,
  QuantValues = 9,
  QuantScales = 10,
  // v4 routing arenas (all-or-nothing):
  RouteMeta = 12,
  RouteAssignments = 13,
  CentroidOffsets = 14,
  CentroidHashes = 15,
  CentroidValues = 16,
  CentroidSelfDots = 17,
  CentroidNorms = 18,
  PostingClusterBegin = 19,
  PostingFeatures = 20,
  PostingBegin = 21,
  PostingIds = 22,
  PostingValues = 23,
};

/// CSR validation for every offset array the reader views: \p Offsets
/// must hold \p Count elements (profile count + 1) with a leading 0,
/// non-decreasing values, and a final element equal to \p Total (the
/// entry count the header promised). Runs *before* any entry blob is
/// aliased, so a corrupt offset array can never become an
/// out-of-bounds profile view. Returns a corruption diagnostic naming
/// the first violation.
Status validateCsrOffsets(const uint64_t *Offsets, size_t Count,
                          uint64_t Total);

/// The routing tier flattened into serialization-neutral CSR arenas —
/// the interchange form between the index layer (which fits and
/// queries routing) and the v4 flat image (which maps it). Every array
/// is an ArrayView aiming either into index-layer owned vectors
/// (export: kept alive by Backing aliasing the live routing object) or
/// into a mapped image (restore: kept alive by Backing holding the
/// MappedImage). core carries and serializes this struct; only the
/// index layer interprets it.
struct RoutingArenas {
  // Routing options, flattened to scalars (the "KASTIVIX" meta).
  double MaxDocFrequency = 1.0;
  uint64_t RerankBudget = 0;
  uint64_t DefaultNProbe = 0;
  bool QuantizedShortlist = true;
  uint64_t ClusterNumCentroids = 0;
  uint64_t ClusterMaxIterations = 8;
  uint64_t ClusterTrainingSample = 0;
  uint64_t ClusterSeed = 0;

  /// Profiles covered by the routing (== Assignments.size()): all of
  /// the store's profiles.
  uint64_t Covered = 0;
  /// Distinct features dropped by the df threshold at build time
  /// (diagnostic; rides along so a restored index reports it).
  uint64_t PrunedFeatures = 0;

  /// Cluster id per covered profile, values < Centroids.size().
  ArrayView<uint32_t> Assignments;
  /// Unit-norm sparse centroids (a small ProfileStore, owned or
  /// mapped).
  ProfileStore Centroids;

  // The inverted-index posting CSR (see index/InvertedIndex):
  /// Surviving feature hashes, cluster-major, sorted per cluster.
  ArrayView<uint64_t> FeatureHashes;
  /// Cluster C's features span FeatureHashes[ClusterBegin[C],
  /// ClusterBegin[C+1]); size Centroids.size() + 1.
  ArrayView<uint64_t> ClusterBegin;
  /// Feature F's postings span [PostingBegin[F], PostingBegin[F+1]);
  /// size FeatureHashes.size() + 1.
  ArrayView<uint64_t> PostingBegin;
  ArrayView<uint32_t> PostingIds;
  ArrayView<double> PostingValues;

  /// Keep-alive for whatever the views aim into.
  std::shared_ptr<const void> Backing;
};

/// One image's contents: per-profile names/labels alongside one
/// ProfileStore, plus the routing tier when the image carries one.
struct ProfileStoreCache {
  std::string KernelName;
  StringColumn Names;  ///< size() == Store.size()
  StringColumn Labels; ///< size() == Store.size()
  ProfileStore Store;
  /// The routing tier as flat arenas (version-4 sections). Null when
  /// the image has no routing.
  std::shared_ptr<const RoutingArenas> Routing;
};

struct FlatImageReadOptions {
  /// Also verify the checksums of the entry-sized sections (hashes,
  /// values, quantized codes) — an O(entries) sweep that faults every
  /// page. Tests and integrity audits want it; serving restarts do
  /// not. Implied on the buffered fallback path.
  bool DeepValidate = false;
  /// Skip mmap and read the file into an owned buffer (equivalent to
  /// KAST_FORCE_BUFFERED=1 for this one call).
  bool ForceBuffered = false;
};

/// Writes Cache.Store (with its names/labels, its quantized sidecar if
/// one is built, and Cache.Routing's arenas if non-null, which must
/// cover every profile) as a flat image at \p Path. The bytes go to
/// "<Path>.tmp" first, which is then renamed over \p Path, so a failed
/// save leaves any previous image intact and saving over the file the
/// store is mapped from is safe.
Status writeProfileStoreImageFile(const ProfileStoreCache &Cache,
                                  const std::string &Path);

/// Opens, validates, and views a flat image. On success the returned
/// cache's Store (and quantized sidecar, when the image carries one)
/// alias the mapping, Names/Labels are lazily decoded section-backed
/// columns (core/StringColumn), and — for a v4 image — Cache.Routing
/// views the routing arenas in place. Any structural or checksum
/// violation is rejected with a diagnostic naming the section.
Expected<ProfileStoreCache>
readProfileStoreImageFile(const std::string &Path,
                          const FlatImageReadOptions &Options = {});

/// Writes one flat image per shard — "<Dir>/shard-NNN.kfi", zero-padded
/// to at least three digits — creating \p Dir if missing. This is how
/// an index/IndexService persists (toShardCaches); a restart loads the
/// files back with loadShardedProfileImages and
/// IndexService::fromShardCaches. The save is three-phase — every
/// shard is written under its "<name>.tmp" staging name, stale files
/// of a previous save are swept, then the staging files are renamed
/// into place — so a crash at any point leaves either the previous
/// generation plus a staging leftover (which the loader refuses), or
/// the new generation. An empty shard list is refused.
Status writeShardedProfileImages(const std::vector<ProfileStoreCache> &Shards,
                                 const std::string &Dir);

/// Loads every "<Dir>/shard-NNN.kfi" written by
/// writeShardedProfileImages, in shard order. The numbering must be
/// contiguous from 0 (a missing middle shard is a hard error — serving
/// a partial corpus silently would skew every query), and a staging
/// leftover of an interrupted save fails the load. A non-empty
/// \p ExpectedKernelName is verified against every shard. The returned
/// stores alias their file mappings until first mutation.
Expected<std::vector<ProfileStoreCache>>
loadShardedProfileImages(const std::string &Dir,
                         const std::string &ExpectedKernelName = "",
                         const FlatImageReadOptions &Options = {});

} // namespace kast

#endif // KAST_CORE_FLATIMAGE_H
