//===- core/ProfileStore.h - Arena-backed profile storage ------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Contiguous structure-of-arrays storage for a whole corpus of kernel
/// profiles. A KernelProfile is the per-string *staging* type — built
/// feature by feature, then finalized — but storing N of them keeps N
/// separately heap-allocated vectors of interleaved (hash, value)
/// pairs: every merge-join loads the value it almost never needs into
/// the same cache line as the hash it always compares, and a
/// million-trace corpus fragments into a million allocations.
///
/// A ProfileStore flattens all N profiles into one arena of three
/// parallel arrays:
///
///     Hashes:  [ h00 h01 h02 | h10 h11 | h20 h21 h22 h23 | ... ]
///     Values:  [ v00 v01 v02 | v10 v11 | v20 v21 v22 v23 | ... ]
///     Offsets: [ 0, 3, 5, 9, ... ]          (CSR; size() + 1 entries)
///
/// plus cached per-profile self-dots and norms. Profile I spans
/// [Offsets[I], Offsets[I+1]) of Hashes/Values. Consumers address
/// profiles through ProfileView — a non-owning (hash span, value span,
/// cached self-norm) triple — and the merge-join dot over two views
/// streams the dense hash arrays, touching values only on a hash
/// match. This is the storage behind the Gram fast path
/// (core/KernelMatrix), retrieval (index/IndexService), and the
/// on-disk flat image (core/FlatImage).
///
/// Backing modes. Internally every array is addressed through a span
/// (pointer + count), and the spans aim at one of two places:
///
///  - *owned*: the store's own vectors — the result of append/adopt,
///    mutable, exactly the pre-v3 behavior;
///  - *mapped*: an externally owned byte image (fromMapped), typically
///    a v3 flat-image file mapped read-only by core/FlatImage. The
///    store holds a `shared_ptr<const void>` keep-alive to the backing,
///    so the mapping lives as long as any store (or copy of it) views
///    into it. Restore is O(1): no arena allocation, no entry copies.
///
/// The first mutation of a mapped store (append/appendFrom/reserve)
/// promotes it: the mapped spans are copied into owned vectors, the
/// backing reference is dropped, and the mutation proceeds against the
/// private copy — copy-on-write at store granularity. The mapping
/// itself is never written through (it is PROT_READ anyway).
///
/// Views are invalidated by append (the arena may reallocate); indices
/// are stable forever.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_CORE_PROFILESTORE_H
#define KAST_CORE_PROFILESTORE_H

#include "core/KernelProfile.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace kast {

/// Minimal read-only array view: the return type of the store's raw
/// accessors, pointing either into the store's own vectors or into a
/// mapped image. Iterable and element-comparable like the vector it
/// replaced; does not own and does not outlive its store's next
/// mutation.
template <typename T> class ArrayView {
public:
  ArrayView() = default;
  ArrayView(const T *Data, size_t Size) : Ptr(Data), Count(Size) {}
  /*implicit*/ ArrayView(const std::vector<T> &V)
      : Ptr(V.data()), Count(V.size()) {}

  const T *data() const { return Ptr; }
  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  const T *begin() const { return Ptr; }
  const T *end() const { return Ptr + Count; }
  const T &operator[](size_t I) const { return Ptr[I]; }
  const T &front() const { return Ptr[0]; }
  const T &back() const { return Ptr[Count - 1]; }

  friend bool operator==(const ArrayView &A, const ArrayView &B) {
    if (A.Count != B.Count)
      return false;
    for (size_t I = 0; I < A.Count; ++I)
      if (!(A.Ptr[I] == B.Ptr[I]))
        return false;
    return true;
  }

private:
  const T *Ptr = nullptr;
  size_t Count = 0;
};

/// Non-owning window onto one profile in a ProfileStore: parallel
/// hash/value spans plus the cached self-dot and norm. Cheap to copy;
/// valid until the next append to the owning store.
struct ProfileView {
  const uint64_t *Hashes = nullptr;
  const double *Values = nullptr;
  size_t Size = 0;
  /// Raw self-kernel dot(p, p), cached at append.
  double SelfDot = 0.0;
  /// sqrt(SelfDot), cached at append (cosine denominators).
  double Norm = 0.0;

  bool empty() const { return Size == 0; }
};

/// Merge-join inner product of two views. The hash-compare phase
/// streams the two dense hash arrays; values are loaded only on a
/// match. Bit-identical to KernelProfile::dot over the same features.
double dot(const ProfileView &A, const ProfileView &B);

/// Merge-join inner product of a view against a staged (finalized)
/// KernelProfile — the one-off query side of index retrieval, where
/// the query never enters the arena.
double dot(const ProfileView &A, const KernelProfile &B);

/// A finalized KernelProfile flattened into dense parallel hash/value
/// arrays — the vectorizable shape of a one-off query. The staged type
/// is an array-of-structs (interleaved ProfileEntry pairs), which no
/// SIMD hash-compare can stream; retrieval layers flatten the query
/// once per query and dot it against thousands of candidate views.
struct FlatProfile {
  std::vector<uint64_t> Hashes;
  std::vector<double> Values;
  /// sqrt(selfDot), summed in entry order — bit-identical to
  /// KernelProfile::norm() on the source profile.
  double Norm = 0.0;

  FlatProfile() = default;
  explicit FlatProfile(const KernelProfile &P) { assign(P); }

  /// Re-flattens \p P into this object, reusing capacity (scratch
  /// reuse across a query batch).
  void assign(const KernelProfile &P);

  size_t size() const { return Hashes.size(); }
  bool empty() const { return Hashes.empty(); }
};

/// Merge-join inner product of a stored view against a flattened
/// query. Bit-identical to dot(A, KernelProfile) over the same
/// features — flattening only changes the layout.
double dot(const ProfileView &A, const FlatProfile &B);

class ProfileStore;

/// Optional int8 sidecar for a ProfileStore: the cheap scan tier.
///
/// Each profile's values are quantized independently with a symmetric
/// per-profile scale (Scale = maxAbs / 127, Q = round(V / Scale), so
/// |V - Scale*Q| <= Scale/2). The hashes are NOT copied — a quantized
/// view shares the parent store's hash span, and the sidecar mirrors
/// the parent's CSR layout at build time, so it must be rebuilt (not
/// patched) after any append. Scales and the exact f64 self-dots stay
/// in the parent store; the sidecar only adds the 8x-smaller value
/// arrays the approximate scan streams.
///
/// Like the parent store, a sidecar is either owned (build) or a view
/// over a mapped image (fromMapped — the v3 format persists the codes
/// and scales so a quantized index restores without the O(entries)
/// rebuild). A sidecar is immutable after construction, so it needs no
/// promotion machinery; the parent drops it on append either way.
///
/// Error bound: for a query q and stored profile p,
///     |dot(q, p) - dotQuantized(q, p)| <= Scale/2 * sum_matches |q_i|
///                                      <= Scale/2 * L1(q),
/// since each matched stored value is off by at most Scale/2. The
/// bound is tested in SimdDotTest and justifies the shortlist margin
/// in the retrieval layers, which always re-rank survivors with the
/// exact f64 kernel before anything becomes user-visible.
class QuantizedStore {
public:
  /// One profile's quantized values; pair with the parent store's
  /// ProfileView::Hashes (same indices, same CSR layout).
  struct View {
    const int8_t *Values = nullptr;
    size_t Size = 0;
    double Scale = 0.0;
  };

  QuantizedStore() { syncOwned(); }
  QuantizedStore(const QuantizedStore &Other);
  QuantizedStore &operator=(const QuantizedStore &Other);
  QuantizedStore(QuantizedStore &&Other) noexcept;
  QuantizedStore &operator=(QuantizedStore &&Other) noexcept;

  /// Quantizes every profile of \p Store. Deterministic: the sidecar
  /// is a pure function of the store's contents, so it can always be
  /// rebuilt instead of persisted.
  static QuantizedStore build(const ProfileStore &Store);

  /// Non-owning construction over externally owned arrays (a mapped v3
  /// image); \p Backing keeps the bytes alive. The arrays must mirror
  /// the parent store's CSR layout — the flat-image reader validates
  /// this before calling in.
  static QuantizedStore fromMapped(const int8_t *Values,
                                   const uint64_t *Offsets,
                                   const double *Scales, size_t Profiles,
                                   size_t Entries,
                                   std::shared_ptr<const void> Backing);

  size_t size() const { return NumProfiles; }

  /// Total quantized entries (== the parent store's entryCount()).
  size_t entryCount() const { return NumEntries; }

  View view(size_t I) const {
    const size_t Begin = static_cast<size_t>(OffsetsP[I]);
    return {ValuesP + Begin, static_cast<size_t>(OffsetsP[I + 1]) - Begin,
            ScalesP[I]};
  }

  double scale(size_t I) const { return ScalesP[I]; }

  // Raw access for image serialization (core/FlatImage).
  ArrayView<int8_t> values() const { return {ValuesP, NumEntries}; }
  ArrayView<double> scales() const { return {ScalesP, NumProfiles}; }

private:
  void syncOwned();

  std::vector<int8_t> ValuesOwned;
  std::vector<uint64_t> OffsetsOwned = {0};
  std::vector<double> ScalesOwned;
  const int8_t *ValuesP = nullptr;
  const uint64_t *OffsetsP = nullptr;
  const double *ScalesP = nullptr;
  size_t NumProfiles = 0;
  size_t NumEntries = 0;
  /// Non-null iff the spans view an external mapping.
  std::shared_ptr<const void> Backing;
};

/// Arena of N profiles as structure-of-arrays with CSR offsets, either
/// owning its arrays or viewing a mapped image (see file comment).
class ProfileStore {
public:
  ProfileStore() { syncOwned(); }
  ProfileStore(const ProfileStore &Other);
  ProfileStore &operator=(const ProfileStore &Other);
  ProfileStore(ProfileStore &&Other) noexcept;
  ProfileStore &operator=(ProfileStore &&Other) noexcept;

  /// Copies a finalized profile into the arena and caches its
  /// self-dot/norm. \returns the new profile's index.
  size_t append(const KernelProfile &Profile);

  /// Appends a whole batch, encoding the arena's sizing policy once
  /// for every bulk-build call site: an empty store is exact-size
  /// reserved for the batch; a non-empty store grows geometrically
  /// (an exact reserve per batch would force a full arena copy on
  /// every append).
  void appendAll(const std::vector<KernelProfile> &Profiles);

  /// Copies profile \p I of \p Other straight into this arena — two
  /// contiguous range inserts plus the cached self-dot/norm, no
  /// KernelProfile materialization. This is the rebuild primitive for
  /// arena-to-arena movement (shard distribution, tombstone-dropping
  /// compaction in index/IndexService, sharded cache export).
  /// \p Other must not be this store (asserted): self-append would
  /// read from an arena mid-reallocation. \returns the new profile's
  /// index.
  size_t appendFrom(const ProfileStore &Other, size_t I);

  /// Bulk variant of append: adopts entry arrays wholesale (e.g. the
  /// centroids a k-means round accumulates). Entries of each profile must be sorted
  /// by strictly increasing hash — the finalize() invariant; use
  /// isFinalized() to validate untrusted input first. \p Offsets must
  /// be a CSR offset array: size N+1, leading 0, non-decreasing, last
  /// element == Hashes.size() == Values.size().
  static ProfileStore adopt(std::vector<uint64_t> Hashes,
                            std::vector<double> Values,
                            std::vector<uint64_t> Offsets);

  /// Non-owning construction over externally owned arrays — the v3
  /// flat-image restore path (core/FlatImage). All five arrays view
  /// \p Backing, which stays alive as long as this store or any copy
  /// of it does. The caller has already validated the CSR shape and
  /// section checksums; self-dots and norms come from the image, not
  /// from an O(entries) recompute. The first mutation promotes to
  /// owned arrays (see isMapped()).
  static ProfileStore fromMapped(const uint64_t *Offsets,
                                 const uint64_t *Hashes,
                                 const double *Values, const double *SelfDots,
                                 const double *Norms, size_t Profiles,
                                 size_t Entries,
                                 std::shared_ptr<const void> Backing);

  /// True while the arrays view an external mapping; false once owned
  /// (initially, or after the copy-on-write promotion a mutation
  /// triggers).
  bool isMapped() const { return Backing != nullptr; }

  /// Number of profiles stored.
  size_t size() const { return NumProfiles; }
  bool empty() const { return size() == 0; }

  /// Total (hash, value) entries across all profiles.
  size_t entryCount() const { return NumEntries; }

  /// The view of profile \p I; invalidated by the next append.
  ProfileView view(size_t I) const {
    const size_t Begin = static_cast<size_t>(OffsetsP[I]);
    return {HashesP + Begin, ValuesP + Begin,
            static_cast<size_t>(OffsetsP[I + 1]) - Begin, SelfDotsP[I],
            NormsP[I]};
  }

  /// Raw self-kernel dot(p, p) of profile \p I.
  double selfDot(size_t I) const { return SelfDotsP[I]; }

  /// sqrt(selfDot(I)).
  double norm(size_t I) const { return NormsP[I]; }

  /// Pre-sizes the arena for \p Profiles profiles totaling \p Entries
  /// features, so a bulk build appends without reallocation. Counts as
  /// a mutation: promotes a mapped store.
  void reserve(size_t Profiles, size_t Entries);

  /// Copies profile \p I back out as a staging-type KernelProfile
  /// (e.g. to re-query an index with one of its own entries).
  KernelProfile materialize(size_t I) const;

  /// Checks the finalize() invariant (strictly increasing hashes) for
  /// every profile — the validation gate for untrusted arrays.
  bool isFinalized() const;

  /// Builds (or rebuilds) the int8 quantized sidecar from the current
  /// contents. Like views, the sidecar is invalidated — dropped — by
  /// the next append; call again once the store is settled. No-op if a
  /// sidecar for the current contents already exists.
  void buildQuantized();

  /// Installs an externally built sidecar — the v3 restore path, where
  /// the image carries the int8 codes and scales and rebuilding them
  /// would forfeit the O(1) open. \p Q must mirror this store's CSR
  /// layout (asserted on the counts).
  void adoptQuantized(std::shared_ptr<const QuantizedStore> Q);

  /// The quantized sidecar, or nullptr if none has been built (or an
  /// append invalidated it).
  const QuantizedStore *quantized() const { return Quant.get(); }

  /// Shared ownership of the sidecar, so snapshot/routing structures
  /// can outlive this store's next mutation.
  std::shared_ptr<const QuantizedStore> quantizedShared() const {
    return Quant;
  }

  // Raw arena access for block serialization; offsets() has size()+1
  // elements with offsets()[0] == 0. Offsets are kept as u64 — the
  // cache wire width — so save/load move the blob wholesale with no
  // widen/narrow copy. The views follow the active backing (owned
  // vectors or mapped image) and are invalidated like ProfileViews.
  ArrayView<uint64_t> hashes() const { return {HashesP, NumEntries}; }
  ArrayView<double> values() const { return {ValuesP, NumEntries}; }
  ArrayView<uint64_t> offsets() const { return {OffsetsP, NumProfiles + 1}; }
  ArrayView<double> selfDots() const { return {SelfDotsP, NumProfiles}; }
  ArrayView<double> norms() const { return {NormsP, NumProfiles}; }

private:
  /// Re-aims the spans at the owned vectors and refreshes the counts
  /// from them; called after every owned-mode mutation (push_back may
  /// reallocate) and by construction/assignment.
  void syncOwned();

  /// Copy-on-write promotion: copies mapped spans into the owned
  /// vectors and drops the backing. No-op when already owned.
  void promote();

  void moveFrom(ProfileStore &&Other) noexcept;

  // Owned arenas; unused (kept empty/trivial) while Backing is set.
  std::vector<uint64_t> HashesOwned;
  std::vector<double> ValuesOwned;
  std::vector<uint64_t> OffsetsOwned = {0};
  std::vector<double> SelfDotsOwned;
  std::vector<double> NormsOwned;

  // Active spans: into the owned vectors, or into Backing.
  const uint64_t *HashesP = nullptr;
  const double *ValuesP = nullptr;
  const uint64_t *OffsetsP = nullptr;
  const double *SelfDotsP = nullptr;
  const double *NormsP = nullptr;
  size_t NumProfiles = 0;
  size_t NumEntries = 0;

  /// Keep-alive for the mapped image; non-null iff in mapped mode.
  std::shared_ptr<const void> Backing;

  /// Lazily built by buildQuantized(); reset by any append (the
  /// sidecar mirrors the CSR layout, which appends change).
  std::shared_ptr<const QuantizedStore> Quant;
};

} // namespace kast

#endif // KAST_CORE_PROFILESTORE_H
