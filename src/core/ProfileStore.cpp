//===- core/ProfileStore.cpp - Arena-backed profile storage ----------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/ProfileStore.h"

#include "util/SimdDot.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace kast;

double kast::dot(const ProfileView &A, const ProfileView &B) {
  // Dense contiguous spans on both sides: this is the shape the
  // vectorized kernels exist for. simd::dotExact is bit-identical to
  // the scalar mergeJoinDot (pinned by tests/SimdDotTest.cpp), so the
  // Gram/retrieval bit-exactness contracts are unaffected.
  return simd::dotExact(A.Hashes, A.Values, A.Size, B.Hashes, B.Values,
                        B.Size);
}

double kast::dot(const ProfileView &A, const FlatProfile &B) {
  return simd::dotExact(A.Hashes, A.Values, A.Size, B.Hashes.data(),
                        B.Values.data(), B.Hashes.size());
}

double kast::dot(const ProfileView &A, const KernelProfile &B) {
  const std::vector<ProfileEntry> &Rhs = B.entries();
  return detail::mergeJoinDot(
      A.Size, [&](size_t I) { return A.Hashes[I]; },
      [&](size_t I) { return A.Values[I]; }, Rhs.size(),
      [&](size_t J) { return Rhs[J].Hash; },
      [&](size_t J) { return Rhs[J].Value; });
}

void FlatProfile::assign(const KernelProfile &P) {
  const std::vector<ProfileEntry> &Entries = P.entries();
  Hashes.resize(Entries.size());
  Values.resize(Entries.size());
  double SelfDot = 0.0;
  // Entry order, like KernelProfile::norm(), so Norm is bit-identical
  // to the staged profile's — the retrieval engine divides by it.
  for (size_t I = 0; I < Entries.size(); ++I) {
    Hashes[I] = Entries[I].Hash;
    Values[I] = Entries[I].Value;
    SelfDot += Entries[I].Value * Entries[I].Value;
  }
  Norm = std::sqrt(SelfDot);
}

//===----------------------------------------------------------------------===//
// QuantizedStore
//===----------------------------------------------------------------------===//

void QuantizedStore::syncOwned() {
  ValuesP = ValuesOwned.data();
  OffsetsP = OffsetsOwned.data();
  ScalesP = ScalesOwned.data();
  NumProfiles = OffsetsOwned.size() - 1;
  NumEntries = ValuesOwned.size();
}

QuantizedStore::QuantizedStore(const QuantizedStore &Other)
    : ValuesOwned(Other.ValuesOwned), OffsetsOwned(Other.OffsetsOwned),
      ScalesOwned(Other.ScalesOwned), Backing(Other.Backing) {
  if (Backing) {
    // Mapped mode: share the external arrays (and their keep-alive)
    // instead of copying — copies of a mapped sidecar stay O(1).
    ValuesP = Other.ValuesP;
    OffsetsP = Other.OffsetsP;
    ScalesP = Other.ScalesP;
    NumProfiles = Other.NumProfiles;
    NumEntries = Other.NumEntries;
  } else {
    syncOwned();
  }
}

QuantizedStore &QuantizedStore::operator=(const QuantizedStore &Other) {
  if (this != &Other) {
    QuantizedStore Tmp(Other);
    *this = std::move(Tmp);
  }
  return *this;
}

QuantizedStore::QuantizedStore(QuantizedStore &&Other) noexcept
    : ValuesOwned(std::move(Other.ValuesOwned)),
      OffsetsOwned(std::move(Other.OffsetsOwned)),
      ScalesOwned(std::move(Other.ScalesOwned)),
      Backing(std::move(Other.Backing)) {
  if (Backing) {
    ValuesP = Other.ValuesP;
    OffsetsP = Other.OffsetsP;
    ScalesP = Other.ScalesP;
    NumProfiles = Other.NumProfiles;
    NumEntries = Other.NumEntries;
  } else {
    // Vector moves transfer the heap buffers, so re-aiming at our own
    // vectors lands on the same bytes the source pointed at.
    syncOwned();
  }
  Other.ValuesOwned.clear();
  Other.OffsetsOwned.assign(1, 0);
  Other.ScalesOwned.clear();
  Other.Backing.reset();
  Other.syncOwned();
}

QuantizedStore &QuantizedStore::operator=(QuantizedStore &&Other) noexcept {
  if (this != &Other) {
    ValuesOwned = std::move(Other.ValuesOwned);
    OffsetsOwned = std::move(Other.OffsetsOwned);
    ScalesOwned = std::move(Other.ScalesOwned);
    Backing = std::move(Other.Backing);
    if (Backing) {
      ValuesP = Other.ValuesP;
      OffsetsP = Other.OffsetsP;
      ScalesP = Other.ScalesP;
      NumProfiles = Other.NumProfiles;
      NumEntries = Other.NumEntries;
    } else {
      syncOwned();
    }
    Other.ValuesOwned.clear();
    Other.OffsetsOwned.assign(1, 0);
    Other.ScalesOwned.clear();
    Other.Backing.reset();
    Other.syncOwned();
  }
  return *this;
}

QuantizedStore QuantizedStore::build(const ProfileStore &Store) {
  QuantizedStore Q;
  const ArrayView<double> Values = Store.values();
  const ArrayView<uint64_t> Offsets = Store.offsets();
  const size_t N = Store.size();
  Q.ValuesOwned.resize(Values.size());
  Q.OffsetsOwned.assign(Offsets.begin(), Offsets.end());
  Q.ScalesOwned.resize(N);
  for (size_t I = 0; I < N; ++I) {
    const size_t Begin = static_cast<size_t>(Offsets[I]);
    const size_t End = static_cast<size_t>(Offsets[I + 1]);
    double MaxAbs = 0.0;
    for (size_t E = Begin; E < End; ++E)
      MaxAbs = std::max(MaxAbs, std::abs(Values[E]));
    // All-zero (or empty) profile: scale 0, all codes 0 — the
    // quantized dot is exactly 0, matching the exact dot.
    const double Scale = MaxAbs > 0.0 ? MaxAbs / 127.0 : 0.0;
    Q.ScalesOwned[I] = Scale;
    const double Inv = Scale > 0.0 ? 1.0 / Scale : 0.0;
    for (size_t E = Begin; E < End; ++E) {
      // |v| <= MaxAbs, so v/Scale rounds into [-127, 127] — no clamp
      // needed.
      Q.ValuesOwned[E] = static_cast<int8_t>(std::lround(Values[E] * Inv));
    }
  }
  Q.syncOwned();
  return Q;
}

QuantizedStore QuantizedStore::fromMapped(
    const int8_t *Values, const uint64_t *Offsets, const double *Scales,
    size_t Profiles, size_t Entries, std::shared_ptr<const void> Backing) {
  assert(Backing && "mapped sidecar needs a keep-alive");
  QuantizedStore Q;
  Q.ValuesP = Values;
  Q.OffsetsP = Offsets;
  Q.ScalesP = Scales;
  Q.NumProfiles = Profiles;
  Q.NumEntries = Entries;
  Q.Backing = std::move(Backing);
  return Q;
}

//===----------------------------------------------------------------------===//
// ProfileStore
//===----------------------------------------------------------------------===//

void ProfileStore::syncOwned() {
  HashesP = HashesOwned.data();
  ValuesP = ValuesOwned.data();
  OffsetsP = OffsetsOwned.data();
  SelfDotsP = SelfDotsOwned.data();
  NormsP = NormsOwned.data();
  NumProfiles = OffsetsOwned.size() - 1;
  NumEntries = HashesOwned.size();
}

void ProfileStore::promote() {
  if (!Backing)
    return;
  HashesOwned.assign(HashesP, HashesP + NumEntries);
  ValuesOwned.assign(ValuesP, ValuesP + NumEntries);
  OffsetsOwned.assign(OffsetsP, OffsetsP + NumProfiles + 1);
  SelfDotsOwned.assign(SelfDotsP, SelfDotsP + NumProfiles);
  NormsOwned.assign(NormsP, NormsP + NumProfiles);
  Backing.reset();
  syncOwned();
}

void ProfileStore::moveFrom(ProfileStore &&Other) noexcept {
  HashesOwned = std::move(Other.HashesOwned);
  ValuesOwned = std::move(Other.ValuesOwned);
  OffsetsOwned = std::move(Other.OffsetsOwned);
  SelfDotsOwned = std::move(Other.SelfDotsOwned);
  NormsOwned = std::move(Other.NormsOwned);
  Backing = std::move(Other.Backing);
  Quant = std::move(Other.Quant);
  if (Backing) {
    HashesP = Other.HashesP;
    ValuesP = Other.ValuesP;
    OffsetsP = Other.OffsetsP;
    SelfDotsP = Other.SelfDotsP;
    NormsP = Other.NormsP;
    NumProfiles = Other.NumProfiles;
    NumEntries = Other.NumEntries;
  } else {
    // Vector moves transfer the heap buffers wholesale; syncing to our
    // own (just-moved-into) vectors lands on the same bytes.
    syncOwned();
  }
  Other.HashesOwned.clear();
  Other.ValuesOwned.clear();
  Other.OffsetsOwned.assign(1, 0);
  Other.SelfDotsOwned.clear();
  Other.NormsOwned.clear();
  Other.Backing.reset();
  Other.Quant.reset();
  Other.syncOwned();
}

ProfileStore::ProfileStore(const ProfileStore &Other)
    : HashesOwned(Other.HashesOwned), ValuesOwned(Other.ValuesOwned),
      OffsetsOwned(Other.OffsetsOwned), SelfDotsOwned(Other.SelfDotsOwned),
      NormsOwned(Other.NormsOwned), Backing(Other.Backing),
      Quant(Other.Quant) {
  if (Backing) {
    // Mapped mode: the copy shares the mapping (and its keep-alive),
    // so copying a mapped store is O(1) — the property that makes
    // snapshot publication cheap over image-backed segments.
    HashesP = Other.HashesP;
    ValuesP = Other.ValuesP;
    OffsetsP = Other.OffsetsP;
    SelfDotsP = Other.SelfDotsP;
    NormsP = Other.NormsP;
    NumProfiles = Other.NumProfiles;
    NumEntries = Other.NumEntries;
  } else {
    syncOwned();
  }
}

ProfileStore &ProfileStore::operator=(const ProfileStore &Other) {
  if (this != &Other) {
    ProfileStore Tmp(Other);
    moveFrom(std::move(Tmp));
  }
  return *this;
}

ProfileStore::ProfileStore(ProfileStore &&Other) noexcept {
  moveFrom(std::move(Other));
}

ProfileStore &ProfileStore::operator=(ProfileStore &&Other) noexcept {
  if (this != &Other)
    moveFrom(std::move(Other));
  return *this;
}

void ProfileStore::buildQuantized() {
  if (!Quant)
    Quant = std::make_shared<const QuantizedStore>(QuantizedStore::build(*this));
}

void ProfileStore::adoptQuantized(std::shared_ptr<const QuantizedStore> Q) {
  assert(Q && Q->size() == size() && Q->entryCount() == entryCount() &&
         "quantized sidecar must mirror the store's CSR layout");
  Quant = std::move(Q);
}

size_t ProfileStore::append(const KernelProfile &Profile) {
  promote();
  const std::vector<ProfileEntry> &Entries = Profile.entries();
  double SelfDot = 0.0;
  // No per-append reserve: an exact-size reserve beats geometric
  // growth only once, then forces a full arena copy on every later
  // append. push_back's doubling keeps N appends amortized O(total).
  for (const ProfileEntry &E : Entries) {
    assert((HashesOwned.size() == OffsetsOwned.back() ||
            HashesOwned.back() < E.Hash) &&
           "profile must be finalized (sorted, coalesced)");
    HashesOwned.push_back(E.Hash);
    ValuesOwned.push_back(E.Value);
    SelfDot += E.Value * E.Value;
  }
  OffsetsOwned.push_back(HashesOwned.size());
  SelfDotsOwned.push_back(SelfDot);
  NormsOwned.push_back(std::sqrt(SelfDot));
  Quant.reset(); // sidecar mirrors the CSR layout; stale after append
  syncOwned();
  return size() - 1;
}

void ProfileStore::appendAll(const std::vector<KernelProfile> &Profiles) {
  if (empty()) {
    size_t TotalEntries = 0;
    for (const KernelProfile &P : Profiles)
      TotalEntries += P.size();
    reserve(Profiles.size(), TotalEntries);
  }
  for (const KernelProfile &P : Profiles)
    append(P);
}

size_t ProfileStore::appendFrom(const ProfileStore &Other, size_t I) {
  // Self-append would insert from iterators into the vector being
  // grown — a reallocation mid-insert reads freed memory.
  assert(this != &Other && "appendFrom cannot copy a store into itself");
  promote();
  const size_t Begin = static_cast<size_t>(Other.OffsetsP[I]);
  const size_t End = static_cast<size_t>(Other.OffsetsP[I + 1]);
  HashesOwned.insert(HashesOwned.end(), Other.HashesP + Begin,
                     Other.HashesP + End);
  ValuesOwned.insert(ValuesOwned.end(), Other.ValuesP + Begin,
                     Other.ValuesP + End);
  OffsetsOwned.push_back(HashesOwned.size());
  SelfDotsOwned.push_back(Other.SelfDotsP[I]);
  NormsOwned.push_back(Other.NormsP[I]);
  Quant.reset();
  syncOwned();
  return size() - 1;
}

ProfileStore ProfileStore::adopt(std::vector<uint64_t> Hashes,
                                 std::vector<double> Values,
                                 std::vector<uint64_t> Offsets) {
  assert(!Offsets.empty() && Offsets.front() == 0 &&
         Offsets.back() == Hashes.size() && Hashes.size() == Values.size() &&
         "malformed CSR offsets");
  ProfileStore Store;
  Store.HashesOwned = std::move(Hashes);
  Store.ValuesOwned = std::move(Values);
  Store.OffsetsOwned = std::move(Offsets);
  Store.syncOwned();
  const size_t N = Store.size();
  Store.SelfDotsOwned.resize(N);
  Store.NormsOwned.resize(N);
  for (size_t I = 0; I < N; ++I) {
    double SelfDot = 0.0;
    for (size_t E = Store.OffsetsOwned[I]; E < Store.OffsetsOwned[I + 1]; ++E)
      SelfDot += Store.ValuesOwned[E] * Store.ValuesOwned[E];
    Store.SelfDotsOwned[I] = SelfDot;
    Store.NormsOwned[I] = std::sqrt(SelfDot);
  }
  Store.syncOwned();
  return Store;
}

ProfileStore ProfileStore::fromMapped(const uint64_t *Offsets,
                                      const uint64_t *Hashes,
                                      const double *Values,
                                      const double *SelfDots,
                                      const double *Norms, size_t Profiles,
                                      size_t Entries,
                                      std::shared_ptr<const void> Backing) {
  assert(Backing && "mapped store needs a keep-alive");
  assert(Offsets && Offsets[0] == 0 && Offsets[Profiles] == Entries &&
         "malformed CSR offsets");
  ProfileStore Store;
  Store.OffsetsP = Offsets;
  Store.HashesP = Hashes;
  Store.ValuesP = Values;
  Store.SelfDotsP = SelfDots;
  Store.NormsP = Norms;
  Store.NumProfiles = Profiles;
  Store.NumEntries = Entries;
  Store.Backing = std::move(Backing);
  return Store;
}

void ProfileStore::reserve(size_t Profiles, size_t Entries) {
  promote();
  OffsetsOwned.reserve(Profiles + 1);
  SelfDotsOwned.reserve(Profiles);
  NormsOwned.reserve(Profiles);
  HashesOwned.reserve(Entries);
  ValuesOwned.reserve(Entries);
  syncOwned();
}

KernelProfile ProfileStore::materialize(size_t I) const {
  KernelProfile P;
  P.reserve(OffsetsP[I + 1] - OffsetsP[I]);
  // The arena already holds finalized (sorted, coalesced) entries, so
  // plain adds reproduce the profile bit-exactly; no re-finalize.
  for (size_t E = OffsetsP[I]; E < OffsetsP[I + 1]; ++E)
    P.add(HashesP[E], ValuesP[E]);
  return P;
}

bool ProfileStore::isFinalized() const {
  for (size_t I = 0; I < size(); ++I)
    for (size_t E = OffsetsP[I] + 1; E < OffsetsP[I + 1]; ++E)
      if (HashesP[E - 1] >= HashesP[E])
        return false;
  return true;
}
