//===- core/StringColumn.h - Dual-mode string storage ----------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A column of N strings (the per-profile names and labels of a
/// ProfileStoreCache) in the same two backing modes as ProfileStore:
///
///  - *owned*: a vector of std::strings — the result of push_back,
///    mutable, exactly the pre-v4 behavior;
///  - *mapped*: a CSR view over an externally owned byte image — the
///    (N+1) u64 offset table and character blob of a flat image's
///    NAMES/LABELS section, kept alive through a shared_ptr backing.
///
/// The mapped mode is what makes flat-image opens lazy about strings:
/// the reader validates the offset table once and hands back views;
/// no std::string is materialized until someone actually reads a name
/// (operator[] returns a string_view straight into the mapping).
/// For a service restart that answers queries, that is the difference
/// between O(N) small allocations at open and zero.
///
/// The first mutation (push_back) of a mapped column promotes it to
/// owned strings, mirroring ProfileStore's copy-on-write promotion;
/// the mapping itself is never written through.
///
/// std::hash<std::string_view> and std::hash<std::string> are
/// guaranteed to agree on equal character sequences, so name-hash
/// routing (IndexService::shardOf) is stable across backing modes.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_CORE_STRINGCOLUMN_H
#define KAST_CORE_STRINGCOLUMN_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace kast {

class StringColumn {
public:
  StringColumn() = default;
  /*implicit*/ StringColumn(std::vector<std::string> Strings)
      : Owned(std::move(Strings)), Count(Owned.size()) {}

  /// Non-owning construction over a validated string table: \p Offsets
  /// is (Count+1) u64s (leading 0, non-decreasing), \p Blob the
  /// concatenated bytes, both alive through \p Backing. The flat-image
  /// reader validates the table before calling in.
  static StringColumn fromMapped(const uint64_t *Offsets, const char *Blob,
                                 size_t Count,
                                 std::shared_ptr<const void> Backing) {
    StringColumn C;
    C.OffsetsP = Offsets;
    C.BlobP = Blob;
    C.Count = Count;
    C.Backing = std::move(Backing);
    return C;
  }

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }

  /// True while the column views an external mapping; false once owned
  /// (initially, or after the promotion a push_back triggers).
  bool isMapped() const { return Backing != nullptr; }

  /// The string at \p I, decoded on access: a view into the mapping
  /// (mapped mode) or into the owned std::string (owned mode). Valid
  /// until the next mutation of this column.
  std::string_view operator[](size_t I) const {
    if (Backing) {
      const size_t Begin = static_cast<size_t>(OffsetsP[I]);
      return {BlobP + Begin, static_cast<size_t>(OffsetsP[I + 1]) - Begin};
    }
    return Owned[I];
  }

  /// Materialized copy of the string at \p I.
  std::string str(size_t I) const { return std::string((*this)[I]); }

  /// Appends a string; promotes a mapped column to owned first.
  void push_back(std::string_view S) {
    promote();
    Owned.emplace_back(S);
    Count = Owned.size();
  }

  /// Drops the last string; promotes a mapped column to owned first.
  void pop_back() {
    promote();
    Owned.pop_back();
    Count = Owned.size();
  }

  void clear() {
    Owned.clear();
    OffsetsP = nullptr;
    BlobP = nullptr;
    Count = 0;
    Backing.reset();
  }

  void reserve(size_t N) {
    promote();
    Owned.reserve(N);
  }

  friend bool operator==(const StringColumn &A, const StringColumn &B) {
    if (A.Count != B.Count)
      return false;
    for (size_t I = 0; I < A.Count; ++I)
      if (A[I] != B[I])
        return false;
    return true;
  }

  friend bool operator==(const StringColumn &A,
                         const std::vector<std::string> &B) {
    if (A.Count != B.size())
      return false;
    for (size_t I = 0; I < A.Count; ++I)
      if (A[I] != B[I])
        return false;
    return true;
  }
  friend bool operator==(const std::vector<std::string> &A,
                         const StringColumn &B) {
    return B == A;
  }

private:
  /// Copy-on-write promotion: materializes mapped strings into owned
  /// std::strings and drops the backing. No-op when already owned.
  void promote() {
    if (!Backing)
      return;
    Owned.reserve(Count);
    for (size_t I = 0; I < Count; ++I)
      Owned.emplace_back((*this)[I]);
    OffsetsP = nullptr;
    BlobP = nullptr;
    Backing.reset();
  }

  // Owned strings; unused (kept empty) while Backing is set.
  std::vector<std::string> Owned;
  // Mapped view: CSR offsets + character blob into Backing.
  const uint64_t *OffsetsP = nullptr;
  const char *BlobP = nullptr;
  size_t Count = 0;
  /// Non-null iff the views aim at an external mapping.
  std::shared_ptr<const void> Backing;
};

} // namespace kast

#endif // KAST_CORE_STRINGCOLUMN_H
