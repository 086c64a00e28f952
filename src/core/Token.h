//===- core/Token.h - Weighted tokens and strings --------------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The weighted-string representation at the heart of the paper
/// (§3.1-3.2): "A weighted string is a set of consecutive weighted
/// tokens"; a token has a literal part and a weight. Literals are
/// interned in a TokenTable shared across a corpus so that kernel
/// computations compare 32-bit symbols rather than text.
///
/// Conventions (see TreeFlattener):
///   [ROOT] [HANDLE] [BLOCK]   structural tokens, weight 1
///   name[bytes]               leaf token, weight = repetitions
///   [LEVEL_UP]                ascent marker, weight = levels jumped
///
//===----------------------------------------------------------------------===//

#ifndef KAST_CORE_TOKEN_H
#define KAST_CORE_TOKEN_H

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace kast {

/// Interned literal identifier.
using LiteralId = uint32_t;

/// Spellings of the structural literals.
inline constexpr const char *RootLiteral = "[ROOT]";
inline constexpr const char *HandleLiteral = "[HANDLE]";
inline constexpr const char *BlockLiteral = "[BLOCK]";
inline constexpr const char *LevelUpLiteral = "[LEVEL_UP]";

/// Bidirectional literal <-> id interning table.
///
/// One table is shared (via shared_ptr) by every WeightedString of a
/// corpus; ids are only comparable within one table.
class TokenTable {
public:
  /// \returns the id for \p Literal, interning it if new.
  LiteralId intern(const std::string &Literal);

  /// \returns the id if already interned, or ~0u.
  LiteralId lookup(const std::string &Literal) const;

  /// \returns the literal spelling of \p Id.
  const std::string &literal(LiteralId Id) const {
    assert(Id < Literals.size() && "literal id out of range");
    return Literals[Id];
  }

  size_t size() const { return Literals.size(); }

  /// Creates a fresh shared table.
  static std::shared_ptr<TokenTable> create() {
    return std::make_shared<TokenTable>();
  }

private:
  std::vector<std::string> Literals;
  std::unordered_map<std::string, LiteralId> Index;
};

/// One weighted token (id + weight) as a value pair.
struct Token {
  LiteralId Literal = 0;
  uint64_t Weight = 1;

  bool operator==(const Token &Rhs) const = default;
};

/// A sequence of weighted tokens over a shared TokenTable.
///
/// Storage is struct-of-arrays: the matcher walks the literal ids
/// alone, and the weights are kept as the prefix sums append() extends,
/// so a token's or an occurrence's weight is O(1), every const member
/// is a pure read, and a string is safe to share across threads.
class WeightedString {
public:
  WeightedString() = default;
  explicit WeightedString(std::shared_ptr<TokenTable> Table,
                          std::string Name = "")
      : Table(std::move(Table)), Name(std::move(Name)) {}

  const std::string &name() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  const std::shared_ptr<TokenTable> &table() const { return Table; }

  size_t size() const { return Ids.size(); }
  bool empty() const { return Ids.empty(); }

  /// Reserves room for \p Tokens tokens, so that appending that many
  /// allocates nothing more.
  void reserve(size_t Tokens) {
    Ids.reserve(Tokens);
    PrefixWeight.reserve(Tokens + 1);
  }

  /// Appends a token by literal spelling.
  void append(const std::string &Literal, uint64_t Weight);

  /// Appends a token by pre-interned id.
  void append(LiteralId Id, uint64_t Weight);

  LiteralId literalId(size_t I) const {
    assert(I < Ids.size() && "token index out of range");
    return Ids[I];
  }
  const std::string &literal(size_t I) const {
    assert(Table && "string has no token table");
    return Table->literal(literalId(I));
  }
  uint64_t weight(size_t I) const {
    assert(I < size() && "token index out of range");
    return PrefixWeight[I + 1] - PrefixWeight[I];
  }
  Token token(size_t I) const { return {literalId(I), weight(I)}; }

  const std::vector<LiteralId> &literalIds() const { return Ids; }

  /// Total weight of the string — "the summation of the weights of its
  /// tokens" (§3.2).
  uint64_t totalWeight() const;

  /// Sum of token weights over [Begin, End).
  uint64_t rangeWeight(size_t Begin, size_t End) const {
    assert(Begin <= End && End <= size() && "bad token range");
    return Begin == End ? 0 : PrefixWeight[End] - PrefixWeight[Begin];
  }

  /// Paper §3.2 weight_{w>=n}: sum of the weights of the tokens whose
  /// individual weight is >= \p MinWeight.
  uint64_t filteredWeight(uint64_t MinWeight) const;

  /// Token-wise equality (same table assumed).
  bool operator==(const WeightedString &Rhs) const {
    return Ids == Rhs.Ids && PrefixWeight == Rhs.PrefixWeight;
  }

private:
  std::shared_ptr<TokenTable> Table;
  std::string Name;
  std::vector<LiteralId> Ids;
  /// PrefixWeight[i] = the summed weight of tokens [0, i); size() + 1
  /// entries, or none before the first token.
  std::vector<uint64_t> PrefixWeight;
};

} // namespace kast

#endif // KAST_CORE_TOKEN_H
