//===- core/PreorderEncoder.h - Generic pre-order token encoding *- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tree-to-string encoding of §3.1 factored out of PatternTree so
/// any tree-shaped structure can be turned into a weighted string with
/// identical [LEVEL_UP] semantics. The paper designed the
/// representation for this generality: "The rational of this design
/// corresponds to the future application of this representation in
/// more complex structures like Abstract Syntax Trees". The ast
/// library (src/ast) uses this encoder for exactly that purpose.
///
/// Input is the pre-order sequence of (literal, weight, depth)
/// triples; between consecutive items the encoder inserts [LEVEL_UP]
/// with weight d1 - d2 + 1 whenever that is positive (descent is
/// implicit in adjacency; siblings get weight 1).
///
//===----------------------------------------------------------------------===//

#ifndef KAST_CORE_PREORDERENCODER_H
#define KAST_CORE_PREORDERENCODER_H

#include "core/Token.h"

#include <string>
#include <vector>

namespace kast {

/// One pre-order node to encode.
struct PreorderItem {
  std::string Literal;
  uint64_t Weight = 1;
  size_t Depth = 0;
};

/// Options shared with the tree flattener.
struct PreorderEncodeOptions {
  /// Emit a final [LEVEL_UP] for the ascent after the last node.
  bool EmitTrailingLevelUp = false;
};

/// Incremental form of encodePreorder: items arrive one at a time, so
/// a caller can build each literal in one reused buffer.
class PreorderEncoder {
public:
  PreorderEncoder(std::shared_ptr<TokenTable> Table,
                  const PreorderEncodeOptions &Options = {})
      : Out(std::move(Table)), Options(Options) {}

  /// Reserves room for \p Tokens tokens, [LEVEL_UP]s included.
  void reserve(size_t Tokens) { Out.reserve(Tokens); }

  /// Appends one pre-order item (same contract as encodePreorder);
  /// \returns the id \p Literal has in the table.
  LiteralId add(const std::string &Literal, uint64_t Weight, size_t Depth);

  /// add() for a literal already interned in the table.
  void add(LiteralId Literal, uint64_t Weight, size_t Depth);

  const std::shared_ptr<TokenTable> &table() const { return Out.table(); }

  /// \returns the encoded string; call once, after the last add().
  WeightedString finish();

private:
  /// Emits the [LEVEL_UP] the next item, at \p Depth, needs.
  void moveTo(size_t Depth);
  void levelUp(uint64_t Levels);

  WeightedString Out;
  PreorderEncodeOptions Options;
  LiteralId LevelUp = ~LiteralId(0); ///< Interned at its first use.
  size_t PrevDepth = 0;
  bool First = true;
};

/// Encodes a pre-order node sequence as a weighted string.
///
/// \pre the depth sequence is a valid pre-order contour: the first
/// item has depth 0 and each item's depth is at most one greater than
/// its predecessor's (asserted).
WeightedString encodePreorder(const std::vector<PreorderItem> &Items,
                              const std::shared_ptr<TokenTable> &Table,
                              const PreorderEncodeOptions &Options = {});

} // namespace kast

#endif // KAST_CORE_PREORDERENCODER_H
