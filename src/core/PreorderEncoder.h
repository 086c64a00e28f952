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

  /// Appends one pre-order item (same contract as encodePreorder).
  void add(const std::string &Literal, uint64_t Weight, size_t Depth);

  /// \returns the encoded string; call once, after the last add().
  WeightedString finish();

private:
  WeightedString Out;
  PreorderEncodeOptions Options;
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
