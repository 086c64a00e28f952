//===- core/PreorderEncoder.cpp - Generic pre-order token encoding ---------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/PreorderEncoder.h"

#include <cassert>

using namespace kast;

void PreorderEncoder::add(const std::string &Literal, uint64_t Weight,
                          size_t Depth) {
  assert((First ? Depth == 0 : Depth <= PrevDepth + 1) &&
         "invalid pre-order depth contour");
  if (!First && Depth <= PrevDepth)
    Out.append(LevelUpLiteral, PrevDepth - Depth + 1);
  Out.append(Literal, Weight);
  PrevDepth = Depth;
  First = false;
}

WeightedString PreorderEncoder::finish() {
  if (Options.EmitTrailingLevelUp && !First)
    Out.append(LevelUpLiteral, PrevDepth + 1);
  return std::move(Out);
}

WeightedString
kast::encodePreorder(const std::vector<PreorderItem> &Items,
                     const std::shared_ptr<TokenTable> &Table,
                     const PreorderEncodeOptions &Options) {
  PreorderEncoder Encoder(Table, Options);
  for (const PreorderItem &Item : Items)
    Encoder.add(Item.Literal, Item.Weight, Item.Depth);
  return Encoder.finish();
}
