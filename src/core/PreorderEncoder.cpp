//===- core/PreorderEncoder.cpp - Generic pre-order token encoding ---------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/PreorderEncoder.h"

#include <cassert>

using namespace kast;

void PreorderEncoder::levelUp(uint64_t Levels) {
  if (LevelUp == ~LiteralId(0))
    LevelUp = table()->intern(LevelUpLiteral);
  Out.append(LevelUp, Levels);
}

void PreorderEncoder::moveTo(size_t Depth) {
  assert((First ? Depth == 0 : Depth <= PrevDepth + 1) &&
         "invalid pre-order depth contour");
  if (!First && Depth <= PrevDepth)
    levelUp(PrevDepth - Depth + 1);
  PrevDepth = Depth;
  First = false;
}

LiteralId PreorderEncoder::add(const std::string &Literal, uint64_t Weight,
                               size_t Depth) {
  moveTo(Depth);
  const LiteralId Id = table()->intern(Literal);
  Out.append(Id, Weight);
  return Id;
}

void PreorderEncoder::add(LiteralId Literal, uint64_t Weight, size_t Depth) {
  moveTo(Depth);
  Out.append(Literal, Weight);
}

WeightedString PreorderEncoder::finish() {
  if (Options.EmitTrailingLevelUp && !First)
    levelUp(PrevDepth + 1);
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
