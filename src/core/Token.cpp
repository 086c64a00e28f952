//===- core/Token.cpp - Weighted tokens and strings ------------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/Token.h"

using namespace kast;

LiteralId TokenTable::intern(const std::string &Literal) {
  auto It = Index.find(Literal);
  if (It != Index.end())
    return It->second;
  LiteralId Id = static_cast<LiteralId>(Literals.size());
  Literals.push_back(Literal);
  Index.emplace(Literal, Id);
  return Id;
}

LiteralId TokenTable::lookup(const std::string &Literal) const {
  auto It = Index.find(Literal);
  return It == Index.end() ? ~static_cast<LiteralId>(0) : It->second;
}

void WeightedString::append(const std::string &Literal, uint64_t Weight) {
  assert(Table && "appending to a string with no token table");
  append(Table->intern(Literal), Weight);
}

void WeightedString::append(LiteralId Id, uint64_t Weight) {
  if (PrefixWeight.empty())
    PrefixWeight.push_back(0);
  Ids.push_back(Id);
  PrefixWeight.push_back(PrefixWeight.back() + Weight);
}

uint64_t WeightedString::totalWeight() const {
  return rangeWeight(0, size());
}

uint64_t WeightedString::filteredWeight(uint64_t MinWeight) const {
  uint64_t Sum = 0;
  for (size_t I = 0; I < size(); ++I)
    if (weight(I) >= MinWeight)
      Sum += weight(I);
  return Sum;
}
