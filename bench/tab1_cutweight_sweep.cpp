//===- bench/tab1_cutweight_sweep.cpp - §4.2/4.3 textual claims ------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The paper's evaluation text (§4.1-4.3) is a matrix of qualitative
// claims over cut weights {2^1 .. 2^10}, the two string
// representations, and three kernels. This harness regenerates that
// matrix as one table per kernel/representation with a row per cut
// weight, reporting the 3-cut composition, purity, ARI, and whether
// the paper's expected groupings appear:
//
//  * Kast + bytes: 3 groups {A},{B},{C u D} at *small* cuts, no
//    misplacements; very large cuts lose structure;
//  * Kast + no bytes: only {B} vs {A,C,D} at small cuts (2 clusters);
//  * Blended: at best {A} vs {B,C,D}; never the 3 paper groups;
//  * k-Spectrum: "not successful at finding an acceptable clustering".
//
// Classic (count-based) baselines are cut-independent and printed as a
// single row.
//
//===----------------------------------------------------------------------===//

#include "FigureCommon.h"
#include "kernels/SpectrumKernels.h"
#include "util/TextTable.h"

#include <cstdio>
#include <memory>

using namespace kast;

namespace {

const LabelGrouping ThreeGroups = {{"A"}, {"B"}, {"C", "D"}};
const LabelGrouping OnlyB = {{"B"}, {"A", "C", "D"}};
const LabelGrouping OnlyA = {{"A"}, {"B", "C", "D"}};

/// One sweep row: cluster the Gram matrix and report cut outcomes.
void addRow(TextTable &Table, const std::string &CutLabel, const Matrix &K,
            const LabeledDataset &Data) {
  Dendrogram D = clusterHierarchical(similarityToDistance(K));
  std::vector<size_t> At2 = D.cutToClusters(2);
  std::vector<size_t> At3 = D.cutToClusters(3);

  std::string Outcome = "-";
  if (matchesGrouping(At3, Data.labels(), ThreeGroups))
    Outcome = "A|B|CD";
  else if (matchesGrouping(At2, Data.labels(), OnlyB))
    Outcome = "B|ACD";
  else if (matchesGrouping(At2, Data.labels(), OnlyA))
    Outcome = "A|BCD";

  Table.addRow({CutLabel, compositionString(At3, Data),
                formatDouble(purity(At3, Data.labels()), 3),
                formatDouble(adjustedRandIndex(At3, Data.labels()), 3),
                std::to_string(
                    misplacedCount(At3, Data.labels(), ThreeGroups)),
                Outcome});
}

void sweepKast(const LabeledDataset &Data, const char *Name) {
  std::printf("--- Kast Spectrum Kernel, %s ---\n", Name);
  TextTable Table;
  Table.setHeader({"cut", "3-cut composition", "purity", "ARI",
                   "misplaced", "grouping"});
  std::vector<uint64_t> Cuts;
  for (uint64_t Exp = 1; Exp <= 10; ++Exp)
    Cuts.push_back(1ULL << Exp);
  // One call finds each group pair's candidates for all ten cuts.
  const std::vector<Matrix> Grams = paperKastGrams(Cuts, Data);
  for (size_t C = 0; C < Cuts.size(); ++C)
    addRow(Table, std::to_string(Cuts[C]), Grams[C], Data);
  std::printf("%s\n", Table.render().c_str());
}

void sweepWeightedBaseline(const LabeledDataset &Data, const char *Name,
                           bool Blended) {
  std::printf("--- %s (weighted), %s ---\n",
              Blended ? "Blended Spectrum" : "k-Spectrum", Name);
  TextTable Table;
  Table.setHeader({"cut", "3-cut composition", "purity", "ARI",
                   "misplaced", "grouping"});
  for (uint64_t Exp = 1; Exp <= 10; ++Exp) {
    uint64_t Cut = 1ULL << Exp;
    std::unique_ptr<StringKernel> Kernel;
    if (Blended)
      Kernel = std::make_unique<BlendedSpectrumKernel>(3, 1.25, true, Cut);
    else
      Kernel = std::make_unique<KSpectrumKernel>(3, true, Cut);
    addRow(Table, std::to_string(Cut), paperGram(*Kernel, Data), Data);
  }
  std::printf("%s\n", Table.render().c_str());
}

void classicBaselines(const LabeledDataset &Data, const char *Name) {
  std::printf("--- classic count-based baselines (cut-independent), "
              "%s ---\n",
              Name);
  TextTable Table;
  Table.setHeader({"kernel", "3-cut composition", "purity", "ARI",
                   "misplaced", "grouping"});
  BlendedSpectrumKernel Blended(3, 1.25);
  KSpectrumKernel KSpec(3);
  BagOfTokensKernel Bag;
  addRow(Table, "blended k=3 l=1.25", paperGram(Blended, Data), Data);
  addRow(Table, "k-spectrum k=3", paperGram(KSpec, Data), Data);
  addRow(Table, "bag-of-tokens", paperGram(Bag, Data), Data);
  std::printf("%s\n", Table.render().c_str());
}

} // namespace

int main() {
  std::printf("=== Table 1: cut-weight sweep, all kernels, both "
              "representations ===\n");
  std::printf("(paper §4.2-4.3; cut weights 2^1 .. 2^10)\n\n");
  FigureContext Ctx = buildFigureContext();

  sweepKast(Ctx.WithBytes, "byte information");
  sweepKast(Ctx.NoBytes, "no byte information");
  sweepWeightedBaseline(Ctx.WithBytes, "byte information",
                        /*Blended=*/true);
  sweepWeightedBaseline(Ctx.NoBytes, "no byte information",
                        /*Blended=*/true);
  sweepWeightedBaseline(Ctx.WithBytes, "byte information",
                        /*Blended=*/false);
  classicBaselines(Ctx.WithBytes, "byte information");
  classicBaselines(Ctx.NoBytes, "no byte information");
  return 0;
}
