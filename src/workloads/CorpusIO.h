//===- workloads/CorpusIO.h - Corpus directories on disk -------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Materializes a corpus as a directory of plain-text access pattern
/// files — the form the paper's corpus originally had — and loads such
/// a directory back. File names are "<name>.trace" where the name
/// follows the "<label><base>.<copy>" lineage convention: a leading
/// alphabetic category label ("A3.2.trace" is a category-A example),
/// a base-example index, and the mutated-copy index after the dot.
/// Loading rejects names that break the convention with a diagnostic
/// error rather than guessing at labels. Profiles computed from a
/// corpus persist as flat images (core/FlatImage).
///
//===----------------------------------------------------------------------===//

#ifndef KAST_WORKLOADS_CORPUSIO_H
#define KAST_WORKLOADS_CORPUSIO_H

#include "util/Error.h"
#include "workloads/DatasetBuilder.h"

#include <string>
#include <vector>

namespace kast {

/// Writes every corpus trace to "<Dir>/<name>.trace". Creates \p Dir
/// if missing. Fails on the first I/O error.
Status writeCorpusDirectory(const std::vector<LabeledTrace> &Corpus,
                            const std::string &Dir);

/// Loads every "*.trace" file of \p Dir. Labels and lineage are
/// recovered from the "<label><base>.<copy>" file-name convention; a
/// name with no alphabetic label prefix, no base index, or no
/// ".<copy>" suffix is a hard error naming the offending file. The
/// result is in numeric lineage order — (label, base index, copy
/// index) — not lexicographic file-name order, so "A2.0" precedes
/// "A10.0" and corpus order matches generation order at any corpus
/// size.
Expected<std::vector<LabeledTrace>>
loadCorpusDirectory(const std::string &Dir);

} // namespace kast

#endif // KAST_WORKLOADS_CORPUSIO_H
