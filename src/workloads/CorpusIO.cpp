//===- workloads/CorpusIO.cpp - Corpus directories on disk -----------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "workloads/CorpusIO.h"
#include "trace/TraceParser.h"
#include "trace/TraceWriter.h"
#include "util/StringUtil.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <optional>

using namespace kast;

Status kast::writeCorpusDirectory(const std::vector<LabeledTrace> &Corpus,
                                  const std::string &Dir) {
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  if (Ec)
    return Status::error("cannot create directory '" + Dir +
                         "': " + Ec.message());
  for (const LabeledTrace &Example : Corpus) {
    std::string Name =
        Example.T.name().empty() ? "unnamed" : Example.T.name();
    std::string Path = Dir + "/" + Name + ".trace";
    if (!writeTraceFile(Example.T, Path))
      return Status::error("cannot write '" + Path + "'");
  }
  return Status();
}

/// Splits "<label><base>.<copy>" lineage out of a trace name; every
/// part is mandatory, so a nonconforming name fails loudly instead of
/// yielding an empty label that corrupts downstream accuracy metrics.
/// \p CopyOut receives the numeric copy index (the load order's final
/// sort key).
static Status parseLineage(const std::string &Name, LabeledTrace &Out,
                           uint64_t &CopyOut) {
  size_t I = 0;
  while (I < Name.size() &&
         std::isalpha(static_cast<unsigned char>(Name[I])))
    ++I;
  if (I == 0)
    return Status::error("no alphabetic label prefix");
  Out.Label = Name.substr(0, I);
  size_t Dot = Name.find('.', I);
  if (Dot == std::string::npos)
    return Status::error("no '.<copy>' suffix");
  std::optional<uint64_t> Base =
      parseUnsigned(std::string_view(Name).substr(I, Dot - I));
  if (!Base)
    return Status::error("no base index between label and '.'");
  Out.BaseIndex = static_cast<size_t>(*Base);
  std::optional<uint64_t> Copy =
      parseUnsigned(std::string_view(Name).substr(Dot + 1));
  if (!Copy)
    return Status::error("copy index after '.' is not a number");
  CopyOut = *Copy;
  Out.IsMutant = *Copy != 0;
  return Status();
}

Expected<std::vector<LabeledTrace>>
kast::loadCorpusDirectory(const std::string &Dir) {
  using Result = Expected<std::vector<LabeledTrace>>;
  std::error_code Ec;
  std::filesystem::directory_iterator It(Dir, Ec);
  if (Ec)
    return Result::error("cannot read directory '" + Dir +
                         "': " + Ec.message());

  std::vector<std::string> Paths;
  for (const std::filesystem::directory_entry &Entry : It)
    if (Entry.is_regular_file() &&
        Entry.path().extension() == ".trace")
      Paths.push_back(Entry.path().string());
  // Directory iteration order is platform-dependent; pin it before
  // parsing so diagnostics fire in a deterministic order too.
  std::sort(Paths.begin(), Paths.end());

  // Loaded examples keep their numeric copy index alongside so the
  // final order can be the *lineage* order (label, base, copy), not
  // the lexicographic file-name order — which would interleave bases
  // ("A10.0" sorts before "A2.0") the moment a corpus has ten or more
  // bases per label, silently breaking every consumer that assumes
  // corpus order matches lineage order.
  struct ParsedTrace {
    LabeledTrace Example;
    uint64_t Copy = 0;
  };
  std::vector<ParsedTrace> Parsed;
  Parsed.reserve(Paths.size());
  for (const std::string &Path : Paths) {
    Expected<Trace> T = parseTraceFile(Path);
    if (!T)
      return Result::error(T.message());
    ParsedTrace Entry;
    Entry.Example.T = T.take();
    // Strip the ".trace" suffix the parser kept in the name.
    std::string Name = Entry.Example.T.name();
    if (endsWith(Name, ".trace"))
      Name.resize(Name.size() - 6);
    Entry.Example.T.setName(Name);
    Status Lineage = parseLineage(Name, Entry.Example, Entry.Copy);
    if (!Lineage)
      return Result::error("malformed trace name '" + Name + "' ('" + Path +
                           "'): " + Lineage.message());
    Parsed.push_back(std::move(Entry));
  }
  std::sort(Parsed.begin(), Parsed.end(),
            [](const ParsedTrace &L, const ParsedTrace &R) {
              if (L.Example.Label != R.Example.Label)
                return L.Example.Label < R.Example.Label;
              if (L.Example.BaseIndex != R.Example.BaseIndex)
                return L.Example.BaseIndex < R.Example.BaseIndex;
              if (L.Copy != R.Copy)
                return L.Copy < R.Copy;
              return L.Example.T.name() < R.Example.T.name();
            });

  std::vector<LabeledTrace> Corpus;
  Corpus.reserve(Parsed.size());
  for (ParsedTrace &Entry : Parsed)
    Corpus.push_back(std::move(Entry.Example));
  return Corpus;
}
