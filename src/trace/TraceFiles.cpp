//===- trace/TraceFiles.cpp - Trace and strace files from disk ------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "trace/StraceAdapter.h"
#include "trace/TraceParser.h"

#include <fstream>
#include <iterator>

using namespace kast;

namespace {

/// Reads the file at \p Path whole and parses it with \p Parse, named by
/// its basename. A file is read into a string sized once from its
/// length; a pipe, which has none, grows the string as it is read.
template <typename ParseFn>
Expected<Trace> parseFile(const std::string &Path, ParseFn Parse) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return Expected<Trace>::error("cannot open '" + Path + "'");
  std::string Text;
  if (In.seekg(0, std::ios::end)) {
    Text.resize(static_cast<size_t>(In.tellg()));
    In.seekg(0).read(Text.data(), static_cast<std::streamsize>(Text.size()));
    Text.resize(static_cast<size_t>(In.gcount()));
  } else {
    In.clear();
    Text.assign(std::istreambuf_iterator<char>(In),
                std::istreambuf_iterator<char>());
  }
  const size_t Slash = Path.find_last_of('/');
  return Parse(Text,
               Slash == std::string::npos ? Path : Path.substr(Slash + 1));
}

} // namespace

Expected<Trace> kast::parseTraceFile(const std::string &Path) {
  return parseFile(Path, [](std::string_view Text, std::string Name) {
    return parseTrace(Text, std::move(Name));
  });
}

Expected<Trace> kast::parseStraceFile(const std::string &Path,
                                      StraceStats *Stats) {
  return parseFile(Path, [Stats](std::string_view Text, std::string Name) {
    return parseStrace(Text, std::move(Name), Stats);
  });
}
