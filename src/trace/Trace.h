//===- trace/Trace.h - I/O trace event model -------------------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The in-memory model of an I/O access pattern file (paper §3.1): a
/// chronological sequence of operations, each with a name, the file
/// handle it acts on, an optional byte count, and an optional memory
/// address. Addresses are parsed for completeness but deliberately
/// ignored by the representation ("the memory addresses are ignored
/// completely", §3.1).
///
//===----------------------------------------------------------------------===//

#ifndef KAST_TRACE_TRACE_H
#define KAST_TRACE_TRACE_H

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace kast {

/// Well-known operation names. Traces may also contain arbitrary names
/// (OK_Other); the tree layer treats names as opaque strings, so the
/// enum exists only for convenient construction and classification.
enum class OpKind {
  Open,
  Close,
  Read,
  Write,
  Lseek,
  Fsync,
  Fileno,  ///< Negligible by default (§3.1).
  Mmap,    ///< Negligible by default (§3.1).
  Fscanf,  ///< Negligible by default (§3.1).
  Other,
};

/// \returns the canonical lowercase spelling, e.g. "read".
const char *opKindName(OpKind Kind);

/// Maps a spelling back to the enum; unknown names yield OK_Other.
OpKind opKindFromName(const std::string &Name);

/// One line of an I/O access pattern file.
struct TraceEvent {
  /// Operation name, lowercase ("read", "write", "lseek", ...). Stays
  /// a string: every spelling strace input and the generators produce
  /// is at most 15 bytes, so it lives in the small-string buffer and
  /// parsing allocates nothing per event.
  std::string Op;
  /// File handle the operation acts on.
  uint64_t Handle = 0;
  /// Number of bytes involved; 0 when the operation carries none.
  uint64_t Bytes = 0;
  /// Memory address associated with the operation (0 if absent).
  uint64_t Address = 0;

  TraceEvent() = default;
  TraceEvent(std::string Op, uint64_t Handle, uint64_t Bytes = 0,
             uint64_t Address = 0)
      : Op(std::move(Op)), Handle(Handle), Bytes(Bytes), Address(Address) {}
  TraceEvent(OpKind Kind, uint64_t Handle, uint64_t Bytes = 0,
             uint64_t Address = 0)
      : Op(opKindName(Kind)), Handle(Handle), Bytes(Bytes), Address(Address) {
  }

  bool isOpen() const { return Op == "open"; }
  bool isClose() const { return Op == "close"; }

  bool operator==(const TraceEvent &Rhs) const = default;
};

/// A chronological I/O access pattern plus an identifying name.
class Trace {
public:
  Trace() = default;
  explicit Trace(std::string Name) : Name(std::move(Name)) {}

  const std::string &name() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  const std::vector<TraceEvent> &events() const { return Events; }
  std::vector<TraceEvent> &events() { return Events; }

  size_t size() const { return Events.size(); }
  bool empty() const { return Events.empty(); }

  /// Appends one event.
  void append(TraceEvent Event) { Events.push_back(std::move(Event)); }

  /// Convenience append by fields.
  void append(OpKind Kind, uint64_t Handle, uint64_t Bytes = 0,
              uint64_t Address = 0) {
    Events.emplace_back(Kind, Handle, Bytes, Address);
  }

  /// Distinct handles in order of first appearance.
  std::vector<uint64_t> handles() const;

  /// Copy with every byte count forced to zero — the paper's second
  /// string representation ("ignoring is made by assuming all byte
  /// values are zero", §3.1).
  Trace withoutBytes() const;

  /// Copy with the events whose operation name is in \p Negligible
  /// removed (paper: fileno, mmap and fscanf "are negligible and hence
  /// ignored").
  Trace filtered(const std::set<std::string> &Negligible) const;

  /// The default negligible-operation set from §3.1.
  static const std::set<std::string> &defaultNegligibleOps();

  bool operator==(const Trace &Rhs) const = default;

private:
  std::string Name;
  std::vector<TraceEvent> Events;
};

} // namespace kast

#endif // KAST_TRACE_TRACE_H
