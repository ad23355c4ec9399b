#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>

namespace sdcm::sim {

/// Interned name: a 4-byte handle into a process-wide append-only atom
/// table. Message types (net::MessageType), trace tags and reasons
/// (sim::TraceTag, TraceDetail), and profiler sites share this one dense
/// id space (DESIGN.md section 13.1). Construction from a literal happens
/// once at static-init time (the per-module msg:: and tag:: constants),
/// after which every send, record, counter bump and comparison is
/// integer work; text comes back only where a name is printed.
///
/// Atom id 0 is the empty name "" (a default-constructed Message type,
/// an absent reason), so an Atom is always valid to read back.
class Atom {
 public:
  using Id = std::uint32_t;

  /// The empty atom "".
  constexpr Atom() noexcept = default;

  /// Interns `name` (idempotent) and returns its atom. Thread-safe;
  /// intended for static-init of the msg:: and tag:: constants, for
  /// readers of exported text, and for tests that mint ad-hoc names.
  /// Throws std::length_error if the table is full (kMaxAtoms) -
  /// vocabularies are small by design.
  static Atom intern(std::string_view name);

  /// The atom for `name` if it was ever interned; nullopt otherwise.
  /// Never creates - this is the query path for counters and trace
  /// filters keyed on names that may belong to no registered protocol.
  static std::optional<Atom> lookup(std::string_view name) noexcept;

  /// Number of atoms interned so far (including the empty atom). Dense:
  /// every id below count() is valid.
  static Id count() noexcept;

  /// The atom with the given dense id. Precondition: id < count().
  /// Used by report tooling iterating the per-type counter array.
  static Atom at(Id id) noexcept { return Atom{id}; }

  /// The interned spelling. Lock-free: atom storage is pre-reserved and
  /// append-only, so the returned view stays valid for the process
  /// lifetime.
  [[nodiscard]] std::string_view str() const noexcept;

  [[nodiscard]] constexpr Id id() const noexcept { return id_; }
  [[nodiscard]] constexpr bool empty() const noexcept { return id_ == 0; }

  friend constexpr bool operator==(Atom a, Atom b) noexcept {
    return a.id_ == b.id_;
  }
  friend constexpr bool operator!=(Atom a, Atom b) noexcept {
    return a.id_ != b.id_;
  }
  /// Orders by atom id (interning order), NOT lexicographically; callers
  /// that need name order (deterministic reports) sort by str().
  friend constexpr bool operator<(Atom a, Atom b) noexcept {
    return a.id_ < b.id_;
  }

  // Spelling comparisons, for tests and diagnostics. Atom-to-atom
  // compares above stay the hot path.
  friend bool operator==(Atom a, std::string_view b) noexcept {
    return a.str() == b;
  }
  friend bool operator==(std::string_view a, Atom b) noexcept {
    return a == b.str();
  }
  friend bool operator!=(Atom a, std::string_view b) noexcept {
    return a.str() != b;
  }
  friend bool operator!=(std::string_view a, Atom b) noexcept {
    return a != b.str();
  }

  /// Hard cap on distinct atoms. Storage is reserved up front so str()
  /// never races a reallocation; ~4k distinct names is an order of
  /// magnitude above the whole protocol family's message, trace and
  /// profiler vocabulary.
  static constexpr Id kMaxAtoms = 4096;

 private:
  constexpr explicit Atom(Id id) noexcept : id_(id) {}

  Id id_ = 0;
};

}  // namespace sdcm::sim

template <>
struct std::hash<sdcm::sim::Atom> {
  std::size_t operator()(sdcm::sim::Atom t) const noexcept {
    return std::hash<sdcm::sim::Atom::Id>{}(t.id());
  }
};
