#include "sdcm/sim/atom.hpp"

#include <atomic>
#include <cassert>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace sdcm::sim {

namespace {

/// Process-wide atom storage. `names` is reserved to kMaxAtoms and only
/// ever appended to, so element addresses (and the heap buffers of the
/// strings inside) are stable for the process lifetime - which is what
/// lets str() read without taking the mutex. `size` is published with
/// release ordering after the string is fully constructed; readers load
/// it with acquire before indexing. Interning and name lookup are rare
/// (static init, tests, report tooling) and take the mutex.
struct AtomTable {
  std::mutex mutex;
  std::vector<std::string> names;
  std::unordered_map<std::string_view, Atom::Id> index;
  std::atomic<Atom::Id> size{0};

  AtomTable() {
    names.reserve(Atom::kMaxAtoms);
    names.emplace_back();  // atom 0: the empty name
    index.emplace(std::string_view{names.back()}, 0);
    size.store(1, std::memory_order_release);
  }
};

AtomTable& table() {
  static AtomTable t;
  return t;
}

}  // namespace

Atom Atom::intern(std::string_view name) {
  AtomTable& t = table();
  const std::lock_guard<std::mutex> lock(t.mutex);
  if (const auto it = t.index.find(name); it != t.index.end()) {
    return Atom{it->second};
  }
  if (t.names.size() >= kMaxAtoms) {
    throw std::length_error("atom table full");
  }
  const auto id = static_cast<Id>(t.names.size());
  t.names.emplace_back(name);
  t.index.emplace(std::string_view{t.names.back()}, id);
  t.size.store(id + 1, std::memory_order_release);
  return Atom{id};
}

std::optional<Atom> Atom::lookup(std::string_view name) noexcept {
  AtomTable& t = table();
  const std::lock_guard<std::mutex> lock(t.mutex);
  const auto it = t.index.find(name);
  if (it == t.index.end()) return std::nullopt;
  return Atom{it->second};
}

Atom::Id Atom::count() noexcept {
  return table().size.load(std::memory_order_acquire);
}

std::string_view Atom::str() const noexcept {
  const AtomTable& t = table();
  assert(id_ < t.size.load(std::memory_order_acquire));
  return t.names[id_];
}

}  // namespace sdcm::sim
