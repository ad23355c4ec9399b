#include "sdcm/obs/profiler.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sdcm/sim/atom.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

// Under AddressSanitizer glibc's malloc is not the allocator in use, and
// concurrent first mallinfo2() calls read a half-initialised arena, so
// heap_bytes reads 0 there, as on non-glibc platforms.
#if defined(__SANITIZE_ADDRESS__)
#define SDCM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SDCM_ASAN 1
#endif
#endif

namespace sdcm::obs {

namespace {

constexpr const char* kUnattributed = "(unattributed)";

/// Resolves a site id to its interned spelling. Ids come from
/// sim::Atom::intern, so anything out of range (or the empty atom)
/// means "the callback never attributed itself".
std::string site_name(std::uint32_t site) {
  if (site == 0 || site >= sim::Atom::count()) return kUnattributed;
  return std::string(sim::Atom::at(site).str());
}

/// Merges `from` (sorted by upper) into `into` (sorted by upper),
/// summing counts bucket-for-bucket.
void merge_buckets(std::vector<ProfileBucket>& into,
                   const std::vector<ProfileBucket>& from) {
  std::vector<ProfileBucket> out;
  out.reserve(into.size() + from.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < into.size() || j < from.size()) {
    if (j == from.size() ||
        (i < into.size() && into[i].upper < from[j].upper)) {
      out.push_back(into[i++]);
    } else if (i == into.size() || from[j].upper < into[i].upper) {
      out.push_back(from[j++]);
    } else {
      out.push_back(
          ProfileBucket{into[i].upper, into[i].count + from[j].count});
      ++i;
      ++j;
    }
  }
  into = std::move(out);
}

template <typename Entry>
void sort_by_name(std::vector<Entry>& entries) {
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.name < b.name; });
}

struct FileCloser {
  void operator()(std::FILE* file) const noexcept { std::fclose(file); }
};

/// Peak resident set of this process image in kB (VmHWM), or 0 where
/// /proc/self/status cannot be read. getrusage's ru_maxrss is only the
/// fallback: Linux carries it across exec, so a process launched by a
/// large one would report the launcher's peak.
std::uint64_t vm_hwm_kb() noexcept {
  const std::unique_ptr<std::FILE, FileCloser> status(
      std::fopen("/proc/self/status", "r"));
  if (status == nullptr) return 0;
  char line[256];
  while (std::fgets(line, sizeof line, status.get()) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      return std::strtoull(line + 6, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

MemorySample sample_memory() noexcept {
  MemorySample sample;
  sample.peak_rss_kb = vm_hwm_kb();
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (sample.peak_rss_kb == 0 && getrusage(RUSAGE_SELF, &usage) == 0 &&
      usage.ru_maxrss > 0) {
    // Linux reports ru_maxrss in KB (macOS in bytes; close enough for a
    // watermark, and CI runs Linux).
    sample.peak_rss_kb = static_cast<std::uint64_t>(usage.ru_maxrss);
  }
#endif
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33) && \
    !defined(SDCM_ASAN)
  const struct mallinfo2 info = mallinfo2();
  sample.heap_bytes = static_cast<std::uint64_t>(info.uordblks);
#endif
  return sample;
}

void Profiler::phase_record(std::uint32_t site, std::uint64_t ns) {
  auto it = std::find_if(phases_.begin(), phases_.end(),
                         [site](const Phase& p) { return p.site == site; });
  if (it == phases_.end()) {
    phases_.push_back(Phase{site});
    it = phases_.end() - 1;
  }
  Phase& p = *it;
  ++p.count;
  p.total_ns += ns;
  const MemorySample mem = sample_memory();
  p.peak_rss_kb = std::max(p.peak_rss_kb, mem.peak_rss_kb);
  p.heap_bytes = std::max(p.heap_bytes, mem.heap_bytes);
}

std::uint64_t RunProfile::attributed_ns() const noexcept {
  std::uint64_t total = 0;
  for (const ProfileEntry& e : events) total += e.total_ns;
  return total;
}

void RunProfile::merge(const RunProfile& other) {
  runs += other.runs;
  loop_ns += other.loop_ns;
  loop_events += other.loop_events;
  for (const ProfileEntry& e : other.events) {
    const auto it = std::lower_bound(
        events.begin(), events.end(), e,
        [](const ProfileEntry& a, const ProfileEntry& b) {
          return a.name < b.name;
        });
    if (it != events.end() && it->name == e.name) {
      it->count += e.count;
      it->total_ns += e.total_ns;
      it->max_ns = std::max(it->max_ns, e.max_ns);
      merge_buckets(it->buckets, e.buckets);
    } else {
      events.insert(it, e);
    }
  }
  for (const PhaseEntry& p : other.phases) {
    const auto it = std::lower_bound(
        phases.begin(), phases.end(), p,
        [](const PhaseEntry& a, const PhaseEntry& b) {
          return a.name < b.name;
        });
    if (it != phases.end() && it->name == p.name) {
      it->count += p.count;
      it->total_ns += p.total_ns;
      it->peak_rss_kb = std::max(it->peak_rss_kb, p.peak_rss_kb);
      it->heap_bytes = std::max(it->heap_bytes, p.heap_bytes);
    } else {
      phases.insert(it, p);
    }
  }
}

RunProfile Profiler::snapshot() const {
  RunProfile out;
  out.runs = 1;
  out.loop_ns = loop_ns_;
  out.loop_events = loop_events_;
  const auto& bounds = profile_ns_bounds();
  for (std::size_t id = 0; id < sites_.size(); ++id) {
    const Site& s = sites_[id];
    if (s.count == 0) continue;
    ProfileEntry entry;
    entry.name = site_name(static_cast<std::uint32_t>(id));
    entry.count = s.count;
    entry.total_ns = s.total_ns;
    entry.max_ns = s.max_ns;
    for (std::size_t b = 0; b < s.bucket_counts.size(); ++b) {
      if (s.bucket_counts[b] == 0) continue;
      const std::uint64_t upper =
          b < bounds.size() ? bounds[b]
                            : std::numeric_limits<std::uint64_t>::max();
      entry.buckets.push_back(ProfileBucket{upper, s.bucket_counts[b]});
    }
    out.events.push_back(std::move(entry));
  }
  for (const Phase& p : phases_) {
    PhaseEntry entry;
    entry.name = site_name(p.site);
    entry.count = p.count;
    entry.total_ns = p.total_ns;
    entry.peak_rss_kb = p.peak_rss_kb;
    entry.heap_bytes = p.heap_bytes;
    out.phases.push_back(std::move(entry));
  }
  // Distinct site ids can share a resolved name only via the
  // "(unattributed)" fallback; merge handles it, and sorting restores
  // the bytewise name order exports rely on.
  sort_by_name(out.events);
  sort_by_name(out.phases);
  for (std::size_t i = 1; i < out.events.size();) {
    if (out.events[i].name == out.events[i - 1].name) {
      out.events[i - 1].count += out.events[i].count;
      out.events[i - 1].total_ns += out.events[i].total_ns;
      out.events[i - 1].max_ns =
          std::max(out.events[i - 1].max_ns, out.events[i].max_ns);
      merge_buckets(out.events[i - 1].buckets, out.events[i].buckets);
      out.events.erase(out.events.begin() +
                       static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  return out;
}

}  // namespace sdcm::obs
