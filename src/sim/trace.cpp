#include "sdcm/sim/trace.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace sdcm::sim {

namespace {

/// The per-tag render table: one row pointer per atom id, written once
/// when a TraceTag is constructed (static init) and read on every
/// recorded record's hash and at every text edge.
std::array<std::atomic<const TraceTag*>, Atom::kMaxAtoms>& tag_table() {
  static std::array<std::atomic<const TraceTag*>, Atom::kMaxAtoms> table{};
  return table;
}

const TraceTag* find_tag(Atom event) noexcept {
  return tag_table()[event.id()].load(std::memory_order_acquire);
}

/// The row of every name no TraceTag declared.
constexpr TraceSlot kGenericSlots[] = {
    {TraceField::kPeer, "peer"},         {TraceField::kService, "service"},
    {TraceField::kVersion, "version"},   {TraceField::kFromVersion, "from"},
    {TraceField::kEpoch, "epoch"},       {TraceField::kDuration, "duration"},
    {TraceField::kReason, "reason"},     {TraceField::kType, "type"},
};

std::span<const TraceSlot> slots_of(Atom event) noexcept {
  const TraceTag* tag = find_tag(event);
  if (tag == nullptr) return kGenericSlots;
  return tag->slots();
}

/// Renders `detail` by `slots`, handing each piece of text to `out`
/// (a callable taking std::string_view) - the one renderer behind the
/// fingerprint, the JSONL writer and every printed trace.
template <typename Out>
void render(std::span<const TraceSlot> slots, const TraceDetail& detail,
            Out&& out) {
  bool first = true;
  for (const TraceSlot& slot : slots) {
    if (!detail.has(slot.field)) continue;
    if (!first) out(std::string_view(" "));
    first = false;
    if (!slot.key.empty()) {
      out(slot.key);
      out(std::string_view("="));
    }
    char buf[32];
    std::to_chars_result end{buf, std::errc{}};
    switch (slot.field) {
      case TraceField::kPeer:
        end = std::to_chars(buf, buf + sizeof(buf), *detail.peer());
        break;
      case TraceField::kService:
        end = std::to_chars(buf, buf + sizeof(buf), *detail.service());
        break;
      case TraceField::kVersion:
        end = std::to_chars(buf, buf + sizeof(buf), *detail.version());
        break;
      case TraceField::kFromVersion:
        end = std::to_chars(buf, buf + sizeof(buf), *detail.from_version());
        break;
      case TraceField::kEpoch:
        end = std::to_chars(buf, buf + sizeof(buf), *detail.epoch());
        break;
      case TraceField::kDuration:
        // format_time's "%.6f" seconds plus 's'.
        end = std::to_chars(buf, buf + sizeof(buf) - 1,
                            to_seconds(*detail.duration()),
                            std::chars_format::fixed, 6);
        *end.ptr++ = 's';
        break;
      case TraceField::kReason:
        out(detail.reason().str());
        continue;
      case TraceField::kType:
        out(detail.type().str());
        continue;
    }
    out(std::string_view(buf, static_cast<std::size_t>(end.ptr - buf)));
  }
}

template <typename T>
bool parse_number(std::string_view text, T& out) {
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, out);
  return ec == std::errc{} && ptr == last;
}

/// Inverse of the kDuration rendering: "S.UUUUUUs", exactly six decimals.
bool parse_duration(std::string_view text, SimDuration& out) {
  const std::size_t dot = text.find('.');
  if (text.size() < 9 || text.back() != 's' || dot != text.size() - 8) {
    return false;
  }
  SimDuration whole = 0;
  SimDuration micros = 0;
  if (!parse_number(text.substr(0, dot), whole) ||
      !parse_number(text.substr(dot + 1, 6), micros) || micros < 0) {
    return false;
  }
  const bool negative = text.front() == '-';  // also "-0.5s"
  out = whole * kSecond + (negative ? -micros : micros);
  return true;
}

/// Parses a number into the field `set` assigns.
template <typename T>
bool parse_into(std::string_view text, TraceDetail& out,
                TraceDetail& (TraceDetail::*set)(T)) {
  T value{};
  if (!parse_number(text, value)) return false;
  (out.*set)(value);
  return true;
}

bool parse_field(TraceField field, std::string_view text, TraceDetail& out) {
  switch (field) {
    case TraceField::kPeer:
      return parse_into<NodeId>(text, out, &TraceDetail::peer);
    case TraceField::kService:
      return parse_into<std::uint32_t>(text, out, &TraceDetail::service);
    case TraceField::kVersion:
      return parse_into<std::uint32_t>(text, out, &TraceDetail::version);
    case TraceField::kFromVersion:
      return parse_into<std::uint32_t>(text, out, &TraceDetail::from_version);
    case TraceField::kEpoch:
      return parse_into<std::uint64_t>(text, out, &TraceDetail::epoch);
    case TraceField::kDuration: {
      SimDuration value = 0;
      if (!parse_duration(text, value)) return false;
      out.duration(value);
      return true;
    }
    case TraceField::kReason:
      if (text.empty()) return false;
      out.reason(Atom::intern(text));
      return true;
    case TraceField::kType:
      if (text.empty()) return false;
      out.type(Atom::intern(text));
      return true;
  }
  return false;
}

}  // namespace

TraceTag::TraceTag(std::string_view name, std::initializer_list<TraceSlot> row,
                   TraceRole role)
    : atom_(Atom::intern(name)), role_(role), size_(row.size()) {
  if (row.size() > kMaxSlots) {
    throw std::logic_error("trace tag has too many slots");
  }
  std::copy(row.begin(), row.end(), slots_.begin());
  for (std::size_t i = 0; i + 1 < size_; ++i) {
    // A bare word is recognised by position, so it must come last.
    if (slots_[i].key.empty()) {
      throw std::logic_error("trace tag has a bare slot before the last");
    }
  }
  const TraceTag* expected = nullptr;
  if (!tag_table()[atom_.id()].compare_exchange_strong(expected, this)) {
    const auto same_slot = [](const TraceSlot& a, const TraceSlot& b) {
      return a.field == b.field && a.key == b.key;
    };
    const auto theirs = expected->slots();
    if (expected->role() != role_ ||
        !std::equal(theirs.begin(), theirs.end(), slots().begin(),
                    slots().end(), same_slot)) {
      throw std::logic_error("trace tag declared twice with different rows");
    }
  }
}

TraceRole trace_role(Atom event) noexcept {
  const TraceTag* tag = find_tag(event);
  return tag != nullptr ? tag->role() : TraceRole::kNone;
}

void append_detail_text(std::string& out, Atom event,
                        const TraceDetail& detail) {
  render(slots_of(event), detail,
         [&out](std::string_view piece) { out += piece; });
}

std::string detail_text(Atom event, const TraceDetail& detail) {
  std::string out;
  append_detail_text(out, event, detail);
  return out;
}

bool parse_detail_text(Atom event, std::string_view text, TraceDetail& out) {
  out = TraceDetail{};
  const std::span<const TraceSlot> slots = slots_of(event);
  std::size_t next = 0;  // the first slot the next token may fill
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t space = text.find(' ', pos);
    const std::string_view token = text.substr(
        pos, space == std::string_view::npos ? std::string_view::npos
                                             : space - pos);
    bool filled = false;
    for (; next < slots.size() && !filled; ++next) {
      const TraceSlot& slot = slots[next];
      std::string_view value = token;
      if (slot.key.empty()) {
        if (token.find('=') != std::string_view::npos) continue;  // keyed
      } else {
        if (token.size() <= slot.key.size() ||
            token.substr(0, slot.key.size()) != slot.key ||
            token[slot.key.size()] != '=') {
          continue;
        }
        value = token.substr(slot.key.size() + 1);
      }
      if (!parse_field(slot.field, value, out)) return false;
      filled = true;
    }
    if (!filled) return false;
    if (space == std::string_view::npos) break;
    pos = space + 1;
  }
  // Reject anything that would not render back to the same text
  // (leading zeros, stray spaces, a trailing separator).
  return detail_text(event, out) == text;
}

std::string format_time(SimTime t) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(6) << to_seconds(t) << 's';
  return oss.str();
}

std::string_view to_string(TraceCategory c) noexcept {
  switch (c) {
    case TraceCategory::kFailure: return "failure";
    case TraceCategory::kTransport: return "transport";
    case TraceCategory::kDiscovery: return "discovery";
    case TraceCategory::kSubscription: return "subscription";
    case TraceCategory::kUpdate: return "update";
    case TraceCategory::kElection: return "election";
    case TraceCategory::kLease: return "lease";
    case TraceCategory::kInfo: return "info";
  }
  return "unknown";
}

std::optional<TraceCategory> category_from_string(
    std::string_view s) noexcept {
  for (const TraceCategory c :
       {TraceCategory::kFailure, TraceCategory::kTransport,
        TraceCategory::kDiscovery, TraceCategory::kSubscription,
        TraceCategory::kUpdate, TraceCategory::kElection,
        TraceCategory::kLease, TraceCategory::kInfo}) {
    if (to_string(c) == s) return c;
  }
  return std::nullopt;
}

TraceLog::TraceLog(TraceLog&& other) noexcept
    : recording_(other.recording_),
      store_(other.store_),
      records_(std::move(other.records_)),
      next_span_(other.next_span_),
      ambient_(other.ambient_),
      hash_(other.hash_),
      appended_(other.appended_),
      writer_(other.writer_) {
  // stats_ stays bound to the local block: the source's binding usually
  // points into a Simulator whose lifetime we must not depend on.
  other.clear();
  other.writer_ = nullptr;
}

TraceLog& TraceLog::operator=(TraceLog&& other) noexcept {
  if (this == &other) return *this;
  recording_ = other.recording_;
  store_ = other.store_;
  records_ = std::move(other.records_);
  next_span_ = other.next_span_;
  ambient_ = other.ambient_;
  hash_ = other.hash_;
  appended_ = other.appended_;
  writer_ = other.writer_;
  stats_ = &local_stats_;
  other.clear();
  other.writer_ = nullptr;
  return *this;
}

void TraceLog::mix(std::string_view bytes) noexcept {
  mix(bytes.data(), bytes.size());
}

void TraceLog::mix(const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    hash_ ^= p[i];
    hash_ *= 1099511628211ull;
  }
}

SpanId TraceLog::record_child(SpanId parent, SimTime at, NodeId node,
                              TraceCategory category, Atom event,
                              const TraceDetail& detail) {
  if (!recording_) return kNoSpan;
  const SpanId span = ++next_span_;
  const TraceRecord r{at, node, category, span, parent, event, detail};
  // Span ids are excluded from the hash: they are derived metadata, and
  // the golden fingerprints pin behaviour (see fingerprint()).
  mix(&r.at, sizeof(r.at));
  mix(&r.node, sizeof(r.node));
  const auto category_byte = static_cast<std::uint8_t>(r.category);
  mix(&category_byte, sizeof(category_byte));
  mix(event.str());
  render(slots_of(event), detail,
         [this](std::string_view piece) { mix(piece); });
  ++appended_;
  ++stats_->trace_records;
  if (writer_ != nullptr) writer_->on_record(r);
  if (store_) records_.push_back(r);
  return span;
}

void TraceLog::clear() noexcept {
  records_.clear();
  next_span_ = kNoSpan;
  ambient_ = kNoSpan;
  hash_ = 14695981039346656037ull;
  appended_ = 0;
}

std::uint64_t TraceLog::fingerprint() const noexcept {
  // Finalize by feeding the record count through the same FNV-1a stream
  // (not a bare XOR, which a truncation could cancel bit-for-bit): a log
  // can never collide with its own prefix.
  std::uint64_t h = hash_;
  const std::uint64_t count = appended_;
  const auto* p = reinterpret_cast<const unsigned char*>(&count);
  for (std::size_t i = 0; i < sizeof(count); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<TraceRecord> TraceLog::with_event(std::string_view event) const {
  std::vector<TraceRecord> out;
  for_each_event(event, [&out](const TraceRecord& r) { out.push_back(r); });
  return out;
}

std::size_t TraceLog::count_if(
    const std::function<bool(const TraceRecord&)>& pred) const {
  return static_cast<std::size_t>(
      std::count_if(records_.begin(), records_.end(), pred));
}

void TraceLog::print(std::ostream& os) const {
  std::string detail;
  for (const auto& r : records_) {
    os << std::setw(14) << format_time(r.at) << "  node" << std::setw(2)
       << r.node << "  " << std::setw(12) << to_string(r.category) << "  "
       << r.event.str();
    detail.clear();
    append_detail_text(detail, r.event, r.detail);
    if (!detail.empty()) os << "  [" << detail << ']';
    os << '\n';
  }
}

}  // namespace sdcm::sim
