#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sdcm/sim/atom.hpp"
#include "sdcm/sim/kernel_stats.hpp"
#include "sdcm/sim/time.hpp"

namespace sdcm::sim {

/// Node identifier used throughout the stack. 0 is reserved (broadcast /
/// unknown); real nodes are numbered from 1 in scenario order.
using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = 0;

/// Causal span identifier. Every recorded TraceRecord is assigned the
/// next monotonic span id; 0 means "no span" (an unparented root).
/// Because ids are handed out in record order, a parent id is always
/// strictly smaller than every id in its subtree - which is what makes
/// the span graph of any run a forest by construction.
using SpanId = std::uint64_t;
inline constexpr SpanId kNoSpan = 0;

/// Category of a trace record. The paper's methodology analyses "event
/// logs" per run; these categories let tests and the analysis tooling
/// filter the same way.
enum class TraceCategory : std::uint8_t {
  kFailure,       // interface down / up
  kTransport,     // TCP setup, retransmission, REX
  kDiscovery,     // announcements, queries, registration
  kSubscription,  // subscribe / renew / purge
  kUpdate,        // service change, notifications, acks
  kElection,      // FRODO leader election / backup takeover
  kLease,         // lease grants and expiries
  kInfo,          // everything else
};

std::string_view to_string(TraceCategory c) noexcept;

/// Inverse of to_string; std::nullopt for unknown names (used by the
/// JSONL trace parser, which must reject rather than guess).
std::optional<TraceCategory> category_from_string(std::string_view s) noexcept;

/// The typed fields a trace record's detail can carry. Each renders as
/// one token of the record's detail text (see TraceTag).
enum class TraceField : std::uint8_t {
  kPeer,         // the other node: user=, to=, manager=, central=, ...
  kService,      // service=
  kVersion,      // version=: the service version the record is about
  kFromVersion,  // from=: the first version a fetch or SRC2 request asks for
  kEpoch,        // epoch=: a FRODO election epoch
  kDuration,     // a span of simulated time, rendered as format_time does
  kReason,       // an atom: why (reason=, class=, mode=) or a bare flag word
  kType,         // the message type of a net.drop.* record
};

/// A trace record's detail: a small fixed set of typed fields, each
/// present or absent. Trace sites fill it directly with chained setters,
///   TraceDetail{}.peer(user).version(sd.version)
/// so building one is a few stores: a run with recording off formats
/// nothing, and a recorded run allocates nothing per record. The getters
/// return nullopt (the empty atom for atom fields) when a field is
/// absent. Text exists only at the edges, where the record's tag renders
/// it (append_detail_text).
class TraceDetail {
 public:
  TraceDetail& peer(NodeId v) noexcept {
    return put(TraceField::kPeer, peer_, v);
  }
  TraceDetail& service(std::uint32_t v) noexcept {
    return put(TraceField::kService, service_, v);
  }
  TraceDetail& version(std::uint32_t v) noexcept {
    return put(TraceField::kVersion, version_, v);
  }
  TraceDetail& from_version(std::uint32_t v) noexcept {
    return put(TraceField::kFromVersion, from_version_, v);
  }
  TraceDetail& epoch(std::uint64_t v) noexcept {
    return put(TraceField::kEpoch, epoch_, v);
  }
  TraceDetail& duration(SimDuration v) noexcept {
    return put(TraceField::kDuration, duration_, v);
  }
  TraceDetail& reason(Atom v) noexcept {
    return put(TraceField::kReason, reason_, v);
  }
  TraceDetail& type(Atom v) noexcept {
    return put(TraceField::kType, type_, v);
  }

  [[nodiscard]] std::optional<NodeId> peer() const noexcept {
    return get(TraceField::kPeer, peer_);
  }
  [[nodiscard]] std::optional<std::uint32_t> service() const noexcept {
    return get(TraceField::kService, service_);
  }
  [[nodiscard]] std::optional<std::uint32_t> version() const noexcept {
    return get(TraceField::kVersion, version_);
  }
  [[nodiscard]] std::optional<std::uint32_t> from_version() const noexcept {
    return get(TraceField::kFromVersion, from_version_);
  }
  [[nodiscard]] std::optional<std::uint64_t> epoch() const noexcept {
    return get(TraceField::kEpoch, epoch_);
  }
  [[nodiscard]] std::optional<SimDuration> duration() const noexcept {
    return get(TraceField::kDuration, duration_);
  }
  [[nodiscard]] Atom reason() const noexcept { return reason_; }
  [[nodiscard]] Atom type() const noexcept { return type_; }

  [[nodiscard]] bool has(TraceField field) const noexcept {
    return (fields_ & bit(field)) != 0;
  }

  friend bool operator==(const TraceDetail&, const TraceDetail&) = default;

 private:
  static constexpr std::uint16_t bit(TraceField field) noexcept {
    return static_cast<std::uint16_t>(1u << static_cast<unsigned>(field));
  }
  template <typename T>
  TraceDetail& put(TraceField field, T& slot, T value) noexcept {
    slot = value;
    fields_ = static_cast<std::uint16_t>(fields_ | bit(field));
    return *this;
  }
  template <typename T>
  [[nodiscard]] std::optional<T> get(TraceField field, T value) const noexcept {
    if (!has(field)) return std::nullopt;
    return value;
  }

  std::uint16_t fields_ = 0;  // presence mask, one bit per TraceField
  NodeId peer_ = kNoNode;
  std::uint32_t service_ = 0;
  std::uint32_t version_ = 0;
  std::uint32_t from_version_ = 0;
  Atom reason_;
  Atom type_;
  std::uint64_t epoch_ = 0;
  SimDuration duration_ = 0;
};

/// How one field renders in a tag's detail text: `key=value`, or the
/// bare value when `key` is empty (a flag word such as "invalidation", a
/// reason such as "depart", a dropped message's type; bare words hold no
/// '=' or space). Present fields render in slot order, separated by
/// single spaces; absent ones vanish.
struct TraceSlot {
  TraceField field = TraceField::kPeer;
  std::string_view key;
};

/// Slot shorthands for tag declarations.
namespace trace_slot {
constexpr TraceSlot peer(std::string_view key) noexcept {
  return {TraceField::kPeer, key};
}
constexpr TraceSlot reason(std::string_view key) noexcept {
  return {TraceField::kReason, key};
}
constexpr TraceSlot duration(std::string_view key) noexcept {
  return {TraceField::kDuration, key};
}
inline constexpr TraceSlot kService{TraceField::kService, "service"};
inline constexpr TraceSlot kVersion{TraceField::kVersion, "version"};
inline constexpr TraceSlot kFromVersion{TraceField::kFromVersion, "from"};
inline constexpr TraceSlot kEpoch{TraceField::kEpoch, "epoch"};
/// The reason atom as a bare word.
inline constexpr TraceSlot kFlag{TraceField::kReason, ""};
/// The message type atom as a bare word.
inline constexpr TraceSlot kType{TraceField::kType, ""};
}  // namespace trace_slot

/// What a tag tells a checker about the run. Declared with the tag, so
/// the oracle and sdcm_logs reason over atoms without knowing any
/// protocol's vocabulary.
enum class TraceRole : std::uint8_t {
  kNone,
  /// A Manager changed the service: the root of its update fan-out.
  kServiceChanged,
  /// A User discarded its version knowledge on purpose and rediscovers,
  /// so re-learning an older version afterwards is not a regress.
  kVersionReset,
  /// A push that exists only because a change happened: it must descend
  /// from a kServiceChanged record.
  kChangeNotification,
};

/// A trace tag: the interned event name plus its row of the per-tag
/// render table, which turns a TraceDetail into the record's `key=value`
/// detail text and back. Declare each tag once, at namespace scope (the
/// registry keeps a pointer to it), as an `inline const` constant next to
/// its module's msg:: atoms (with `namespace slot = sim::trace_slot`):
///   inline const TraceTag kUpdateTx{"frodo.update.tx",
///       {slot::peer("user"), slot::kVersion, slot::kFlag}};
/// Construction registers the row; declaring the same name again with a
/// different row throws std::logic_error. A tag converts to its Atom, so
/// it is passed wherever a record's event is expected. Names that were
/// never declared render with a generic row: every present field as
/// `peer=`, `service=`, `version=`, `from=`, `epoch=`, `duration=`,
/// `reason=`, `type=`, in that order.
class TraceTag {
 public:
  static constexpr std::size_t kMaxSlots = 4;

  TraceTag(std::string_view name, std::initializer_list<TraceSlot> row,
           TraceRole role = TraceRole::kNone);
  TraceTag(const TraceTag&) = delete;
  TraceTag& operator=(const TraceTag&) = delete;

  operator Atom() const noexcept { return atom_; }
  [[nodiscard]] Atom atom() const noexcept { return atom_; }
  [[nodiscard]] std::string_view name() const noexcept { return atom_.str(); }
  [[nodiscard]] TraceRole role() const noexcept { return role_; }
  [[nodiscard]] std::span<const TraceSlot> slots() const noexcept {
    return {slots_.data(), size_};
  }

 private:
  Atom atom_;
  TraceRole role_;
  std::size_t size_ = 0;
  std::array<TraceSlot, kMaxSlots> slots_{};
};

/// The role declared for `event`; kNone for undeclared names.
TraceRole trace_role(Atom event) noexcept;

/// Appends the detail text of a record tagged `event` to `out`, rendered
/// by the tag's row with std::to_chars. This is the text the fingerprint
/// hashes and the JSONL export carries (DESIGN.md section 8.3).
void append_detail_text(std::string& out, Atom event,
                        const TraceDetail& detail);
[[nodiscard]] std::string detail_text(Atom event, const TraceDetail& detail);

/// Parses detail text back into fields by the tag's row. Returns false
/// (leaving `out` unspecified) on text the row would not render: unknown
/// or out-of-order keys, malformed numbers, or anything that renders
/// differently (e.g. leading zeros), so a parse always round-trips.
bool parse_detail_text(Atom event, std::string_view text, TraceDetail& out);

struct TraceRecord {
  SimTime at = 0;
  NodeId node = kNoNode;
  TraceCategory category = TraceCategory::kInfo;
  /// This record's own span id (monotonic per log, 1-based).
  SpanId span = kNoSpan;
  /// Causal parent span; kNoSpan marks a root (timer fire, scenario
  /// driver, startup). Always < `span` when set.
  SpanId parent = kNoSpan;
  Atom event;          // the tag, e.g. "frodo.update.tx"
  TraceDetail detail;  // typed context, rendered as e.g. "user=3 version=2"
};

/// Streaming consumer of trace records (see obs::JsonlTraceWriter).
/// on_record is called synchronously from TraceLog::record, in record
/// order, for every record - including when in-memory storage is off.
class TraceWriter {
 public:
  virtual ~TraceWriter() = default;
  virtual void on_record(const TraceRecord& record) = 0;
};

/// In-memory structured event log for one simulation run.
///
/// Recording can be disabled wholesale (metric sweeps run thousands of
/// simulations and only need counters), in which case `record` is a cheap
/// early-out; counting stays on either way because the Update Efficiency
/// metrics are derived from counters, not records.
///
/// The fingerprint is maintained incrementally as records are appended,
/// so it is O(1) to read and stays correct when storage is off and
/// records only stream to a TraceWriter.
class TraceLog {
 public:
  TraceLog() = default;
  /// Moving a log (into experiment::TracedExperiment) takes the records
  /// and hash state; the counter binding deliberately resets to the
  /// destination's private block, since the source's block usually lives
  /// in a Simulator that is about to be destroyed.
  TraceLog(TraceLog&& other) noexcept;
  TraceLog& operator=(TraceLog&& other) noexcept;

  void set_recording(bool on) noexcept { recording_ = on; }
  [[nodiscard]] bool recording() const noexcept { return recording_; }

  /// Whether records are kept in memory (default). With storage off and
  /// a writer bound, records stream out and the log retains only the
  /// running fingerprint and count - the million-run campaign mode.
  void set_store(bool on) noexcept { store_ = on; }
  [[nodiscard]] bool store() const noexcept { return store_; }

  /// Streams every appended record to `writer` (non-owning; nullptr
  /// detaches). The writer must outlive the log or be detached first.
  void set_writer(TraceWriter* writer) noexcept { writer_ = writer; }

  /// Points the appended-record counter at a shared stats block (the
  /// Simulator's); unbound logs count into a private block.
  void bind_stats(KernelStats* stats) noexcept { stats_ = stats; }

  /// Appends a record parented to the current ambient span (see
  /// SpanScope) and returns its span id; kNoSpan when not recording.
  SpanId record(SimTime at, NodeId node, TraceCategory category, Atom event,
                const TraceDetail& detail = {}) {
    return record_child(ambient_, at, node, category, event, detail);
  }

  /// Appends a record with an explicit causal parent.
  SpanId record_child(SpanId parent, SimTime at, NodeId node,
                      TraceCategory category, Atom event,
                      const TraceDetail& detail = {});

  /// The ambient parent span applied to `record` calls; managed by
  /// SpanScope around message-delivery handlers.
  [[nodiscard]] SpanId ambient() const noexcept { return ambient_; }
  SpanId exchange_ambient(SpanId span) noexcept {
    const SpanId previous = ambient_;
    ambient_ = span;
    return previous;
  }

  [[nodiscard]] const std::vector<TraceRecord>& records() const noexcept {
    return records_;
  }
  /// Records appended since the last clear() - independent of storage,
  /// so streamed-only logs still know their length.
  [[nodiscard]] std::uint64_t appended() const noexcept { return appended_; }

  void clear() noexcept;

  /// All records whose event tag is spelled `event`. Returns copies;
  /// prefer for_each_event when only counting or inspecting.
  [[nodiscard]] std::vector<TraceRecord> with_event(
      std::string_view event) const;

  /// Non-allocating visit of every stored record whose event tag equals
  /// `event`, in record order.
  template <typename Fn>
  void for_each_event(Atom event, Fn&& fn) const {
    for (const TraceRecord& r : records_) {
      if (r.event == event) fn(r);
    }
  }
  /// The same by spelling (exact match); a name never interned matches
  /// nothing.
  template <typename Fn>
  void for_each_event(std::string_view event, Fn&& fn) const {
    if (const auto atom = Atom::lookup(event)) {
      for_each_event(*atom, std::forward<Fn>(fn));
    }
  }

  /// Number of stored records with event tag `event`.
  template <typename Event>
  [[nodiscard]] std::size_t count_event(const Event& event) const {
    std::size_t n = 0;
    for_each_event(event, [&n](const TraceRecord&) { ++n; });
    return n;
  }

  /// Number of records matching a predicate.
  [[nodiscard]] std::size_t count_if(
      const std::function<bool(const TraceRecord&)>& pred) const;

  /// Human-readable dump, one line per record (quickstart example output).
  void print(std::ostream& os) const;

  /// Order-sensitive FNV-1a hash over every *behavioural* field of every
  /// record (time, node, category, event text, rendered detail text),
  /// finalized by mixing in the record count so a truncated log can never
  /// collide with its own prefix. The detail is rendered piecewise into
  /// the hash, never into a heap buffer. Span ids are deliberately
  /// excluded: they are derived observability metadata, and the golden
  /// fingerprints pin simulated behaviour, not the causality annotation.
  /// Two runs with equal fingerprints replayed the same event log; the
  /// determinism tests pin golden values per (model, seed).
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;

 private:
  void mix(std::string_view bytes) noexcept;
  void mix(const void* data, std::size_t n) noexcept;

  bool recording_ = true;
  bool store_ = true;
  std::vector<TraceRecord> records_;
  SpanId next_span_ = kNoSpan;
  SpanId ambient_ = kNoSpan;
  std::uint64_t hash_ = 14695981039346656037ull;  // FNV-1a offset basis
  std::uint64_t appended_ = 0;
  TraceWriter* writer_ = nullptr;
  KernelStats local_stats_;
  KernelStats* stats_ = &local_stats_;
};

/// RAII ambient-parent scope: while alive, records appended without an
/// explicit parent are parented to `span`. The Network installs one
/// around every message-delivery handler (carrying Message::span), which
/// is how causality crosses the wire without threading a context through
/// every protocol signature.
class SpanScope {
 public:
  SpanScope(TraceLog& log, SpanId span) noexcept
      : log_(log), previous_(log.exchange_ambient(span)) {}
  ~SpanScope() { log_.exchange_ambient(previous_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  TraceLog& log_;
  SpanId previous_;
};

}  // namespace sdcm::sim
