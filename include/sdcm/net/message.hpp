#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sdcm/net/message_type.hpp"
#include "sdcm/net/payload.hpp"
#include "sdcm/sim/trace.hpp"

namespace sdcm::net {

using sim::NodeId;

/// Accounting class of a message. The paper's Update Efficiency metrics
/// count only the messages that are part of propagating a service change
/// (Table 2 / Figure 6: "the Efficiency Degradation metric of the UPnP and
/// Jini models do not take into account the messages used by the
/// transmission layers"), so every message is tagged at creation:
///
///  - kUpdate     counts toward y(i, lambda): notifications, invalidation
///                messages, update fetch requests/responses, the
///                Manager<->Registry update and its ack, re-registrations
///                that carry the new service description.
///  - kControl    leases, renewals, subscriptions, acks from Users
///                (see DESIGN.md interpretation decision 2).
///  - kDiscovery  announcements, queries, registration chatter.
///  - kTransport  TCP segments (SYN/SYN-ACK/ack, retransmissions).
enum class MessageClass : std::uint8_t {
  kUpdate = 0,
  kControl = 1,
  kDiscovery = 2,
  kTransport = 3,
};
inline constexpr std::size_t kMessageClassCount = 4;

/// Nominal wire size per class when Message::bytes is 0: a full
/// description push, a small control/ack datagram, a query/announcement,
/// and a bare TCP segment.
constexpr std::size_t default_bytes(MessageClass c) noexcept {
  switch (c) {
    case MessageClass::kUpdate: return 320;
    case MessageClass::kControl: return 48;
    case MessageClass::kDiscovery: return 96;
    case MessageClass::kTransport: return 40;
  }
  return 64;
}

std::string_view to_string(MessageClass c) noexcept;

class TcpConnection;  // defined in tcp.hpp

/// Protocol message envelope. Payloads are protocol-defined structs
/// carried by a small-buffer/shared Payload (see payload.hpp); the
/// interned `type` atom names the operation (e.g. "frodo.ServiceUpdate")
/// and is what traces, counters and tests key on. The envelope is
/// designed to fan out allocation-free: copying a Message for each
/// multicast receiver copies POD fields, memcpys an inline payload or
/// bumps a shared payload's refcount - never a heap string, never a
/// deep std::any clone.
struct Message {
  NodeId src = sim::kNoNode;
  NodeId dst = sim::kNoNode;
  MessageType type;
  MessageClass klass = MessageClass::kControl;
  Payload payload;
  bool via_multicast = false;
  /// Approximate wire size. 0 = use the class default (kDefaultBytes);
  /// protocols set it explicitly where the distinction carries meaning -
  /// e.g. a 64-byte invalidation vs a full description push (the Alex
  /// adaptive-propagation study, the sdcm_paper row "Adaptive push").
  std::size_t bytes = 0;
  /// Set on delivery when the message arrived over a TCP connection, so
  /// the receiver can reply on the same connection (request/response).
  std::shared_ptr<TcpConnection> conn;
  /// Causal span this message belongs to. Stamped by the sender (or by
  /// the Network from the ambient span at send time); the Network opens a
  /// SpanScope around the receiver's handler so records on the far side
  /// parent here. Not part of the simulated behaviour - never branches.
  sim::SpanId span = sim::kNoSpan;

  template <typename T>
  [[nodiscard]] const T& as() const {
    return payload.as<T>();
  }

  /// The type atom's spelling, for trace records and diagnostics.
  [[nodiscard]] std::string_view type_name() const noexcept {
    return type.str();
  }
};

/// Per-run message counters, keyed by accounting class and by interned
/// type atom (a dense array bump on the hot path - the ordered by-name
/// map the printed reports need is materialized on demand).
class MessageCounters {
 public:
  void count(const Message& m);

  [[nodiscard]] std::uint64_t of_class(MessageClass c) const noexcept {
    return by_class_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t of_type(MessageType type) const noexcept;
  [[nodiscard]] std::uint64_t of_type(std::string_view type) const;
  [[nodiscard]] std::uint64_t total() const noexcept;
  /// Discovery-layer total: everything except TCP segments.
  [[nodiscard]] std::uint64_t discovery_layer_total() const noexcept;

  /// Wire bytes (Message::bytes, or the class default when unset).
  [[nodiscard]] std::uint64_t bytes_of_class(MessageClass c) const noexcept {
    return bytes_by_class_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t bytes_total() const noexcept;

  /// Non-zero per-type counts as an ordered name -> count map, so
  /// printed reports stay deterministic. Materialized per call; use
  /// of_type on hot paths.
  [[nodiscard]] std::map<std::string, std::uint64_t, std::less<>> by_type()
      const;

  void reset();

 private:
  std::uint64_t by_class_[kMessageClassCount] = {};
  std::uint64_t bytes_by_class_[kMessageClassCount] = {};
  /// Indexed by MessageType::id(); grown lazily to the largest atom seen.
  std::vector<std::uint64_t> by_type_;
};

}  // namespace sdcm::net
