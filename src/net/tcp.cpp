#include "sdcm/net/tcp.hpp"

#include <cassert>
#include <utility>

#include "sdcm/obs/instrument.hpp"
#include "sdcm/obs/profile_site.hpp"

namespace sdcm::net {

namespace {

const MessageType kSyn = MessageType::intern("tcp.syn");
const MessageType kSynAck = MessageType::intern("tcp.synack");
const MessageType kAck = MessageType::intern("tcp.ack");

Message transport_segment(NodeId src, NodeId dst, MessageType type) {
  Message seg;
  seg.src = src;
  seg.dst = dst;
  seg.type = type;
  seg.klass = MessageClass::kTransport;
  return seg;
}

/// The ".retx" variant of an app message type. Interning is idempotent
/// and retransmissions are rare (a healthy network has none), so the
/// string build + mutex here is off the hot path by construction.
MessageType retx_type(MessageType app) {
  return MessageType::intern(std::string(app.str()) + ".retx");
}

}  // namespace

TcpConnection::TcpConnection(Network& network, NodeId initiator,
                             NodeId responder, Config config)
    : net_(network),
      initiator_(initiator),
      responder_(responder),
      config_(std::move(config)) {}

void TcpConnection::open(Network& network, NodeId initiator, NodeId responder,
                         OpenCallback on_open, RexCallback on_rex,
                         Config config, sim::SpanId span) {
  // Private constructor; std::make_shared cannot reach it.
  std::shared_ptr<TcpConnection> conn(
      new TcpConnection(network, initiator, responder, std::move(config)));
  conn->on_open_ = std::move(on_open);
  conn->on_rex_ = std::move(on_rex);
  conn->span_ = span != sim::kNoSpan
                    ? span
                    : network.simulator().trace().ambient();

  // The initial SYN goes out now; one retransmission follows each
  // configured gap (Table 3: initial + 4 retransmissions at 6/24/24/24 s).
  // REX is concluded when the last retransmission has also gone one full
  // final gap without an answer.
  sim::SimDuration rex_after = 0;
  for (const auto gap : conn->config_.setup_retry_delays) rex_after += gap;
  if (!conn->config_.setup_retry_delays.empty()) {
    rex_after += conn->config_.setup_retry_delays.back();
  }
  auto& simulator = network.simulator();
  conn->rex_timer_ = simulator.schedule_in(rex_after, [conn]() {
    SDCM_PROFILE_SITE(conn->net_.simulator(), "timer.tcp.setup_rex");
    conn->rex_timer_ = sim::kInvalidEventId;
    if (conn->opened_ || conn->closed_) return;
    conn->rexed_ = true;
    if (conn->next_attempt_timer_ != sim::kInvalidEventId) {
      conn->net_.simulator().cancel(conn->next_attempt_timer_);
      conn->next_attempt_timer_ = sim::kInvalidEventId;
    }
    conn->net_.simulator().trace().record_child(
        conn->span_, conn->net_.simulator().now(), conn->initiator_,
        sim::TraceCategory::kTransport, tag::kTcpRex,
        sim::TraceDetail{}.peer(conn->responder_));
    SDCM_OBS_ONLY(conn->net_.simulator().obs().counter("tcp.rex").inc());
    if (conn->on_rex_) {
      sim::SpanScope scope(conn->net_.simulator().trace(), conn->span_);
      conn->on_rex_();
    }
  });

  conn->attempt_handshake(0);
}

void TcpConnection::open_and_send(Network& network, Message msg,
                                  AckCallback on_acked, RexCallback on_rex,
                                  Config config) {
  const NodeId src = msg.src;
  const NodeId dst = msg.dst;
  if (msg.span == sim::kNoSpan) {
    msg.span = network.simulator().trace().ambient();
  }
  const sim::SpanId span = msg.span;
  open(
      network, src, dst,
      [m = std::move(msg), cb = std::move(on_acked)](
          const std::shared_ptr<TcpConnection>& conn) mutable {
        conn->send(std::move(m), std::move(cb));
      },
      std::move(on_rex), std::move(config), span);
}

void TcpConnection::attempt_handshake(std::size_t attempt) {
  if (opened_ || rexed_ || closed_) return;
  auto self = shared_from_this();

  Message syn = transport_segment(initiator_, responder_, kSyn);
  syn.span = span_;
  net_.transmit(
      std::move(syn),
      /*deliver=*/false, [self](bool syn_delivered) {
        if (!syn_delivered || self->opened_ || self->rexed_ || self->closed_) {
          return;
        }
        Message synack = transport_segment(self->responder_, self->initiator_,
                                           kSynAck);
        synack.span = self->span_;
        self->net_.transmit(
            std::move(synack),
            /*deliver=*/false, [self](bool synack_delivered) {
              if (!synack_delivered || self->opened_ || self->rexed_ ||
                  self->closed_) {
                return;
              }
              self->handshake_succeeded();
            });
      });

  if (attempt < config_.setup_retry_delays.size()) {
    next_attempt_timer_ = net_.simulator().schedule_in(
        config_.setup_retry_delays[attempt], [self, attempt]() {
          SDCM_PROFILE_SITE(self->net_.simulator(), "timer.tcp.syn_retry");
          self->next_attempt_timer_ = sim::kInvalidEventId;
          self->attempt_handshake(attempt + 1);
        });
  }
}

void TcpConnection::handshake_succeeded() {
  opened_ = true;
  auto& simulator = net_.simulator();
  if (next_attempt_timer_ != sim::kInvalidEventId) {
    simulator.cancel(next_attempt_timer_);
    next_attempt_timer_ = sim::kInvalidEventId;
  }
  if (rex_timer_ != sim::kInvalidEventId) {
    simulator.cancel(rex_timer_);
    rex_timer_ = sim::kInvalidEventId;
  }
  if (on_open_) on_open_(shared_from_this());
}

void TcpConnection::send(Message msg, AckCallback on_acked) {
  assert(is_open());
  assert((msg.src == initiator_ && msg.dst == responder_) ||
         (msg.src == responder_ && msg.dst == initiator_));
  auto t = std::make_shared<Transfer>();
  t->msg = std::move(msg);
  if (t->msg.span == sim::kNoSpan) {
    // Capture the caller's causal context now: retransmissions fire from
    // timer context, where the ambient span is gone.
    const sim::SpanId ambient = net_.simulator().trace().ambient();
    t->msg.span = ambient != sim::kNoSpan ? ambient : span_;
  }
  t->on_acked = std::move(on_acked);
  t->rto = config_.initial_rto;
  transfer_attempt(t);
}

void TcpConnection::transfer_attempt(const std::shared_ptr<Transfer>& t) {
  if (closed_ || t->acked) return;
  auto self = shared_from_this();

  Message segment = t->msg;
  segment.conn = nullptr;  // the wire copy carries no connection handle
  if (t->counted_as_app) {
    // Retransmissions are transport overhead; only the first wire copy is
    // accounted as the application message (Figure 6's discovery-layer
    // message counts must not inflate with TCP retries).
    segment.klass = MessageClass::kTransport;
    segment.type = retx_type(t->msg.type);
    SDCM_OBS_ONLY(
        net_.simulator().obs().counter("tcp.retransmissions").inc());
  }

  const bool left_source = net_.transmit(
      std::move(segment), /*deliver=*/false, [self, t](bool delivered) {
        if (self->closed_ || t->acked) return;
        if (!delivered) return;
        if (!t->delivered_to_app) {
          t->delivered_to_app = true;
          Message app = t->msg;
          app.conn = self;
          self->net_.deliver_local(app);
        }
        // Pure transport-level acknowledgement back to the sender.
        Message ack = transport_segment(t->msg.dst, t->msg.src, kAck);
        ack.span = t->msg.span;
        self->net_.transmit(
            std::move(ack),
            /*deliver=*/false, [self, t](bool ack_delivered) {
              if (self->closed_ || t->acked || !ack_delivered) return;
              t->acked = true;
              if (t->retransmit_timer != sim::kInvalidEventId) {
                self->net_.simulator().cancel(t->retransmit_timer);
                t->retransmit_timer = sim::kInvalidEventId;
              }
              if (t->on_acked) t->on_acked();
            });
      });
  if (left_source) t->counted_as_app = true;

  // Retransmit until success (Table 3): timeout grows 25 % per retry.
  t->retransmit_timer = net_.simulator().schedule_in(t->rto, [self, t]() {
    SDCM_PROFILE_SITE(self->net_.simulator(), "timer.tcp.retransmit");
    t->retransmit_timer = sim::kInvalidEventId;
    t->rto = static_cast<sim::SimDuration>(
        static_cast<double>(t->rto) * self->config_.rto_backoff);
    self->transfer_attempt(t);
  });
}

void TcpConnection::close() {
  if (closed_) return;
  closed_ = true;
  auto& simulator = net_.simulator();
  if (next_attempt_timer_ != sim::kInvalidEventId) {
    simulator.cancel(next_attempt_timer_);
    next_attempt_timer_ = sim::kInvalidEventId;
  }
  if (rex_timer_ != sim::kInvalidEventId) {
    simulator.cancel(rex_timer_);
    rex_timer_ = sim::kInvalidEventId;
  }
}

}  // namespace sdcm::net
