#include "sdcm/frodo/acked_channel.hpp"

#include <utility>

#include "sdcm/obs/profile_site.hpp"

namespace sdcm::frodo {

AckedChannel::AckedChannel(sim::Simulator& simulator, net::Network& network)
    : sim_(simulator), net_(network) {}

AckedChannel::~AckedChannel() {
  for (auto& [token, pending] : pending_) {
    if (pending.timer != sim::kInvalidEventId) sim_.cancel(pending.timer);
  }
}

void AckedChannel::send(Token token, net::Message message, Options options,
                        std::function<void()> on_acked,
                        std::function<void()> on_failed) {
  Pending pending;
  pending.message = std::move(message);
  if (pending.message.span == sim::kNoSpan) {
    // Capture the caller's causal context: retransmissions fire from
    // timer context, and the stored message carries the span with it.
    pending.message.span = sim_.trace().ambient();
  }
  pending.options = options;
  pending.on_acked = std::move(on_acked);
  pending.on_failed = std::move(on_failed);
  pending_.insert_or_assign(token, std::move(pending));
  transmit(token);
}

void AckedChannel::transmit(Token token) {
  const auto it = pending_.find(token);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  net_.send(pending.message);
  ++pending.sent;

  const bool unlimited = pending.options.max_retries < 0;
  if (!unlimited && pending.sent > pending.options.max_retries) {
    // Final copy sent; fail if no ack arrives within one more spacing.
    pending.timer = sim_.schedule_in(pending.options.spacing, [this, token] {
      SDCM_PROFILE_SITE(sim_, "timer.frodo.channel_fail");
      const auto fit = pending_.find(token);
      if (fit == pending_.end()) return;
      auto on_failed = std::move(fit->second.on_failed);
      const sim::SpanId span = fit->second.message.span;
      pending_.erase(fit);
      if (on_failed) {
        // Recovery actions taken on failure (SRN2 marking, PR1 staleness)
        // descend from the exchange that failed.
        sim::SpanScope scope(sim_.trace(), span);
        on_failed();
      }
    });
    return;
  }
  pending.timer = sim_.schedule_in(pending.options.spacing,
                                   [this, token] {
                                     SDCM_PROFILE_SITE(
                                         sim_, "timer.frodo.channel_retx");
                                     transmit(token);
                                   });
}

bool AckedChannel::acknowledge(Token token) {
  const auto it = pending_.find(token);
  if (it == pending_.end()) return false;
  if (it->second.timer != sim::kInvalidEventId) sim_.cancel(it->second.timer);
  auto on_acked = std::move(it->second.on_acked);
  pending_.erase(it);
  if (on_acked) on_acked();
  return true;
}

void AckedChannel::cancel(Token token) {
  const auto it = pending_.find(token);
  if (it == pending_.end()) return;
  if (it->second.timer != sim::kInvalidEventId) sim_.cancel(it->second.timer);
  pending_.erase(it);
}

}  // namespace sdcm::frodo
