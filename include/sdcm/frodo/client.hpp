#pragma once

#include "sdcm/discovery/node.hpp"
#include "sdcm/frodo/acked_channel.hpp"
#include "sdcm/frodo/config.hpp"
#include "sdcm/frodo/device.hpp"
#include "sdcm/frodo/messages.hpp"

namespace sdcm::frodo {

/// Shared behaviour of FRODO Managers and Users: discovering and tracking
/// the Central.
///
/// A client without a Central multicasts NodeAnnounce periodically (the
/// paper: "FRODO also requires 3D Managers to announce their presence
/// periodically until the Registry is discovered"; Users do the same,
/// which is why FRODO discovers the Registry faster than Jini). The
/// Central answers announcements with RegistryHere and multicasts
/// CentralAnnounce on its own cadence. Announcing stops once a Central
/// is known and restarts when a Central silent for `central_timeout` is
/// purged (lose_central) or when a departed client rejoins.
///
/// Takeovers are followed by epoch: a CentralAnnounce with a higher epoch
/// (the Backup after promotion) replaces the tracked Central.
class FrodoClient : public discovery::Node {
 public:
  FrodoClient(sim::Simulator& simulator, net::Network& network, NodeId id,
              std::string name, DeviceClass device_class,
              FrodoConfig config);

  /// Workload churn: stop announcing and forget the tracked Central
  /// (running on_central_lost so subclasses drop per-Central state);
  /// subclasses extend with their own session state.
  void depart() override;

  /// One immediate NodeAnnounce - FRODO's `helo` analogue (workload
  /// storm bursts).
  void announce_now() override;

  /// Clients parse only the Central's multicast announcement; node
  /// announces are registry-side traffic (interest-scoped fan-out,
  /// DESIGN.md section 14). Subclasses that handle more multicast
  /// types (FrodoManager's search) extend this.
  [[nodiscard]] std::optional<std::vector<net::MessageType>>
  multicast_interests() const override;

  [[nodiscard]] bool has_central() const noexcept {
    return central_ != sim::kNoNode;
  }
  [[nodiscard]] NodeId central() const noexcept { return central_; }
  [[nodiscard]] DeviceClass device_class() const noexcept {
    return device_class_;
  }

 protected:
  /// Begins announcing (one NodeAnnounce now, then one every
  /// node_announce_period until a Central is known); call from the
  /// subclass's start().
  void start_client();

  /// Routes Central-tracking messages; returns true when consumed.
  bool handle_central_message(const net::Message& msg);

  /// Refreshes the liveness of the tracked Central on any unicast
  /// evidence (acks, updates); call from subclass handlers.
  void central_evidence(NodeId from);

  virtual void on_central_discovered() = 0;
  /// A different node took over the Central role (Backup promotion).
  virtual void on_central_changed() = 0;
  virtual void on_central_lost() = 0;

  [[nodiscard]] AckedChannel& channel() noexcept { return channel_; }
  [[nodiscard]] const FrodoConfig& config() const noexcept { return config_; }
  [[nodiscard]] AckedChannel::Options srn1_options() const noexcept {
    return {config_.srn1_retries, config_.srn1_spacing};
  }
  [[nodiscard]] AckedChannel::Options src1_options() const noexcept {
    return {-1, config_.src1_spacing};
  }

  void send_node_announce();

 private:
  void central_heard(NodeId node, std::uint64_t epoch);
  void arm_silence_timer();
  void lose_central();

  FrodoConfig config_;
  DeviceClass device_class_;
  AckedChannel channel_;
  NodeId central_ = sim::kNoNode;
  std::uint64_t central_epoch_ = 0;
  sim::EventId silence_timer_ = sim::kInvalidEventId;
  sim::PeriodicTimer announce_timer_;
};

}  // namespace sdcm::frodo
