#include "sdcm/frodo/client.hpp"

#include <utility>

#include "sdcm/obs/profile_site.hpp"

namespace sdcm::frodo {

using net::Message;
using net::MessageClass;

FrodoClient::FrodoClient(sim::Simulator& simulator, net::Network& network,
                         NodeId id, std::string name, DeviceClass device_class,
                         FrodoConfig config)
    : Node(simulator, network, id, std::move(name)),
      config_(config),
      device_class_(device_class),
      channel_(simulator, network) {}

void FrodoClient::start_client() {
  send_node_announce();
  SDCM_PROFILE_TIMER(announce_timer_, "timer.frodo.node_announce");
  announce_timer_.start(simulator(), config_.node_announce_period,
                        config_.node_announce_period, [this] {
                          if (!has_central()) send_node_announce();
                        });
}

void FrodoClient::depart() {
  announce_timer_.stop();
  if (silence_timer_ != sim::kInvalidEventId) {
    simulator().cancel(silence_timer_);
    silence_timer_ = sim::kInvalidEventId;
  }
  if (central_ != sim::kNoNode) {
    central_ = sim::kNoNode;
    central_epoch_ = 0;
    on_central_lost();
  }
}

void FrodoClient::announce_now() { send_node_announce(); }

std::optional<std::vector<net::MessageType>> FrodoClient::multicast_interests()
    const {
  return std::vector<net::MessageType>{msg::kCentralAnnounce};
}

void FrodoClient::send_node_announce() {
  Message m;
  m.src = id();
  m.type = msg::kNodeAnnounce;
  m.klass = MessageClass::kDiscovery;
  m.payload = NodeAnnounce{id(), device_class_, 0, false};
  network().multicast(m, 1);
}

bool FrodoClient::handle_central_message(const Message& m) {
  if (m.type == msg::kCentralAnnounce) {
    const auto& ann = m.as<CentralAnnounce>();
    central_heard(ann.central, ann.epoch);
    return true;
  }
  if (m.type == msg::kRegistryHere) {
    const auto& here = m.as<RegistryHere>();
    central_heard(here.central, here.epoch);
    return true;
  }
  return false;
}

void FrodoClient::central_heard(NodeId node, std::uint64_t epoch) {
  if (central_ == sim::kNoNode) {
    central_ = node;
    central_epoch_ = epoch;
    // Announcing lasts only until a Central is known; lose_central() and
    // depart() are the only ways back to none, and both restart or stop
    // the timer themselves.
    announce_timer_.stop();
    arm_silence_timer();
    trace(sim::TraceCategory::kDiscovery, tag::kCentralDiscovered,
          sim::TraceDetail{}.peer(node));
    on_central_discovered();
    return;
  }
  if (node == central_) {
    central_epoch_ = std::max(central_epoch_, epoch);
    arm_silence_timer();
    return;
  }
  if (epoch >= central_epoch_) {
    // Takeover: follow the announcer with the newer (or equal - dueling
    // Centrals resolve among themselves within one period) epoch.
    central_ = node;
    central_epoch_ = epoch;
    arm_silence_timer();
    trace(sim::TraceCategory::kElection, tag::kCentralSwitched,
          sim::TraceDetail{}.peer(node).epoch(epoch));
    on_central_changed();
  }
}

void FrodoClient::central_evidence(NodeId from) {
  if (from == central_ && central_ != sim::kNoNode) arm_silence_timer();
}

void FrodoClient::arm_silence_timer() {
  if (silence_timer_ != sim::kInvalidEventId) simulator().cancel(silence_timer_);
  silence_timer_ = simulator().schedule_in(config_.central_timeout, [this] {
    SDCM_PROFILE_SITE(simulator(), "timer.frodo.central_silence");
    silence_timer_ = sim::kInvalidEventId;
    lose_central();
  });
}

void FrodoClient::lose_central() {
  if (central_ == sim::kNoNode) return;
  trace(sim::TraceCategory::kDiscovery, tag::kCentralLost,
        sim::TraceDetail{}.peer(central_));
  central_ = sim::kNoNode;
  on_central_lost();
  // Resume announcing until a (possibly new) Central is found.
  start_client();
}

}  // namespace sdcm::frodo
