#pragma once

#include "sdcm/discovery/timing.hpp"
#include "sdcm/sim/time.hpp"

namespace sdcm::frodo {

/// How a 2-party Manager propagates a change to its subscribers
/// (Section 4.2): push the updated data (FRODO's native mode), push an
/// invalidation that the User follows up with a fetch (UPnP's mode), or
/// adapt per change like the Alex filesystem - invalidate while the
/// service is changing frequently ("hot"), push data once it has settled.
/// The paper notes no discovery protocol implements the adaptive mode
/// "due to the complexity in implementation"; it is provided here as an
/// extension, studied in the sdcm_paper row "Adaptive push"
/// (bench/paper.cpp).
enum class UpdatePropagation : std::uint8_t {
  kData,
  kInvalidation,
  kAdaptive,
};

/// Model parameters for FRODO, defaulted to the paper's values where
/// given (Section 5 Step 4): the Registry (Central) multicasts 2
/// announcements every 1200 s; registration and subscription leases are
/// 1800 s; all transport is plain UDP with protocol-level
/// acknowledgements and retransmissions of *selected* messages (SRN1) -
/// never TCP. The shared timing knobs live in the
/// discovery::TimingConfig base; FRODO overrides the announcement
/// cadence (1200 s) and multicast redundancy (2 copies). Parameters the
/// paper does not state are documented in DESIGN.md and exposed here
/// for the ablation benches.
struct FrodoConfig : discovery::TimingConfig {
  FrodoConfig() noexcept {
    announce_period = sim::seconds(1200);
    multicast_redundancy = 2;
  }

  // --- Announcements & election -------------------------------------
  /// 3D/3C nodes (and idle 300D nodes) announce their presence until the
  /// Registry is discovered.
  sim::SimDuration node_announce_period = sim::seconds(120);
  /// Candidate-collection window of the leader election.
  sim::SimDuration election_window = sim::seconds(5);
  /// Backup promotes itself after missing this many Central announcement
  /// periods; non-backup standbys wait one more period, then re-elect.
  int backup_miss_threshold = 2;
  int standby_miss_threshold = 3;

  /// Clients purge a Central they have not heard from for this long
  /// (announcements every 1200 s refresh it).
  sim::SimDuration central_timeout = sim::seconds(1800);

  // --- SRN1 / SRC1 retransmission ---------------------------------------
  /// Non-critical acknowledged messages: bounded retransmission.
  int srn1_retries = 3;
  sim::SimDuration srn1_spacing = sim::seconds(2);
  /// Critical updates (SRC1): periodic retransmission without limit,
  /// stopped only by ack, subscription expiry or a newer change.
  sim::SimDuration src1_spacing = sim::seconds(5);

  // --- PR5 rediscovery ---------------------------------------------------
  /// Unicast Registry query first; fall back to multicast if unanswered.
  sim::SimDuration search_response_timeout = sim::seconds(5);
  int search_unicast_attempts = 2;
  /// Cadence of repeated searches while the service is missing.
  sim::SimDuration search_retry = sim::seconds(300);

  /// 2-party update propagation mode (extension; see UpdatePropagation).
  UpdatePropagation propagation = UpdatePropagation::kData;
  /// Adaptive mode: a change arriving within this much of the previous
  /// one marks the service "hot" (invalidation); otherwise data is pushed.
  sim::SimDuration adaptive_hot_threshold = sim::seconds(600);
  /// How long a User defers the fetch after an invalidation (its
  /// application access pattern). Deferral is what lets invalidations
  /// coalesce during bursts; 0 = fetch immediately.
  sim::SimDuration invalidation_fetch_delay = sim::seconds(120);

  // --- Ablation toggles (all on in the paper's model, Table 4) ----------
  bool enable_pr1 = true;   ///< Registry notifies interests on registration
  bool enable_pr3 = true;   ///< Registry asks unknown renewers to resubscribe
  bool enable_pr4 = true;   ///< 2-party Manager asks purged Users likewise
  bool enable_pr5 = true;   ///< Users purge and rediscover Managers
  bool enable_srn2 = true;  ///< 2-party Manager retries update on renewal
};

}  // namespace sdcm::frodo
