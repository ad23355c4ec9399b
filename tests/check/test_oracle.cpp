#include "sdcm/check/oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "sdcm/experiment/protocol_registry.hpp"
#include "sdcm/experiment/scenario.hpp"
#include "sdcm/frodo/messages.hpp"
#include "sdcm/jini/messages.hpp"
#include "sdcm/net/failure_model.hpp"
#include "sdcm/net/network.hpp"
#include "sdcm/sim/simulator.hpp"
#include "sdcm/upnp/messages.hpp"

namespace {

using namespace sdcm;
using check::ConsistencyOracle;
using check::Invariant;
using check::OracleConfig;
using check::OracleReport;
using sim::TraceDetail;

sim::Atom ev(std::string_view name) { return sim::Atom::intern(name); }

std::string describe_all(const OracleReport& report) {
  std::string out;
  for (const check::Violation& violation : report.violations) {
    out += violation.describe() + "\n";
  }
  return out;
}

std::size_t count_of(const OracleReport& report, Invariant invariant) {
  std::size_t n = 0;
  for (const check::Violation& violation : report.violations) {
    if (violation.invariant == invariant) ++n;
  }
  return n;
}

/// A simulator + network + observer the oracle can attach to; the
/// synthetic tests then drive the observer hooks / trace stream / wire
/// probe directly instead of running a protocol.
struct OracleTest : testing::Test {
  sim::Simulator simulator{1};
  net::Network network{simulator};
  discovery::ConsistencyObserver observer;

  OracleReport finish(ConsistencyOracle& oracle) { return oracle.finish(); }
};

TEST_F(OracleTest, CleanRunReportsOk) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  observer.service_changed(2, sim::seconds(1000));
  observer.user_version(11, 1, sim::seconds(10));
  observer.user_version(11, 2, sim::seconds(1001));
  const OracleReport report = oracle.finish();
  EXPECT_TRUE(report.ok()) << describe_all(report);
  EXPECT_EQ(report.version_observations, 2u);
}

TEST_F(OracleTest, VersionRegressIsMonotonicityViolation) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  observer.service_changed(2, sim::seconds(500));
  observer.user_version(11, 2, sim::seconds(600));
  observer.user_version(11, 1, sim::seconds(700));  // regress
  const OracleReport report = oracle.finish();
  ASSERT_EQ(report.violation_total, 1u) << describe_all(report);
  EXPECT_EQ(report.violations[0].invariant, Invariant::kMonotonicity);
  EXPECT_EQ(report.violations[0].node, 11u);
  EXPECT_EQ(report.violations[0].at, sim::seconds(700));
}

TEST_F(OracleTest, ManagerPurgeResetsTheMonotonicityFloor) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  observer.service_changed(2, sim::seconds(500));
  observer.user_version(11, 2, sim::seconds(600));
  // The user purges its manager (lease expiry during an outage), then
  // rediscovers and adopts a stale description from a backup: designed
  // behaviour, not a regress.
  oracle.on_record(sim::TraceRecord{
      sim::seconds(700), 11, sim::TraceCategory::kDiscovery, 1, sim::kNoSpan,
      frodo::tag::kManagerPurged,
      TraceDetail{}.reason(frodo::reason::kRegistryPurged)});
  observer.user_version(11, 1, sim::seconds(800));
  const OracleReport report = oracle.finish();
  EXPECT_TRUE(report.ok()) << describe_all(report);
}

TEST_F(OracleTest, VersionBeforeChangeIsCausalityViolation) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  observer.user_version(11, 2, sim::seconds(50));  // no change happened
  const OracleReport report = oracle.finish();
  ASSERT_EQ(report.violation_total, 1u) << describe_all(report);
  EXPECT_EQ(report.violations[0].invariant, Invariant::kCausality);
}

TEST_F(OracleTest, NotificationWithoutLeaseIsHygieneViolation) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  observer.service_changed(2, sim::seconds(100));
  observer.notification_sent(1, 11, 2, sim::seconds(200));  // never granted
  const OracleReport report = oracle.finish();
  ASSERT_EQ(report.violation_total, 1u) << describe_all(report);
  EXPECT_EQ(report.violations[0].invariant, Invariant::kLeaseHygiene);
  EXPECT_EQ(report.violations[0].node, 1u);
}

TEST_F(OracleTest, NotificationAfterExpiryIsHygieneViolation) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  observer.lease_granted(1, 11, /*expires_at=*/sim::seconds(300),
                         /*at=*/sim::seconds(0));
  observer.notification_sent(1, 11, 2, sim::seconds(400));
  observer.lease_dropped(1, 11, sim::seconds(300));
  const OracleReport report = oracle.finish();
  ASSERT_EQ(report.violation_total, 1u) << describe_all(report);
  EXPECT_EQ(report.violations[0].invariant, Invariant::kLeaseHygiene);
}

TEST_F(OracleTest, RenewalExtendsTheLease) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  observer.lease_granted(1, 11, sim::seconds(300), sim::seconds(0));
  observer.lease_granted(1, 11, sim::seconds(6000), sim::seconds(250));
  observer.notification_sent(1, 11, 2, sim::seconds(400));
  const OracleReport report = oracle.finish();
  EXPECT_TRUE(report.ok()) << describe_all(report);
  EXPECT_EQ(report.leases_tracked, 2u);
  EXPECT_EQ(report.notifications_checked, 1u);
}

TEST_F(OracleTest, ExpiredLeaseNeverDroppedIsFlaggedAtFinish) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  observer.lease_granted(1, 11, sim::seconds(300), sim::seconds(0));
  const OracleReport report = oracle.finish();
  ASSERT_EQ(report.violation_total, 1u) << describe_all(report);
  EXPECT_EQ(report.violations[0].invariant, Invariant::kLeaseHygiene);
  EXPECT_EQ(report.violations[0].at, sim::seconds(5400));
}

TEST_F(OracleTest, LatePurgeIsHygieneViolation) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  observer.lease_granted(1, 11, sim::seconds(300), sim::seconds(0));
  observer.lease_dropped(1, 11, sim::seconds(400));  // 100 s late
  const OracleReport report = oracle.finish();
  ASSERT_EQ(report.violation_total, 1u) << describe_all(report);
  EXPECT_EQ(report.violations[0].invariant, Invariant::kLeaseHygiene);
}

TEST_F(OracleTest, DropWithoutGrantIsHygieneViolation) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  observer.lease_dropped(1, 11, sim::seconds(100));
  const OracleReport report = oracle.finish();
  ASSERT_EQ(report.violation_total, 1u) << describe_all(report);
  EXPECT_EQ(report.violations[0].invariant, Invariant::kLeaseHygiene);
}

TEST_F(OracleTest, TraceUpdateRecordBeforeChangeIsCausalityViolation) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  oracle.on_record(sim::TraceRecord{sim::seconds(10), 10,
                                    sim::TraceCategory::kUpdate, 1,
                                    sim::kNoSpan, jini::tag::kEventTx,
                                    TraceDetail{}.peer(11).version(2)});
  const OracleReport report = oracle.finish();
  ASSERT_EQ(report.violation_total, 1u) << describe_all(report);
  EXPECT_EQ(report.violations[0].invariant, Invariant::kCausality);
  EXPECT_EQ(report.violations[0].span, 1u);
}

TEST_F(OracleTest, OnlyTheVersionFieldIsVersionChecked) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  // An update record carrying only a from-version (a fetch asking for
  // version 3 onwards) makes no claim to hold version 3.
  oracle.on_record(sim::TraceRecord{sim::seconds(10), 10,
                                    sim::TraceCategory::kUpdate, 1,
                                    sim::kNoSpan,
                                    frodo::tag::kInvalidationFetch,
                                    TraceDetail{}.peer(11).from_version(3)});
  const OracleReport report = oracle.finish();
  EXPECT_TRUE(report.ok()) << describe_all(report);
}

TEST_F(OracleTest, NotificationDescendingFromChangeRootPasses) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  oracle.on_record(sim::TraceRecord{sim::seconds(20), 10,
                                    sim::TraceCategory::kUpdate, 1,
                                    sim::kNoSpan, upnp::tag::kServiceChanged,
                                    TraceDetail{}.version(2)});
  oracle.on_record(sim::TraceRecord{sim::seconds(21), 10,
                                    sim::TraceCategory::kUpdate, 2, 1,
                                    upnp::tag::kNotifyTx,
                                    TraceDetail{}.peer(11).version(2)});
  const OracleReport report = oracle.finish();
  EXPECT_TRUE(report.ok()) << describe_all(report);
  EXPECT_EQ(report.records_checked, 2u);
}

TEST_F(OracleTest, OrphanNotificationIsCausalityViolation) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  oracle.on_record(sim::TraceRecord{sim::seconds(20), 10,
                                    sim::TraceCategory::kUpdate, 1,
                                    sim::kNoSpan, upnp::tag::kServiceChanged,
                                    TraceDetail{}.version(2)});
  // A GENA notification rooted in a timer, not the change: bug.
  oracle.on_record(sim::TraceRecord{sim::seconds(30), 10,
                                    sim::TraceCategory::kUpdate, 2,
                                    sim::kNoSpan, upnp::tag::kNotifyTx,
                                    TraceDetail{}.peer(11)});
  const OracleReport report = oracle.finish();
  ASSERT_EQ(report.violation_total, 1u) << describe_all(report);
  EXPECT_EQ(report.violations[0].invariant, Invariant::kCausality);
  EXPECT_EQ(report.violations[0].span, 2u);
}

TEST_F(OracleTest, MalformedSpanStructureIsCausalityViolation) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  // Parent id >= child id (and never recorded): structurally impossible
  // in a real log.
  oracle.on_record(sim::TraceRecord{sim::seconds(5), 10,
                                    sim::TraceCategory::kInfo, 3, 7, ev("x"),
                                    {}});
  const OracleReport report = oracle.finish();
  EXPECT_GE(report.violation_total, 1u);
  EXPECT_GE(count_of(report, Invariant::kCausality), 1u)
      << describe_all(report);
}

TEST_F(OracleTest, RecordPredatingItsParentIsCausalityViolation) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  oracle.on_record(sim::TraceRecord{sim::seconds(100), 10,
                                    sim::TraceCategory::kInfo, 1,
                                    sim::kNoSpan, ev("root"), {}});
  oracle.on_record(sim::TraceRecord{sim::seconds(50), 10,
                                    sim::TraceCategory::kInfo, 2, 1,
                                    ev("child"), {}});
  const OracleReport report = oracle.finish();
  ASSERT_EQ(report.violation_total, 1u) << describe_all(report);
  EXPECT_EQ(report.violations[0].invariant, Invariant::kCausality);
}

TEST_F(OracleTest, HugeSpanIdsKeepVerdictsAndStaySmall) {
  // The span table is dense by id for real runs (1, 2, 3, ...); a
  // hand-built stream with ids near 2^40 must get the same verdicts as
  // any other, without the table growing with the ids (a table sized by
  // id would need 2^40 slots, and allocating it would throw).
  constexpr sim::SpanId kHuge = sim::SpanId{1} << 40;
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  oracle.on_record(sim::TraceRecord{sim::seconds(20), 10,
                                    sim::TraceCategory::kUpdate, 1,
                                    sim::kNoSpan, upnp::tag::kServiceChanged,
                                    TraceDetail{}.version(2)});
  oracle.on_record(sim::TraceRecord{sim::seconds(21), 10,
                                    sim::TraceCategory::kUpdate, kHuge, 1,
                                    upnp::tag::kNotifyTx,
                                    TraceDetail{}.peer(11).version(2)});
  // A child of the huge span inherits its change ancestry.
  oracle.on_record(sim::TraceRecord{sim::seconds(22), 11,
                                    sim::TraceCategory::kUpdate, kHuge + 1,
                                    kHuge, upnp::tag::kNotifyTx,
                                    TraceDetail{}.peer(12)});
  // Both huge-id failures: a parent never recorded, and a record that
  // predates its huge parent.
  oracle.on_record(sim::TraceRecord{sim::seconds(30), 11,
                                    sim::TraceCategory::kInfo, kHuge + 3,
                                    kHuge + 2, ev("orphan"), {}});
  oracle.on_record(sim::TraceRecord{sim::seconds(1), 11,
                                    sim::TraceCategory::kInfo, kHuge + 4,
                                    kHuge + 1, ev("early"), {}});
  const OracleReport report = oracle.finish();
  EXPECT_EQ(report.records_checked, 5u);
  ASSERT_EQ(report.violation_total, 2u) << describe_all(report);
  EXPECT_EQ(report.violations[0].span, kHuge + 3);
  EXPECT_EQ(report.violations[1].span, kHuge + 4);
  EXPECT_EQ(count_of(report, Invariant::kCausality), 2u);
}

TEST_F(OracleTest, WireEventAboveEveryPlannedNode) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  const std::array<net::FailureEpisode, 1> plan{net::FailureEpisode{
      3, net::FailureMode::kBoth, sim::seconds(100), sim::seconds(100)}};
  oracle.arm(plan, std::vector<sim::NodeId>{});
  net::Message msg;
  msg.src = 1000;  // above every node the plan names
  msg.dst = 1000;
  // Up is clean: no outage was planned for it.
  oracle.on_send(msg, /*tx_up=*/true, sim::seconds(150));
  oracle.on_arrival(msg, /*rx_up=*/true, /*lost=*/false, sim::seconds(150));
  EXPECT_TRUE(oracle.finish().ok());

  // Down is an interface violation, in either direction.
  oracle.begin_run(observer, network, sim::seconds(5400));
  oracle.arm(plan, std::vector<sim::NodeId>{});
  oracle.on_send(msg, /*tx_up=*/false, sim::seconds(150));
  oracle.on_arrival(msg, /*rx_up=*/false, /*lost=*/false, sim::seconds(150));
  const OracleReport report = oracle.finish();
  ASSERT_EQ(report.violation_total, 2u) << describe_all(report);
  EXPECT_EQ(count_of(report, Invariant::kInterface), 2u);
  EXPECT_EQ(report.violations[0].node, 1000u);
}

TEST_F(OracleTest, InterfaceUpInsidePlannedOutageIsViolation) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  // Two overlapping episodes on node 1; merged cover [100 s, 250 s].
  const std::array<net::FailureEpisode, 2> plan{
      net::FailureEpisode{1, net::FailureMode::kBoth, sim::seconds(100),
                          sim::seconds(100)},
      net::FailureEpisode{1, net::FailureMode::kBoth, sim::seconds(150),
                          sim::seconds(100)}};
  oracle.arm(plan, std::vector<sim::NodeId>{});

  net::Message msg;
  msg.src = 1;
  msg.dst = 2;
  // The legacy-boolean bug: first episode's up-flip at 200 s re-enables
  // the interface while the second episode still covers it.
  oracle.on_send(msg, /*tx_up=*/true, sim::seconds(210));
  const OracleReport report = oracle.finish();
  ASSERT_EQ(report.violation_total, 1u) << describe_all(report);
  EXPECT_EQ(report.violations[0].invariant, Invariant::kInterface);
  EXPECT_EQ(report.violations[0].node, 1u);
}

TEST_F(OracleTest, InterfaceBoundaryAndOutsideBehaviour) {
  ConsistencyOracle oracle;
  oracle.begin_run(observer, network, sim::seconds(5400));
  const std::array<net::FailureEpisode, 1> plan{net::FailureEpisode{
      1, net::FailureMode::kBoth, sim::seconds(100), sim::seconds(100)}};
  oracle.arm(plan, std::vector<sim::NodeId>{});

  net::Message msg;
  msg.src = 1;
  msg.dst = 1;
  // Down inside the outage: fine. Up at the boundary instants: fine
  // (event ordering at the same timestamp is ambiguous).
  oracle.on_send(msg, /*tx_up=*/false, sim::seconds(150));
  oracle.on_send(msg, /*tx_up=*/true, sim::seconds(100));
  oracle.on_send(msg, /*tx_up=*/true, sim::seconds(200));
  // Up outside: fine.
  oracle.on_arrival(msg, /*rx_up=*/true, /*lost=*/false, sim::seconds(300));
  EXPECT_TRUE(oracle.finish().ok());

  // Down outside every planned outage: violation.
  oracle.begin_run(observer, network, sim::seconds(5400));
  oracle.arm(plan, std::vector<sim::NodeId>{});
  oracle.on_arrival(msg, /*rx_up=*/false, /*lost=*/false, sim::seconds(500));
  const OracleReport report = oracle.finish();
  ASSERT_EQ(report.violation_total, 1u) << describe_all(report);
  EXPECT_EQ(report.violations[0].invariant, Invariant::kInterface);
}

TEST_F(OracleTest, ConvergenceViolationWhenUserStranded) {
  OracleConfig config;
  config.require_convergence = true;
  config.convergence_grace = sim::seconds(10);
  ConsistencyOracle oracle(config);
  oracle.begin_run(observer, network, sim::seconds(5400));
  oracle.arm(std::vector<net::FailureEpisode>{},
             std::vector<sim::NodeId>{11, 12});
  observer.service_changed(2, sim::seconds(1000));
  observer.user_version(11, 2, sim::seconds(1100));
  // User 12 never reaches version 2.
  const OracleReport report = oracle.finish();
  ASSERT_EQ(report.violation_total, 1u) << describe_all(report);
  EXPECT_EQ(report.violations[0].invariant, Invariant::kConvergence);
  EXPECT_EQ(report.violations[0].node, 12u);
}

TEST_F(OracleTest, ConvergenceNotCheckedWithoutQuietTail) {
  OracleConfig config;
  config.require_convergence = true;
  config.convergence_grace = sim::seconds(5400);
  ConsistencyOracle oracle(config);
  oracle.begin_run(observer, network, sim::seconds(5400));
  // Last episode ends at 200 s: 200 s + 5400 s grace > deadline, so the
  // check must not apply even though user 11 is stranded.
  const std::array<net::FailureEpisode, 1> plan{net::FailureEpisode{
      1, net::FailureMode::kBoth, sim::seconds(100), sim::seconds(100)}};
  oracle.arm(plan, std::vector<sim::NodeId>{11});
  observer.service_changed(2, sim::seconds(1000));
  EXPECT_TRUE(oracle.finish().ok());
}

TEST_F(OracleTest, ViolationStorageIsCappedButCounted) {
  OracleConfig config;
  config.max_stored_violations = 3;
  ConsistencyOracle oracle(config);
  oracle.begin_run(observer, network, sim::seconds(5400));
  for (int i = 0; i < 10; ++i) {
    observer.lease_dropped(1, 11, sim::seconds(i));
  }
  const OracleReport report = oracle.finish();
  EXPECT_EQ(report.violation_total, 10u);
  EXPECT_EQ(report.violations.size(), 3u);
}

// --- integration with the experiment harness ---

TEST(OracleIntegration, TraceFingerprintIdenticalWithAndWithoutOracle) {
  experiment::ExperimentConfig config;
  config.model = experiment::SystemModel::kJiniOneRegistry;
  config.lambda = 0.6;
  config.seed = 7;
  config.record_trace = true;
  const metrics::RunRecord baseline = experiment::run_experiment(config);
  ASSERT_NE(baseline.trace_fingerprint, 0u);

  ConsistencyOracle oracle;
  config.oracle = &oracle;
  config.record_trace = false;  // oracle alone forces recording on
  const metrics::RunRecord checked = experiment::run_experiment(config);
  EXPECT_EQ(baseline.trace_fingerprint, checked.trace_fingerprint);
  const OracleReport report = oracle.finish();
  EXPECT_TRUE(report.ok()) << describe_all(report);
  EXPECT_GT(report.records_checked, 0u);
  EXPECT_GT(report.wire_sends, 0u);
}

TEST(OracleIntegration, RealRunsAcrossModelsProduceNoViolations) {
  for (const experiment::SystemModel model : experiment::kAllModels) {
    for (const double lambda : {0.3, 0.9}) {
      for (const int episodes : {1, 3}) {
        for (const double loss : {0.0, 0.2}) {
          experiment::ExperimentConfig config;
          config.model = model;
          config.lambda = lambda;
          config.failure_episodes = episodes;
          config.message_loss_rate = loss;
          config.seed = 11;
          ConsistencyOracle oracle;
          config.oracle = &oracle;
          experiment::run_experiment(config);
          const OracleReport report = oracle.finish();
          EXPECT_TRUE(report.ok())
              << experiment::to_string(model) << " lambda=" << lambda
              << " episodes=" << episodes << " loss=" << loss << "\n"
              << describe_all(report);
          EXPECT_GT(report.records_checked, 0u);
        }
      }
    }
  }
}

TEST(OracleIntegration, LeaseAndVersionCountersSeeRealTraffic) {
  experiment::ExperimentConfig config;
  config.model = experiment::SystemModel::kUpnp;
  config.lambda = 0.0;
  config.seed = 3;
  ConsistencyOracle oracle;
  config.oracle = &oracle;
  experiment::run_experiment(config);
  const OracleReport report = oracle.finish();
  EXPECT_TRUE(report.ok()) << describe_all(report);
  EXPECT_GT(report.leases_tracked, 0u);
  EXPECT_GT(report.version_observations, 0u);
  EXPECT_GT(report.notifications_checked, 0u);
}

/// The overlapping-episode bug, injected into a real run. The fixture
/// sets up the run the pinned fuzz case makes (UPnP seed 25, lambda 0.9,
/// two truncated episodes per node) step by step as run_experiment
/// does: the protocol registry's topology, the oracle as trace writer,
/// wire probe and observer hook sink, the refcounted failure plan and
/// the scheduled change. inject_flips() then adds the pre-fix plain "up"
/// flip at the end of every episode that a later one on the same node
/// overlaps, so the oracle sees the bug in the protocol's own traffic.
struct OverlapFlipInjection : testing::Test {
  experiment::ExperimentConfig config = [] {
    experiment::ExperimentConfig c;
    c.model = experiment::SystemModel::kUpnp;
    c.seed = 25;
    c.lambda = 0.9;
    c.failure_placement = net::FailurePlacement::kTruncated;
    c.failure_episodes = 2;
    return c;
  }();
  sim::Simulator simulator{config.seed};
  net::Network network{simulator};
  discovery::ConsistencyObserver observer;
  ConsistencyOracle oracle;
  experiment::Topology topo;
  std::vector<net::FailureEpisode> plan;

  void SetUp() override {
    simulator.trace().set_recording(true);
    simulator.trace().set_store(false);
    simulator.trace().set_writer(&oracle);
    oracle.begin_run(observer, network, config.duration);
    topo = experiment::protocol_descriptor(config.model)
               .build(config, simulator, network, observer);
    for (auto& node : topo.nodes) node->start();
    auto failure_rng = simulator.rng().fork("experiment.failures");
    net::FailurePlanConfig plan_config;
    plan_config.lambda = config.lambda;
    plan_config.horizon = config.duration;
    plan_config.placement = config.failure_placement;
    plan_config.episodes = config.failure_episodes;
    plan = net::plan_failures(network.nodes(), plan_config, failure_rng);
    oracle.arm(plan, observer.users());
    net::apply_failures(simulator, network, plan);
    auto change_rng = simulator.rng().fork("experiment.change");
    simulator.schedule_at(
        change_rng.uniform_time(config.change_min, config.change_max),
        [this] { topo.change_service(); });
  }

  /// Schedules the flips; returns the nodes whose episodes overlap.
  std::vector<sim::NodeId> inject_flips() {
    std::vector<sim::NodeId> flipped;
    // plan_failures lists each node's episodes consecutively, in window
    // order.
    for (std::size_t i = 0; i + 1 < plan.size(); ++i) {
      const net::FailureEpisode first = plan[i];
      const net::FailureEpisode& next = plan[i + 1];
      if (next.node != first.node || next.start >= first.end()) continue;
      flipped.push_back(first.node);
      simulator.schedule_at(first.end(), [this, first] {
        net::InterfaceState& iface = network.interface(first.node);
        if (first.mode != net::FailureMode::kReceiver) iface.set_tx(true);
        if (first.mode != net::FailureMode::kTransmitter) iface.set_rx(true);
      });
    }
    return flipped;
  }

  OracleReport run() {
    simulator.run_until(config.duration);
    return oracle.finish();
  }
};

TEST_F(OverlapFlipInjection, RefcountedPlanAloneIsClean) {
  const OracleReport report = run();
  EXPECT_TRUE(report.ok()) << describe_all(report);
  // The fixture is the fuzz case's run, record for record.
  ConsistencyOracle reference;
  experiment::ExperimentConfig reference_config = config;
  reference_config.oracle = &reference;
  EXPECT_EQ(simulator.trace().fingerprint(),
            experiment::run_experiment(reference_config).trace_fingerprint);
  EXPECT_TRUE(reference.finish().ok());
}

TEST_F(OverlapFlipInjection, OracleFlagsTheFlipOnThePinnedUpnpPlan) {
  const std::vector<sim::NodeId> flipped = inject_flips();
  ASSERT_FALSE(flipped.empty()) << "the pinned plan no longer overlaps";
  const OracleReport report = run();
  EXPECT_GT(count_of(report, Invariant::kInterface), 0u);
  for (const check::Violation& violation : report.violations) {
    if (violation.invariant != Invariant::kInterface) continue;
    EXPECT_NE(std::find(flipped.begin(), flipped.end(), violation.node),
              flipped.end())
        << violation.describe();
  }
}

}  // namespace
