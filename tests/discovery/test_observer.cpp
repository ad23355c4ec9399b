#include "sdcm/discovery/observer.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace sdcm::discovery {
namespace {

using sim::seconds;

TEST(Observer, RecordsChangeAndReachTimes) {
  ConsistencyObserver obs;
  obs.track_user(10);
  obs.track_user(11);
  obs.service_changed(2, seconds(500));
  obs.user_reached(10, 2, seconds(600));

  EXPECT_EQ(obs.change_time(2), seconds(500));
  EXPECT_EQ(obs.reach_time(10, 2), seconds(600));
  EXPECT_FALSE(obs.reach_time(11, 2).has_value());
  EXPECT_FALSE(obs.change_time(3).has_value());
}

TEST(Observer, FirstReportWins) {
  ConsistencyObserver obs;
  obs.track_user(10);
  obs.service_changed(2, seconds(500));
  obs.user_reached(10, 2, seconds(600));
  obs.user_reached(10, 2, seconds(700));  // duplicate report, ignored
  EXPECT_EQ(obs.reach_time(10, 2), seconds(600));
}

TEST(Observer, UntrackedUsersIgnored) {
  ConsistencyObserver obs;
  obs.track_user(10);
  obs.user_reached(99, 2, seconds(600));
  EXPECT_FALSE(obs.reach_time(99, 2).has_value());
}

TEST(Observer, TrackUserIsIdempotent) {
  ConsistencyObserver obs;
  obs.track_user(10);
  obs.track_user(10);
  EXPECT_EQ(obs.users().size(), 1u);
}

TEST(Observer, MembershipIsKeyedByNodeId) {
  ConsistencyObserver obs;
  // Repeats, interleaved and out of id order, keep one entry per user in
  // first-tracked order.
  for (const NodeId user : {12u, 10u, 12u, 11u, 10u, 12u}) {
    obs.track_user(user);
  }
  EXPECT_EQ(obs.users(), (std::vector<NodeId>{12, 10, 11}));
  // A reach report for an id above every tracked id is ignored, and
  // fires no first-reach hook.
  int hooks = 0;
  obs.on_user_reached = [&hooks](NodeId, ServiceVersion, sim::SimTime) {
    ++hooks;
  };
  obs.service_changed(2, seconds(500));
  obs.user_reached(1000, 2, seconds(600));
  EXPECT_FALSE(obs.reach_time(1000, 2).has_value());
  EXPECT_EQ(hooks, 0);
  obs.user_reached(11, 2, seconds(601));
  EXPECT_EQ(obs.reach_time(11, 2), seconds(601));
  EXPECT_EQ(hooks, 1);
}

TEST(Observer, AllConsistentByDeadline) {
  ConsistencyObserver obs;
  obs.track_user(10);
  obs.track_user(11);
  obs.service_changed(2, seconds(500));
  obs.user_reached(10, 2, seconds(600));
  EXPECT_FALSE(obs.all_consistent_by(2, seconds(5400)));
  obs.user_reached(11, 2, seconds(700));
  EXPECT_TRUE(obs.all_consistent_by(2, seconds(5400)));
  // U < D is strict: a user reaching exactly at D does not count.
  EXPECT_FALSE(obs.all_consistent_by(2, seconds(600)));
  EXPECT_TRUE(obs.all_consistent_by(2, seconds(701)));
}

TEST(Observer, VersionsReportedOutOfOrderKeepTheirOwnTimes) {
  ConsistencyObserver obs;
  obs.track_user(10);
  obs.track_user(12);
  std::vector<std::pair<NodeId, ServiceVersion>> hooks;
  obs.on_user_reached = [&hooks](NodeId user, ServiceVersion version,
                                 sim::SimTime) {
    hooks.emplace_back(user, version);
  };
  obs.user_reached(10, 3, seconds(300));
  obs.user_reached(10, 2, seconds(400));  // older version, reported later
  obs.user_reached(10, 3, seconds(500));  // repeat: ignored
  obs.user_reached(11, 2, seconds(450));  // untracked, between tracked ids
  obs.user_reached(12, 2, seconds(350));
  EXPECT_EQ(obs.reach_time(10, 3), seconds(300));
  EXPECT_EQ(obs.reach_time(10, 2), seconds(400));
  EXPECT_EQ(obs.reach_time(12, 2), seconds(350));
  EXPECT_FALSE(obs.reach_time(10, 4).has_value());
  EXPECT_FALSE(obs.reach_time(12, 3).has_value());
  // Unknown Users: inside the tracked id range, and past it.
  EXPECT_FALSE(obs.reach_time(11, 2).has_value());
  EXPECT_FALSE(obs.reach_time(5'000, 2).has_value());
  EXPECT_EQ(hooks, (std::vector<std::pair<NodeId, ServiceVersion>>{
                       {10, 3}, {10, 2}, {12, 2}}));
  EXPECT_TRUE(obs.all_consistent_by(2, seconds(401)));
  EXPECT_FALSE(obs.all_consistent_by(2, seconds(400)));
  EXPECT_FALSE(obs.all_consistent_by(3, seconds(5400)));
}

TEST(Observer, TracksMultipleVersionsIndependently) {
  ConsistencyObserver obs;
  obs.track_user(10);
  obs.service_changed(2, seconds(100));
  obs.service_changed(3, seconds(200));
  obs.user_reached(10, 3, seconds(250));
  EXPECT_FALSE(obs.reach_time(10, 2).has_value());
  EXPECT_EQ(obs.reach_time(10, 3), seconds(250));
}

}  // namespace
}  // namespace sdcm::discovery
