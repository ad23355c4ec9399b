#include "sdcm/obs/span_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <sstream>
#include <string>
#include <vector>

namespace sdcm::obs {
namespace {

using sim::SpanScope;
using sim::TraceCategory;
using sim::TraceLog;
using sim::TraceRecord;

sim::Atom ev(std::string_view name) { return sim::Atom::intern(name); }

/// root -> {a -> {leaf}, b}, plus one unparented record.
TraceLog make_sample_log() {
  TraceLog log;
  const auto root =
      log.record(sim::seconds(1), 10, TraceCategory::kUpdate, ev("change"));
  {
    SpanScope scope(log, root);
    const auto a =
        log.record(sim::seconds(2), 1, TraceCategory::kUpdate, ev("fan.a"));
    log.record(sim::seconds(2), 1, TraceCategory::kUpdate, ev("fan.b"));
    SpanScope inner(log, a);
    log.record(sim::seconds(3), 11, TraceCategory::kUpdate, ev("leaf"));
  }
  log.record(sim::seconds(9), 2, TraceCategory::kInfo, ev("unrelated"));
  return log;
}

TEST(SpanTree, BuildsForestWithCorrectEdges) {
  const TraceLog log = make_sample_log();
  const SpanForest forest = build_span_forest(log.records());
  ASSERT_EQ(forest.nodes.size(), 5u);
  ASSERT_EQ(forest.roots.size(), 2u);
  const auto* root = forest.find(1);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->record->event, "change");
  ASSERT_EQ(root->children.size(), 2u);
  EXPECT_EQ(forest.nodes[root->children[0]].record->event, "fan.a");
  EXPECT_EQ(forest.nodes[root->children[1]].record->event, "fan.b");
  const auto* a = forest.find(2);
  ASSERT_EQ(a->children.size(), 1u);
  EXPECT_EQ(forest.nodes[a->children[0]].record->event, "leaf");
  EXPECT_EQ(forest.find(99), nullptr);
}

TEST(SpanTree, AbsentParentsBecomeRoots) {
  // A filtered subset (here: drop the root) must stay printable: the
  // orphaned children are promoted to roots instead of being lost.
  const TraceLog log = make_sample_log();
  const std::span<const TraceRecord> all = log.records();
  const SpanForest forest = build_span_forest(all.subspan(1));
  ASSERT_EQ(forest.nodes.size(), 4u);
  EXPECT_EQ(forest.roots.size(), 3u);  // fan.a, fan.b, unrelated
}

TEST(SpanTree, CheckAcceptsAnyRecordedLog) {
  const TraceLog log = make_sample_log();
  EXPECT_EQ(check_span_forest(log.records()), std::nullopt);
}

TEST(SpanTree, CheckRejectsInvalidSpans) {
  TraceRecord r1;
  r1.at = 10;
  r1.span = 1;
  TraceRecord r2;
  r2.at = 20;
  r2.span = 2;

  // Non-increasing span ids.
  TraceRecord dup = r1;
  EXPECT_NE(check_span_forest(std::vector<TraceRecord>{r1, dup}),
            std::nullopt);

  // Parent not smaller than the child's own span.
  TraceRecord self = r2;
  self.parent = 2;
  EXPECT_NE(check_span_forest(std::vector<TraceRecord>{r1, self}),
            std::nullopt);

  // Parent's timestamp after the child's.
  TraceRecord early = r2;
  early.parent = 1;
  early.at = 5;  // before its parent's at = 10
  EXPECT_NE(check_span_forest(std::vector<TraceRecord>{r1, early}),
            std::nullopt);

  // The valid version of the same shape passes.
  TraceRecord child = r2;
  child.parent = 1;
  EXPECT_EQ(check_span_forest(std::vector<TraceRecord>{r1, child}),
            std::nullopt);
}

TEST(SpanTree, PrintShowsIndentationAndEdgeLatency) {
  const TraceLog log = make_sample_log();
  const SpanForest forest = build_span_forest(log.records());
  std::ostringstream oss;
  print_span_tree(oss, forest, 0);
  const std::string out = oss.str();
  EXPECT_NE(out.find("change"), std::string::npos);
  EXPECT_NE(out.find("leaf"), std::string::npos);
  // Edge latencies: change -> fan.a is 1 s, fan.a -> leaf is 1 s.
  EXPECT_NE(out.find("(+1000000 us)"), std::string::npos);
  // Only the subtree: the unrelated root is not printed.
  EXPECT_EQ(out.find("unrelated"), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);

  std::ostringstream whole;
  print_span_forest(whole, forest);
  const std::string all = whole.str();
  EXPECT_NE(all.find("unrelated"), std::string::npos);
  EXPECT_EQ(std::count(all.begin(), all.end(), '\n'), 5);
}

}  // namespace
}  // namespace sdcm::obs
