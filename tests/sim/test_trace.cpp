#include "sdcm/sim/trace.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace sdcm::sim {
namespace {

/// An ad-hoc event name; undeclared names render with the generic row.
Atom ev(std::string_view name) { return Atom::intern(name); }

namespace slot = trace_slot;
// Test-local tags, declared at namespace scope as the render table
// requires.
const TraceTag kAnnounce{"test.trace.announce", {slot::peer("n")}};
const TraceTag kUpdateTx{"test.trace.update_tx",
                         {slot::peer("user"), slot::kVersion, slot::kFlag}};
const TraceTag kRegistered{"test.trace.registered",
                           {slot::kService, slot::kVersion, slot::kFlag}};
const TraceTag kTakeover{"test.trace.takeover", {slot::duration("silence")}};
const TraceTag kSwitched{"test.trace.switched",
                         {slot::peer("central"), slot::kEpoch}};
const TraceTag kFetch{"test.trace.fetch", {slot::kFromVersion}};
const TraceTag kDrop{"test.trace.drop", {slot::kType}};
const TraceTag kPurged{"test.trace.purged",
                       {slot::peer("user"), slot::reason("reason")},
                       TraceRole::kVersionReset};

TEST(Trace, RecordsInOrder) {
  TraceLog log;
  log.record(seconds(1), 1, TraceCategory::kUpdate, ev("ServiceUpdate.tx"));
  log.record(seconds(2), 2, TraceCategory::kUpdate, ev("ServiceUpdate.rx"));
  ASSERT_EQ(log.records().size(), 2u);
  EXPECT_EQ(log.records()[0].event, "ServiceUpdate.tx");
  EXPECT_EQ(log.records()[1].node, 2u);
}

TEST(Trace, RecordingCanBeDisabled) {
  TraceLog log;
  log.set_recording(false);
  log.record(0, 1, TraceCategory::kInfo, ev("ignored"));
  EXPECT_TRUE(log.records().empty());
  log.set_recording(true);
  log.record(0, 1, TraceCategory::kInfo, ev("kept"));
  EXPECT_EQ(log.records().size(), 1u);
}

TEST(Trace, WithEventFilters) {
  TraceLog log;
  log.record(1, 1, TraceCategory::kUpdate, ev("a"));
  log.record(2, 1, TraceCategory::kUpdate, ev("b"));
  log.record(3, 2, TraceCategory::kUpdate, ev("a"));
  const auto found = log.with_event("a");
  ASSERT_EQ(found.size(), 2u);
  EXPECT_EQ(found[0].at, 1);
  EXPECT_EQ(found[1].node, 2u);
  EXPECT_TRUE(log.with_event("test.trace.never-interned").empty());
}

TEST(Trace, CountIf) {
  TraceLog log;
  for (int i = 0; i < 5; ++i) {
    log.record(i, 1,
               i % 2 == 0 ? TraceCategory::kFailure : TraceCategory::kInfo,
               ev("x"));
  }
  EXPECT_EQ(log.count_if([](const TraceRecord& r) {
              return r.category == TraceCategory::kFailure;
            }),
            3u);
}

TEST(Trace, PrintProducesOneLinePerRecord) {
  TraceLog log;
  log.record(seconds(1), 1, TraceCategory::kDiscovery, kAnnounce,
             TraceDetail{}.peer(6));
  log.record(seconds(2), 2, TraceCategory::kUpdate, ev("Notify"));
  std::ostringstream oss;
  log.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("test.trace.announce"), std::string::npos);
  EXPECT_NE(out.find("[n=6]"), std::string::npos);
  EXPECT_NE(out.find("discovery"), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
}

TEST(Trace, CategoryNames) {
  EXPECT_EQ(to_string(TraceCategory::kFailure), "failure");
  EXPECT_EQ(to_string(TraceCategory::kElection), "election");
  EXPECT_EQ(to_string(TraceCategory::kSubscription), "subscription");
}

TEST(Trace, ClearEmptiesTheLog) {
  TraceLog log;
  log.record(0, 1, TraceCategory::kInfo, ev("x"));
  log.clear();
  EXPECT_TRUE(log.records().empty());
}

TEST(TraceSpans, RecordAssignsMonotonicSpans) {
  TraceLog log;
  const SpanId a = log.record(1, 1, TraceCategory::kInfo, ev("a"));
  const SpanId b = log.record(2, 1, TraceCategory::kInfo, ev("b"));
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(log.records()[0].span, a);
  EXPECT_EQ(log.records()[0].parent, kNoSpan);
  EXPECT_EQ(log.records()[1].parent, kNoSpan);
}

TEST(TraceSpans, SpanScopeParentsAmbientRecords) {
  TraceLog log;
  const SpanId root = log.record(1, 1, TraceCategory::kUpdate, ev("root"));
  {
    SpanScope scope(log, root);
    const SpanId child =
        log.record(2, 2, TraceCategory::kUpdate, ev("child"));
    EXPECT_EQ(log.records()[1].parent, root);
    {
      SpanScope inner(log, child);
      log.record(3, 3, TraceCategory::kUpdate, ev("grandchild"));
      EXPECT_EQ(log.records()[2].parent, child);
    }
    // Inner scope restored the outer ambient span.
    log.record(4, 2, TraceCategory::kUpdate, ev("sibling"));
    EXPECT_EQ(log.records()[3].parent, root);
  }
  log.record(5, 1, TraceCategory::kUpdate, ev("after"));
  EXPECT_EQ(log.records()[4].parent, kNoSpan);
}

TEST(TraceSpans, RecordChildTakesExplicitParent) {
  TraceLog log;
  const SpanId root = log.record(1, 1, TraceCategory::kInfo, ev("root"));
  SpanScope scope(log, root);
  const SpanId other = log.record_child(kNoSpan, 2, 2, TraceCategory::kInfo,
                                        ev("detached"));
  EXPECT_EQ(log.records()[1].parent, kNoSpan);
  log.record_child(other, 3, 3, TraceCategory::kInfo, ev("adopted"));
  EXPECT_EQ(log.records()[2].parent, other);
}

TEST(TraceSpans, DisabledRecordingReturnsNoSpan) {
  TraceLog log;
  log.set_recording(false);
  EXPECT_EQ(log.record(0, 1, TraceCategory::kInfo, ev("x")), kNoSpan);
}

TEST(Trace, ForEachEventMatchesExactly) {
  TraceLog log;
  log.record(1, 1, TraceCategory::kInfo, ev("tcp.rex"));
  log.record(2, 1, TraceCategory::kInfo, ev("tcp.rex.giveup"));
  log.record(3, 2, TraceCategory::kInfo, ev("tcp.rex"));
  std::vector<SimTime> times;
  log.for_each_event("tcp.rex",
                     [&](const TraceRecord& r) { times.push_back(r.at); });
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], 1);
  EXPECT_EQ(times[1], 3);
  EXPECT_EQ(log.count_event("tcp.rex"), 2u);
  EXPECT_EQ(log.count_event("tcp.rex.giveup"), 1u);
  EXPECT_EQ(log.count_event("tcp"), 0u);
  EXPECT_EQ(log.count_event(ev("tcp.rex")), 2u);
}

namespace {
/// Collects streamed records for the writer tests.
struct CollectingWriter final : TraceWriter {
  std::vector<TraceRecord> seen;
  void on_record(const TraceRecord& record) override {
    seen.push_back(record);
  }
};
}  // namespace

TEST(TraceStreaming, WriterSeesEveryRecordInOrder) {
  TraceLog log;
  CollectingWriter writer;
  log.set_writer(&writer);
  log.record(1, 1, TraceCategory::kUpdate, ev("a"), TraceDetail{}.version(1));
  log.record(2, 2, TraceCategory::kFailure, ev("b"));
  ASSERT_EQ(writer.seen.size(), 2u);
  EXPECT_EQ(writer.seen[0].detail.version(), 1u);
  EXPECT_EQ(writer.seen[1].span, 2u);
}

TEST(TraceStreaming, StoreOffKeepsFingerprintAndCount) {
  TraceLog stored;
  TraceLog streamed;
  CollectingWriter writer;
  streamed.set_store(false);
  streamed.set_writer(&writer);
  for (auto* log : {&stored, &streamed}) {
    log->record(seconds(1), 1, TraceCategory::kUpdate, ev("change"),
                TraceDetail{}.version(2));
    log->record(seconds(2), 11, TraceCategory::kUpdate, ev("notify"),
                TraceDetail{}.version(2));
  }
  EXPECT_TRUE(streamed.records().empty());
  EXPECT_EQ(streamed.appended(), 2u);
  EXPECT_EQ(streamed.fingerprint(), stored.fingerprint());
  ASSERT_EQ(writer.seen.size(), 2u);
  EXPECT_EQ(writer.seen[1].node, 11u);
}

TEST(TraceFingerprint, CoversBehaviouralFieldsAndCount) {
  TraceLog a;
  TraceLog b;
  a.record(1, 1, TraceCategory::kInfo, ev("x"));
  b.record(1, 1, TraceCategory::kInfo, ev("x"));
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  // Reading the fingerprint must not perturb it.
  EXPECT_EQ(a.fingerprint(), a.fingerprint());
  b.record(2, 1, TraceCategory::kInfo, ev("y"));
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  // Span parentage is excluded: the same behavioural sequence hashes
  // identically whether the second record is a root or a child.
  TraceLog c;
  const SpanId root = c.record(1, 1, TraceCategory::kInfo, ev("x"));
  c.record_child(root, 2, 1, TraceCategory::kInfo, ev("y"));
  EXPECT_EQ(b.fingerprint(), c.fingerprint());
}

TEST(TraceFingerprint, HashesTheRenderedText) {
  // The definition the golden fingerprints pin: FNV-1a over time, node,
  // category byte, event text and rendered detail text of every record,
  // then the record count.
  TraceLog log;
  log.record(seconds(3), 7, TraceCategory::kUpdate, kUpdateTx,
             TraceDetail{}.peer(11).version(2));
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  const SimTime at = seconds(3);
  const NodeId node = 7;
  const auto category = static_cast<std::uint8_t>(TraceCategory::kUpdate);
  const std::string_view event = "test.trace.update_tx";
  const std::string_view detail = "user=11 version=2";
  const std::uint64_t count = 1;
  mix(&at, sizeof(at));
  mix(&node, sizeof(node));
  mix(&category, sizeof(category));
  mix(event.data(), event.size());
  mix(detail.data(), detail.size());
  mix(&count, sizeof(count));
  EXPECT_EQ(log.fingerprint(), h);
}

TEST(TraceDetailText, TagRowsRenderKeysInSlotOrder) {
  EXPECT_EQ(detail_text(kUpdateTx, TraceDetail{}.version(2).peer(11)),
            "user=11 version=2");
  EXPECT_EQ(detail_text(kUpdateTx, TraceDetail{}.peer(11).version(2).reason(
                                       ev("invalidation"))),
            "user=11 version=2 invalidation");
  EXPECT_EQ(detail_text(kRegistered,
                        TraceDetail{}.service(1).version(3).reason(ev("new"))),
            "service=1 version=3 new");
  EXPECT_EQ(detail_text(kSwitched, TraceDetail{}.peer(4).epoch(7)),
            "central=4 epoch=7");
  EXPECT_EQ(detail_text(kFetch, TraceDetail{}.from_version(3)), "from=3");
  EXPECT_EQ(detail_text(kDrop, TraceDetail{}.type(ev("upnp.notify"))),
            "upnp.notify");
  // Absent fields vanish, separators included.
  EXPECT_EQ(detail_text(kPurged, TraceDetail{}.reason(ev("expired"))),
            "reason=expired");
  EXPECT_EQ(detail_text(kUpdateTx, TraceDetail{}), "");
}

TEST(TraceDetailText, DurationRendersAsFormatTime) {
  for (const SimDuration d : {SimDuration{0}, SimDuration{1}, seconds(360),
                              seconds(5400) + 123457, SimDuration{-1500000}}) {
    EXPECT_EQ(detail_text(kTakeover, TraceDetail{}.duration(d)),
              "silence=" + format_time(d));
  }
}

TEST(TraceDetailText, UndeclaredNamesUseTheGenericRow) {
  EXPECT_EQ(detail_text(ev("test.trace.undeclared"),
                        TraceDetail{}.reason(ev("why")).peer(3).version(2)),
            "peer=3 version=2 reason=why");
  EXPECT_EQ(trace_role(ev("test.trace.undeclared")), TraceRole::kNone);
  EXPECT_EQ(trace_role(kPurged), TraceRole::kVersionReset);
}

TEST(TraceDetailText, ParseInvertsRender) {
  const std::pair<Atom, TraceDetail> cases[] = {
      {kUpdateTx, TraceDetail{}.peer(11).version(2)},
      {kUpdateTx,
       TraceDetail{}.peer(11).version(2).reason(ev("invalidation"))},
      {kRegistered, TraceDetail{}.service(1).version(3).reason(ev("new"))},
      {kTakeover, TraceDetail{}.duration(seconds(361) + 5)},
      {kTakeover, TraceDetail{}.duration(-1500000)},
      {kSwitched, TraceDetail{}.peer(4).epoch(1ull << 40)},
      {kPurged, TraceDetail{}.reason(ev("expired"))},
      {kDrop, TraceDetail{}.type(ev("upnp.notify"))},
      {ev("test.trace.undeclared"),
       TraceDetail{}.peer(3).service(4).version(5).from_version(6).epoch(7)},
      {kUpdateTx, TraceDetail{}},
  };
  for (const auto& [event, detail] : cases) {
    const std::string text = detail_text(event, detail);
    TraceDetail parsed;
    ASSERT_TRUE(parse_detail_text(event, text, parsed)) << text;
    EXPECT_EQ(parsed, detail) << text;
  }
}

TEST(TraceDetailText, ParseRejectsTextTheRowWouldNotRender) {
  TraceDetail out;
  EXPECT_FALSE(parse_detail_text(kUpdateTx, "version=2 user=11", out));
  EXPECT_FALSE(parse_detail_text(kUpdateTx, "user=011 version=2", out));
  EXPECT_FALSE(parse_detail_text(kUpdateTx, "user=x", out));
  EXPECT_FALSE(parse_detail_text(kUpdateTx, "user=11  version=2", out));
  EXPECT_FALSE(parse_detail_text(kUpdateTx, "user=11 version=2 a b", out));
  EXPECT_FALSE(parse_detail_text(kFetch, "to=3", out));
  EXPECT_FALSE(parse_detail_text(kTakeover, "silence=1.5s", out));
  EXPECT_FALSE(parse_detail_text(kSwitched, "central=99999999999", out));
}

TEST(TraceTagTable, RedeclaringATagMustAgreeOnItsRow) {
  // The same row again is harmless (a tag constant seen by two modules).
  EXPECT_NO_THROW(TraceTag("test.trace.fetch", {slot::kFromVersion}));
  EXPECT_THROW(TraceTag("test.trace.fetch", {slot::kVersion}),
               std::logic_error);
  EXPECT_THROW(TraceTag("test.trace.fetch", {slot::kFromVersion},
                        TraceRole::kServiceChanged),
               std::logic_error);
  // A bare word is recognised by position: only the last slot may be one.
  EXPECT_THROW(TraceTag("test.trace.bare-first", {slot::kFlag, slot::kVersion}),
               std::logic_error);
}

}  // namespace
}  // namespace sdcm::sim
