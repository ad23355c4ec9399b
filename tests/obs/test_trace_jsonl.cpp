#include "sdcm/obs/trace_jsonl.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace sdcm::obs {
namespace {

using sim::Atom;
using sim::SpanScope;
using sim::TraceCategory;
using sim::TraceDetail;
using sim::TraceLog;
using sim::TraceRecord;
using sim::TraceTag;
namespace slot = sim::trace_slot;

const TraceTag kChanged{"test.jsonl.service_changed",
                        {slot::kService, slot::kVersion}};
const TraceTag kStored{"test.jsonl.update_stored",
                       {slot::kService, slot::kVersion}};
const TraceTag kOdd{"test.jsonl.odd\"quoted\\", {slot::reason("why")}};
const TraceTag kDown{"test.jsonl.iface_down", {slot::reason("mode")}};
const TraceTag kRex{"test.jsonl.tcp_rex", {slot::peer("to")}};

TraceLog make_log() {
  TraceLog log;
  const auto root = log.record(sim::seconds(188), 10, TraceCategory::kUpdate,
                               kChanged, TraceDetail{}.service(1).version(2));
  SpanScope scope(log, root);
  log.record(sim::seconds(188) + 37, 1, TraceCategory::kUpdate, kStored,
             TraceDetail{}.service(1).version(2));
  // Exercise the only two escaped characters of the JSON discipline, in
  // the event name and in a rendered reason word.
  log.record(sim::seconds(189), 11, TraceCategory::kInfo, kOdd,
             TraceDetail{}.reason(Atom::intern("quote\"backslash\\done")));
  log.record_child(sim::kNoSpan, sim::seconds(200), 2,
                   TraceCategory::kFailure, kDown,
                   TraceDetail{}.reason(Atom::intern("tx+rx")));
  return log;
}

TEST(TraceJsonl, RecordFormatsAsOneFixedOrderObject) {
  TraceRecord r;
  r.at = 42;
  r.node = 7;
  r.category = TraceCategory::kTransport;
  r.span = 3;
  r.parent = 1;
  r.event = kRex;
  r.detail = TraceDetail{}.peer(2);
  EXPECT_EQ(trace_record_to_jsonl(r),
            "{\"at\":42,\"node\":7,\"category\":\"transport\",\"span\":3,"
            "\"parent\":1,\"event\":\"test.jsonl.tcp_rex\",\"detail\":"
            "\"to=2\"}");
  r.event = kOdd;
  r.detail = TraceDetail{}.reason(Atom::intern("a\"b\\c"));
  EXPECT_EQ(trace_record_to_jsonl(r),
            "{\"at\":42,\"node\":7,\"category\":\"transport\",\"span\":3,"
            "\"parent\":1,\"event\":\"test.jsonl.odd\\\"quoted\\\\\","
            "\"detail\":\"why=a\\\"b\\\\c\"}");
}

TEST(TraceJsonl, ParseInvertsFormat) {
  const TraceLog log = make_log();
  for (const TraceRecord& r : log.records()) {
    std::string error;
    const auto parsed = parse_trace_record(trace_record_to_jsonl(r), error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->at, r.at);
    EXPECT_EQ(parsed->node, r.node);
    EXPECT_EQ(parsed->category, r.category);
    EXPECT_EQ(parsed->span, r.span);
    EXPECT_EQ(parsed->parent, r.parent);
    EXPECT_EQ(parsed->event, r.event);
    EXPECT_EQ(parsed->detail, r.detail);
  }
}

TEST(TraceJsonl, ParseRejectsMalformedLines) {
  std::string error;
  EXPECT_FALSE(parse_trace_record("", error).has_value());
  EXPECT_FALSE(parse_trace_record("not json", error).has_value());
  // Unknown category name.
  EXPECT_FALSE(
      parse_trace_record(
          "{\"at\":1,\"node\":1,\"category\":\"bogus\",\"span\":1,"
          "\"parent\":0,\"event\":\"e\",\"detail\":\"\"}",
          error)
          .has_value());
  EXPECT_FALSE(error.empty());
  // Reordered keys are rejected: the format is exact, not generic JSON.
  EXPECT_FALSE(
      parse_trace_record(
          "{\"node\":1,\"at\":1,\"category\":\"info\",\"span\":1,"
          "\"parent\":0,\"event\":\"e\",\"detail\":\"\"}",
          error)
          .has_value());
  // Trailing garbage after the closing brace.
  EXPECT_FALSE(
      parse_trace_record(
          "{\"at\":1,\"node\":1,\"category\":\"info\",\"span\":1,"
          "\"parent\":0,\"event\":\"e\",\"detail\":\"\"}x",
          error)
          .has_value());
  // Detail text the event's tag would never render.
  error.clear();
  EXPECT_FALSE(
      parse_trace_record(
          "{\"at\":1,\"node\":1,\"category\":\"info\",\"span\":1,"
          "\"parent\":0,\"event\":\"test.jsonl.tcp_rex\",\"detail\":"
          "\"user=2\"}",
          error)
          .has_value());
  EXPECT_FALSE(error.empty());
}

TEST(TraceJsonl, WriterCountsRecordsAndBytes) {
  std::ostringstream oss;
  JsonlTraceWriter writer(oss);
  const TraceLog log = make_log();
  for (const TraceRecord& r : log.records()) writer.on_record(r);
  EXPECT_EQ(writer.records_written(), log.records().size());
  EXPECT_EQ(writer.bytes_written(), oss.str().size());
  EXPECT_EQ(oss.str().back(), '\n');
}

TEST(TraceJsonl, RoundTripReproducesFingerprintAndSpans) {
  const TraceLog log = make_log();
  std::ostringstream oss;
  JsonlTraceWriter writer(oss);
  for (const TraceRecord& r : log.records()) writer.on_record(r);

  std::istringstream in(oss.str());
  TraceLog rebuilt;
  std::string error;
  ASSERT_TRUE(read_trace_jsonl(in, rebuilt, error)) << error;
  ASSERT_EQ(rebuilt.records().size(), log.records().size());
  EXPECT_EQ(rebuilt.fingerprint(), log.fingerprint());
  for (std::size_t i = 0; i < log.records().size(); ++i) {
    EXPECT_EQ(rebuilt.records()[i].span, log.records()[i].span);
    EXPECT_EQ(rebuilt.records()[i].parent, log.records()[i].parent);
    EXPECT_EQ(rebuilt.records()[i].detail, log.records()[i].detail);
  }
}

TEST(TraceJsonl, ReadRejectsStreamsWithBadLines) {
  std::istringstream in("{\"at\":broken\n");
  TraceLog log;
  std::string error;
  EXPECT_FALSE(read_trace_jsonl(in, log, error));
  EXPECT_FALSE(error.empty());
}

TEST(TraceJsonl, StreamingARunMatchesItsStoredTrace) {
  // The campaign streaming mode: storage off, writer on. The JSONL file
  // read back must carry the exact fingerprint of a stored run.
  std::ostringstream oss;
  JsonlTraceWriter writer(oss);
  TraceLog streamed;
  streamed.set_store(false);
  streamed.set_writer(&writer);
  TraceLog stored;
  for (auto* log : {&streamed, &stored}) {
    const auto root = log->record(sim::seconds(1), 10,
                                  TraceCategory::kUpdate, kChanged);
    log->record_child(root, sim::seconds(2), 11, TraceCategory::kUpdate,
                      Atom::intern("test.jsonl.notify"),
                      TraceDetail{}.peer(11));
  }
  std::istringstream in(oss.str());
  TraceLog rebuilt;
  std::string error;
  ASSERT_TRUE(read_trace_jsonl(in, rebuilt, error)) << error;
  EXPECT_EQ(rebuilt.fingerprint(), stored.fingerprint());
  EXPECT_EQ(rebuilt.fingerprint(), streamed.fingerprint());
}

}  // namespace
}  // namespace sdcm::obs
