#include "sdcm/experiment/sink.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace sdcm::experiment {
namespace {

/// Records every callback; relies on the engine's serialization
/// guarantee (no internal locking on purpose - a data race here would
/// trip TSan and the duplicate detection below).
class RecordingSink final : public RunSink {
 public:
  void on_campaign_begin(const SweepConfig&, std::uint64_t total) override {
    ++begins;
    total_runs = total;
  }
  void on_run(const RunEvent& event) override {
    const auto key = std::make_pair(event.point_index, event.run);
    EXPECT_TRUE(seen.insert(key).second)
        << "duplicate run delivered: point " << event.point_index << " run "
        << event.run;
    EXPECT_NE(event.record, nullptr);
    EXPECT_GT(event.seed, 0u);
  }
  void on_campaign_end(const CampaignSummary& summary) override {
    ++ends;
    runs_at_end = summary.runs_completed;
  }

  int begins = 0;
  int ends = 0;
  std::uint64_t total_runs = 0;
  std::uint64_t runs_at_end = 0;
  std::set<std::pair<std::size_t, int>> seen;
};

SweepConfig tiny_config() {
  SweepConfig config;
  config.models = {SystemModel::kUpnp, SystemModel::kFrodoTwoParty};
  config.lambdas = {0.0, 0.3};
  config.runs = 3;
  config.threads = 4;
  return config;
}

TEST(Sink, EveryRunDeliveredExactlyOnceUnderThreadPool) {
  auto config = tiny_config();
  RecordingSink sink;
  config.sink = &sink;
  const auto result = run_sweep(config);
  EXPECT_EQ(sink.begins, 1);
  EXPECT_EQ(sink.ends, 1);
  EXPECT_EQ(sink.total_runs, 12u);
  EXPECT_EQ(sink.seen.size(), 12u);
  EXPECT_EQ(sink.runs_at_end, 12u);
  EXPECT_EQ(result.summary.runs_completed, 12u);
}

TEST(Sink, MultiSinkFansOutInOrder) {
  auto config = tiny_config();
  config.runs = 1;
  RecordingSink a, b;
  MultiSink multi;
  multi.add(&a);
  multi.add(nullptr);  // ignored
  multi.add(&b);
  config.sink = &multi;
  (void)run_sweep(config);
  EXPECT_EQ(a.seen.size(), 4u);
  EXPECT_EQ(b.seen.size(), 4u);
  EXPECT_EQ(a.begins, 1);
  EXPECT_EQ(b.ends, 1);
}

TEST(Sink, ProgressSinkDrawsAndFinishesWithNewline) {
  auto config = tiny_config();
  config.threads = 1;
  std::ostringstream out;
  // Zero interval: every run redraws, so the output is deterministic
  // in shape (carriage returns, then a final newline).
  ProgressSink progress(out, std::chrono::milliseconds(0));
  config.sink = &progress;
  (void)run_sweep(config);
  const std::string text = out.str();
  EXPECT_NE(text.find("sweep:"), std::string::npos);
  EXPECT_NE(text.find("12/12"), std::string::npos);
  EXPECT_NE(text.find('\r'), std::string::npos);
  EXPECT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
}

TEST(Sink, JsonlRoundTripsRunsExactly) {
  auto config = tiny_config();
  config.keep_records = true;
  // Every ablation field off its default, so the header must carry each.
  config.ablation.frodo_srn2 = false;
  config.ablation.upnp_pr5 = false;
  config.ablation.placement = net::FailurePlacement::kTruncated;
  config.ablation.episodes = 2;
  config.ablation.message_loss_rate = 0.05;
  std::ostringstream log;
  JsonlSink sink(log);
  config.sink = &sink;
  const auto result = run_sweep(config);

  std::istringstream in(log.str());
  std::string line;
  std::string error;

  ASSERT_TRUE(std::getline(in, line));
  const auto header = parse_jsonl_header(line, error);
  ASSERT_TRUE(header.has_value()) << error;
  EXPECT_EQ(header->models, config.models);
  EXPECT_EQ(header->lambdas, config.lambdas);
  EXPECT_EQ(header->runs, config.runs);
  EXPECT_EQ(header->users, config.topology.users);
  EXPECT_EQ(header->seed, config.master_seed);
  EXPECT_TRUE(header->ablation == config.ablation);
  EXPECT_EQ(header->shard_count, 1u);

  std::size_t parsed = 0;
  while (std::getline(in, line)) {
    const auto run = parse_jsonl_run(line, error);
    ASSERT_TRUE(run.has_value()) << error << " in: " << line;
    ASSERT_LT(run->point_index, result.points.size());
    const auto& point = result.points[run->point_index];
    EXPECT_EQ(run->model, point.model);
    EXPECT_EQ(run->lambda, point.lambda);
    EXPECT_EQ(run->seed, run_seed(config.master_seed, run->model,
                                  run->lambda_index, run->run));
    // The record must round-trip bit-exactly - this is what makes the
    // shard merge reproduce the unsharded metrics.
    const auto& original =
        point.records[static_cast<std::size_t>(run->run)];
    EXPECT_EQ(run->record.change_time, original.change_time);
    EXPECT_EQ(run->record.deadline, original.deadline);
    ASSERT_EQ(run->record.user_reach_times.size(),
              original.user_reach_times.size());
    for (std::size_t u = 0; u < original.user_reach_times.size(); ++u) {
      EXPECT_EQ(run->record.user_reach_times[u],
                original.user_reach_times[u]);
    }
    EXPECT_EQ(run->record.update_messages, original.update_messages);
    EXPECT_EQ(run->record.window_messages, original.window_messages);
    EXPECT_EQ(run->record.trace_fingerprint, original.trace_fingerprint);
    EXPECT_EQ(run->record.kernel.events_fired, original.kernel.events_fired);
    EXPECT_EQ(run->record.kernel.udp_sent, original.kernel.udp_sent);
    ++parsed;
  }
  EXPECT_EQ(parsed, 12u);
}

TEST(Sink, MergeRejectsCorruptCampaigns) {
  auto config = tiny_config();
  config.runs = 2;
  std::ostringstream log;
  JsonlSink sink(log);
  config.sink = &sink;
  (void)run_sweep(config);
  const std::string good = log.str();
  std::string error;

  {  // A complete single log merges fine.
    std::istringstream in(good);
    std::istream* shards[] = {&in};
    EXPECT_TRUE(merge_jsonl(shards, error).has_value()) << error;
  }
  {  // Duplicated run line.
    const auto last = good.rfind('\n', good.size() - 2);
    const std::string dup = good + good.substr(last + 1);
    std::istringstream in(dup);
    std::istream* shards[] = {&in};
    EXPECT_FALSE(merge_jsonl(shards, error).has_value());
    EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
  }
  {  // Truncated log: a run is missing.
    const auto last = good.rfind("\n{");
    std::istringstream in(good.substr(0, last + 1));
    std::istream* shards[] = {&in};
    EXPECT_FALSE(merge_jsonl(shards, error).has_value());
    EXPECT_NE(error.find("missing"), std::string::npos) << error;
  }
  {  // Second shard from a different campaign (other seed).
    auto other = config;
    other.master_seed = 7;
    std::ostringstream other_log;
    JsonlSink other_sink(other_log);
    other.sink = &other_sink;
    (void)run_sweep(other);
    std::istringstream in0(good), in1(other_log.str());
    std::istream* shards[] = {&in0, &in1};
    EXPECT_FALSE(merge_jsonl(shards, error).has_value());
  }
  {  // Garbage input.
    std::istringstream in("not json\n");
    std::istream* shards[] = {&in};
    EXPECT_FALSE(merge_jsonl(shards, error).has_value());
  }
}

/// The CI shard-smoke campaign, as two shard logs; shard 1 runs under
/// `shard1_ablation`.
std::vector<std::string> shard_logs(const AblationSpec& shard1_ablation = {}) {
  SweepConfig config;
  config.models = {SystemModel::kUpnp, SystemModel::kFrodoTwoParty};
  config.lambdas = {0.0, 0.45};
  config.runs = 4;
  std::vector<std::string> logs;
  for (std::size_t s = 0; s < 2; ++s) {
    config.shard = {s, 2};
    if (s == 1) config.ablation = shard1_ablation;
    std::ostringstream log;
    JsonlSink sink(log);
    config.sink = &sink;
    (void)run_sweep(config);
    logs.push_back(log.str());
  }
  return logs;
}

/// Merges the logs; std::nullopt with the message on `error` on failure.
std::optional<SweepResult> merge(const std::vector<std::string>& logs,
                                 std::string& error) {
  std::vector<std::istringstream> streams;
  std::vector<std::istream*> shards;
  streams.reserve(logs.size());
  for (const std::string& log : logs) {
    shards.push_back(&streams.emplace_back(log));
  }
  return merge_jsonl(shards, error);
}

std::string replace_once(std::string text, const std::string& from,
                         const std::string& to) {
  const auto at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

TEST(Sink, ReaderRejectsIntegersThatDoNotFitTheirField) {
  const std::vector<std::string> logs = shard_logs();
  std::string error;
  ASSERT_TRUE(merge(logs, error).has_value()) << error;

  // A run index of 2^32 + 1 must not land as run 1.
  std::vector<std::string> bad_run = logs;
  const std::size_t s =
      bad_run[0].find("\"run\":1,") != std::string::npos ? 0 : 1;
  bad_run[s] =
      replace_once(bad_run[s], "\"run\":1,", "\"run\":4294967297,");
  EXPECT_FALSE(merge(bad_run, error).has_value());
  EXPECT_NE(error.find("'run'"), std::string::npos) << error;

  // Nor may a header's run count of 2^32 + 4 merge as 4.
  std::vector<std::string> bad_runs = logs;
  bad_runs[0] =
      replace_once(bad_runs[0], "\"runs\":4,", "\"runs\":4294967300,");
  EXPECT_FALSE(merge(bad_runs, error).has_value());
  EXPECT_NE(error.find("'runs'"), std::string::npos) << error;

  // The header's other int fields, above and below the int range; the
  // low 32 bits of each value are valid (5, 1, -1, -1).
  const std::string header = logs[0].substr(0, logs[0].find('\n'));
  const struct {
    const char* field;
    const char* from;
    const char* to;
  } cases[] = {
      {"users", "\"users\":5,", "\"users\":4294967301,"},
      {"managers", "\"managers\":1,", "\"managers\":-4294967295,"},
      {"registries", "\"registries\":-1,", "\"registries\":-4294967297,"},
      {"registries", "\"registries\":-1,", "\"registries\":8589934591,"},
  };
  for (const auto& c : cases) {
    EXPECT_FALSE(
        parse_jsonl_header(replace_once(header, c.from, c.to), error)
            .has_value())
        << c.to;
    EXPECT_NE(error.find(std::string("'") + c.field + "'"), std::string::npos)
        << error;
  }
}

TEST(Sink, MergeRefusesShardsOfDifferentAblations) {
  // Half a campaign run without FRODO's SRN2 is not the other half of
  // the plain campaign, whatever the rest of the header says.
  AblationSpec no_srn2;
  no_srn2.frodo_srn2 = false;
  std::string error;
  EXPECT_FALSE(merge(shard_logs(no_srn2), error).has_value());
  EXPECT_NE(error.find("ablation"), std::string::npos) << error;
}

/// A trace writer that fails on the first record it sees.
class ThrowingWriter final : public sim::TraceWriter {
 public:
  void on_record(const sim::TraceRecord&) override {
    throw std::runtime_error("trace writer failed");
  }
};

TEST(Sink, ARunThatThrowsReachesNoSinkAndIsRethrown) {
  auto config = tiny_config();
  RecordingSink sink;
  CheckSink checks;
  ProfileSink profiles;
  config.sink = &sink;
  config.check_sink = &checks;
  config.profile_sink = &profiles;
  const std::uint64_t doomed =
      run_seed(config.master_seed, SystemModel::kFrodoTwoParty, 1, 2);
  ThrowingWriter writer;
  config.customize = [&writer, doomed](ExperimentConfig& run) {
    if (run.seed == doomed) run.trace_writer = &writer;
  };
  EXPECT_THROW((void)run_sweep(config), std::runtime_error);
  // Every other run reached every sink, exactly once; the throwing one
  // reached none (sdcm_bench counts such a run as failed).
  EXPECT_EQ(sink.seen.size(), 11u);
  EXPECT_EQ(sink.seen.count({3, 2}), 0u);  // point 3 = FRODO-2party, 0.3
  EXPECT_EQ(checks.runs_checked(), 11u);
  EXPECT_EQ(profiles.runs_profiled(), 11u);
}

}  // namespace
}  // namespace sdcm::experiment
