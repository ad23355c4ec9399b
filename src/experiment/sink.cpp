#include "sdcm/experiment/sink.hpp"

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "json_util.hpp"
#include "sdcm/experiment/protocol_registry.hpp"

namespace sdcm::experiment {

void RunSink::on_campaign_begin(const SweepConfig&, std::uint64_t) {}
void RunSink::on_campaign_end(const CampaignSummary&) {}

// ---------------------------------------------------------------------
// ProgressSink
// ---------------------------------------------------------------------

ProgressSink::ProgressSink(std::ostream& out,
                           std::chrono::milliseconds min_interval)
    : out_(out), min_interval_(min_interval) {}

void ProgressSink::on_campaign_begin(const SweepConfig&,
                                     std::uint64_t total_runs) {
  total_ = total_runs;
  done_ = 0;
  start_ = std::chrono::steady_clock::now();
  last_draw_ = start_ - min_interval_;
}

void ProgressSink::on_run(const RunEvent&) {
  ++done_;
  const auto now = std::chrono::steady_clock::now();
  if (done_ == total_ || now - last_draw_ >= min_interval_) {
    last_draw_ = now;
    draw(false);
  }
}

void ProgressSink::on_campaign_end(const CampaignSummary&) { draw(true); }

void ProgressSink::draw(bool final_line) {
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
  const double rate =
      elapsed > 0.0 ? static_cast<double>(done_) / elapsed : 0.0;
  char buf[192];
  if (rate > 0.0 && done_ < total_) {
    const double eta = static_cast<double>(total_ - done_) / rate;
    std::snprintf(buf, sizeof(buf),
                  "\rsweep: %" PRIu64 "/%" PRIu64 " runs  %.1f runs/s  "
                  "ETA %.0f s   ",
                  done_, total_, rate, eta);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "\rsweep: %" PRIu64 "/%" PRIu64 " runs  %.1f runs/s       ",
                  done_, total_, rate);
  }
  out_ << buf;
  if (trace_sink_ != nullptr) {
    std::snprintf(buf, sizeof(buf), "traces: %" PRIu64 " rec / %.1f MB   ",
                  trace_sink_->records_written(),
                  static_cast<double>(trace_sink_->bytes_flushed()) / 1e6);
    out_ << buf;
  }
  if (final_line) out_ << '\n';
  out_.flush();
}

// ---------------------------------------------------------------------
// JSON emission. Hand-rolled so the number formats are exact: doubles
// as %.17g (shortest lossless round-trip is not needed, 17 significant
// digits always reparse to the same bits) and 64-bit integers in full.
// ---------------------------------------------------------------------

namespace {

using jsonu::append_double;
using jsonu::append_i64;
using jsonu::append_quoted;
using jsonu::append_u64;

void append_kernel(std::string& out, const sim::KernelStats& k) {
  char sep = '{';
  for (const sim::KernelStatsField& field : sim::kKernelStatsFields) {
    out += sep;
    append_quoted(out, field.name);
    out += ':';
    append_u64(out, k.*field.member);
    sep = ',';
  }
  out += '}';
}

}  // namespace

JsonlSink::JsonlSink(std::ostream& out) : out_(out) {}

void JsonlSink::on_campaign_begin(const SweepConfig& config, std::uint64_t) {
  std::string line = "{\"sdcm_campaign\":";
  append_u64(line, kCampaignLogVersion);
  line += ",\"models\":[";
  for (std::size_t i = 0; i < config.models.size(); ++i) {
    if (i > 0) line += ',';
    append_quoted(line, to_string(config.models[i]));
  }
  line += "],\"lambdas\":[";
  for (std::size_t i = 0; i < config.lambdas.size(); ++i) {
    if (i > 0) line += ',';
    append_double(line, config.lambdas[i]);
  }
  line += "],\"runs\":";
  append_i64(line, config.runs);
  line += ",\"users\":";
  append_i64(line, config.topology.users);
  line += ",\"managers\":";
  append_i64(line, config.topology.managers);
  line += ",\"registries\":";
  append_i64(line, config.topology.registries);
  line += ",\"seed\":";
  append_u64(line, config.master_seed);
  line += ",\"workload\":";
  append_quoted(line, to_string(config.workload.kind));
  line += ",\"shard_index\":";
  append_u64(line, config.shard.index);
  line += ",\"shard_count\":";
  append_u64(line, config.shard.count);
  line += "}\n";
  out_ << line;
}

void JsonlSink::on_run(const RunEvent& event) {
  const metrics::RunRecord& r = *event.record;
  std::string line = "{\"point\":";
  append_u64(line, event.point_index);
  line += ",\"model\":";
  append_quoted(line, to_string(event.model));
  line += ",\"lambda\":";
  append_double(line, event.lambda);
  line += ",\"lambda_index\":";
  append_u64(line, event.lambda_index);
  line += ",\"run\":";
  append_i64(line, event.run);
  line += ",\"seed\":";
  append_u64(line, event.seed);
  line += ",\"wall_ns\":";
  append_u64(line, event.wall_ns);
  line += ",\"record\":{\"change_time\":";
  append_i64(line, r.change_time);
  line += ",\"deadline\":";
  append_i64(line, r.deadline);
  line += ",\"user_reach_times\":[";
  for (std::size_t j = 0; j < r.user_reach_times.size(); ++j) {
    if (j > 0) line += ',';
    if (r.user_reach_times[j].has_value()) {
      append_i64(line, *r.user_reach_times[j]);
    } else {
      line += "null";
    }
  }
  line += "],\"update_messages\":";
  append_u64(line, r.update_messages);
  line += ",\"window_messages\":";
  append_u64(line, r.window_messages);
  line += ",\"trace_fingerprint\":";
  append_u64(line, r.trace_fingerprint);
  line += ",\"kernel\":";
  append_kernel(line, r.kernel);
  line += "}}\n";
  out_ << line;
}

// ---------------------------------------------------------------------
// CheckSink
// ---------------------------------------------------------------------

CheckSink::CheckSink(check::OracleConfig base) : base_(base) {}

check::OracleConfig CheckSink::oracle_config(SystemModel model) const {
  check::OracleConfig config = base_;
  // The registry's behaviour sheet says whether this protocol promises
  // eventual consistency; only then may the oracle demand convergence.
  if (!protocol_descriptor(model).spec.guarantees_convergence) {
    config.require_convergence = false;
  }
  return config;
}

void CheckSink::add(const RunEvent& event, check::OracleReport report) {
  ++runs_checked_;
  violation_total_ += report.violation_total;
  for (check::Violation& violation : report.violations) {
    violations_.push_back(CampaignViolation{event.model, event.lambda,
                                            event.run, event.seed,
                                            std::move(violation)});
  }
}

void CheckSink::write_report(std::ostream& out) const {
  out << "check: " << runs_checked() << " runs checked, "
      << violation_total() << " violation(s)\n";
  for (const CampaignViolation& v : violations_) {
    out << "  " << to_string(v.model) << " lambda=" << v.lambda << " run="
        << v.run << " seed=" << v.seed << "  " << v.violation.describe()
        << '\n';
  }
}

// ---------------------------------------------------------------------
// ProfileSink
// ---------------------------------------------------------------------

void ProfileSink::add(const RunEvent& event, const obs::RunProfile& profile) {
  campaign_.add(to_string(event.model), profile);
  ++runs_profiled_;
}

// ---------------------------------------------------------------------
// TraceSink
// ---------------------------------------------------------------------

TraceSink::TraceSink(std::string directory)
    : directory_(std::move(directory)) {
  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
  if (ec) {
    throw std::runtime_error("TraceSink: cannot create directory " +
                             directory_ + ": " + ec.message());
  }
  const std::string manifest_path = directory_ + "/manifest.jsonl";
  manifest_.open(manifest_path, std::ios::trunc);
  if (!manifest_) {
    throw std::runtime_error("TraceSink: cannot write " + manifest_path);
  }
}

std::string TraceSink::run_file_name(SystemModel model,
                                     std::size_t lambda_index, int run) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "_l%02zu_r%03d.jsonl", lambda_index, run);
  return "trace_" + std::string(to_string(model)) + buf;
}

TraceSink::RunFile::RunFile(const std::string& directory, SystemModel model,
                            std::size_t lambda_index, int run)
    : name(run_file_name(model, lambda_index, run)),
      out(directory + "/" + name, std::ios::trunc),
      writer(out) {
  if (!out) {
    throw std::runtime_error("TraceSink: cannot write " + directory + "/" +
                             name);
  }
}

void TraceSink::close_run(const RunEvent& event, RunFile& file) {
  file.out.flush();
  records_ += file.writer.records_written();
  bytes_ += file.writer.bytes_written();

  std::string line = "{\"file\":";
  append_quoted(line, file.name);
  line += ",\"model\":";
  append_quoted(line, to_string(event.model));
  line += ",\"lambda\":";
  append_double(line, event.lambda);
  line += ",\"lambda_index\":";
  append_u64(line, event.lambda_index);
  line += ",\"run\":";
  append_i64(line, event.run);
  line += ",\"seed\":";
  append_u64(line, event.seed);
  line += ",\"records\":";
  append_u64(line, file.writer.records_written());
  line += ",\"bytes\":";
  append_u64(line, file.writer.bytes_written());
  line += ",\"trace_fingerprint\":";
  append_u64(line, event.record->trace_fingerprint);
  line += "}\n";
  manifest_ << line;
}

void TraceSink::flush() { manifest_.flush(); }

// ---------------------------------------------------------------------
// MultiSink
// ---------------------------------------------------------------------

void MultiSink::add(RunSink* sink) {
  if (sink != nullptr) sinks_.push_back(sink);
}

void MultiSink::on_campaign_begin(const SweepConfig& config,
                                  std::uint64_t total_runs) {
  for (RunSink* sink : sinks_) sink->on_campaign_begin(config, total_runs);
}

void MultiSink::on_run(const RunEvent& event) {
  for (RunSink* sink : sinks_) sink->on_run(event);
}

void MultiSink::on_campaign_end(const CampaignSummary& summary) {
  for (RunSink* sink : sinks_) sink->on_campaign_end(summary);
}

// ---------------------------------------------------------------------
// JSONL parsing: the shared strict reader from json_util.hpp, plus the
// campaign-log field accessors.
// ---------------------------------------------------------------------

namespace {

using jsonu::JsonParser;
using jsonu::JsonValue;


bool get_u64(const JsonValue& obj, const char* key, std::uint64_t& out,
             std::string& error) {
  const JsonValue* value = obj.find(key);
  if (value == nullptr || !value->as_u64(out)) {
    error = std::string("missing or invalid field '") + key + "'";
    return false;
  }
  return true;
}

bool get_i64(const JsonValue& obj, const char* key, std::int64_t& out,
             std::string& error) {
  const JsonValue* value = obj.find(key);
  if (value == nullptr || !value->as_i64(out)) {
    error = std::string("missing or invalid field '") + key + "'";
    return false;
  }
  return true;
}

bool get_double(const JsonValue& obj, const char* key, double& out,
                std::string& error) {
  const JsonValue* value = obj.find(key);
  if (value == nullptr || !value->as_double(out)) {
    error = std::string("missing or invalid field '") + key + "'";
    return false;
  }
  return true;
}

std::optional<SystemModel> model_by_name(std::string_view name) {
  return model_from_name(name);  // protocol registry name map
}

/// An int field, range-checked in 64 bits before it narrows.
bool get_int(const JsonValue& obj, const char* key, int& out,
             std::string& error) {
  std::int64_t value = 0;
  if (!get_i64(obj, key, value, error)) return false;
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    error = std::string("field '") + key + "' is out of range";
    return false;
  }
  out = static_cast<int>(value);
  return true;
}

bool parse_kernel(const JsonValue& obj, sim::KernelStats& out,
                  std::string& error) {
  for (const sim::KernelStatsField& field : sim::kKernelStatsFields) {
    if (!get_u64(obj, field.name, out.*field.member, error)) return false;
  }
  return true;
}

}  // namespace

std::optional<CampaignHeader> parse_jsonl_header(std::string_view line,
                                                 std::string& error) {
  JsonValue root;
  if (!JsonParser(line).parse(root, error)) return std::nullopt;
  if (root.type != JsonValue::Type::kObject) {
    error = "header line is not a JSON object";
    return std::nullopt;
  }
  std::uint64_t version = 0;
  if (!get_u64(root, "sdcm_campaign", version, error)) return std::nullopt;
  if (version != kCampaignLogVersion) {
    error = "unsupported campaign log version " + std::to_string(version) +
            " (only " + std::to_string(kCampaignLogVersion) + ")";
    return std::nullopt;
  }
  CampaignHeader header;
  const JsonValue* models = root.find("models");
  if (models == nullptr || models->type != JsonValue::Type::kArray ||
      models->items.empty()) {
    error = "missing or invalid field 'models'";
    return std::nullopt;
  }
  for (const JsonValue& item : models->items) {
    if (item.type != JsonValue::Type::kString) {
      error = "model names must be strings";
      return std::nullopt;
    }
    const auto model = model_by_name(item.text);
    if (!model) {
      error = "unknown model '" + item.text + "'";
      return std::nullopt;
    }
    header.models.push_back(*model);
  }
  const JsonValue* lambdas = root.find("lambdas");
  if (lambdas == nullptr || lambdas->type != JsonValue::Type::kArray ||
      lambdas->items.empty()) {
    error = "missing or invalid field 'lambdas'";
    return std::nullopt;
  }
  for (const JsonValue& item : lambdas->items) {
    double lambda = 0.0;
    if (!item.as_double(lambda)) {
      error = "lambdas must be numbers";
      return std::nullopt;
    }
    header.lambdas.push_back(lambda);
  }

  std::uint64_t shard_index = 0;
  std::uint64_t shard_count = 1;
  if (!get_int(root, "runs", header.runs, error) ||
      !get_int(root, "users", header.users, error) ||
      !get_int(root, "managers", header.managers, error) ||
      !get_int(root, "registries", header.registries, error) ||
      !get_u64(root, "seed", header.seed, error) ||
      !get_u64(root, "shard_index", shard_index, error) ||
      !get_u64(root, "shard_count", shard_count, error)) {
    return std::nullopt;
  }
  if (header.runs <= 0 || header.users <= 0) {
    error = "runs and users must be positive";
    return std::nullopt;
  }
  if (header.managers <= 0) {
    error = "managers must be positive";
    return std::nullopt;
  }
  if (header.registries < -1 || header.registries == 0) {
    error = "registries must be -1 (model default) or positive";
    return std::nullopt;
  }
  header.shard_index = static_cast<std::size_t>(shard_index);
  header.shard_count = static_cast<std::size_t>(shard_count);
  const JsonValue* workload = root.find("workload");
  if (workload == nullptr || workload->type != JsonValue::Type::kString) {
    error = "missing or invalid field 'workload'";
    return std::nullopt;
  }
  const auto kind = workload_from_name(workload->text);
  if (!kind) {
    error = "unknown workload '" + workload->text + "'";
    return std::nullopt;
  }
  header.workload = *kind;
  return header;
}

std::optional<CampaignRun> parse_jsonl_run(std::string_view line,
                                           std::string& error) {
  JsonValue root;
  if (!JsonParser(line).parse(root, error)) return std::nullopt;
  if (root.type != JsonValue::Type::kObject) {
    error = "run line is not a JSON object";
    return std::nullopt;
  }

  CampaignRun out;
  std::uint64_t point = 0;
  std::uint64_t lambda_index = 0;
  if (!get_u64(root, "point", point, error) ||
      !get_double(root, "lambda", out.lambda, error) ||
      !get_u64(root, "lambda_index", lambda_index, error) ||
      !get_int(root, "run", out.run, error) ||
      !get_u64(root, "seed", out.seed, error) ||
      !get_u64(root, "wall_ns", out.wall_ns, error)) {
    return std::nullopt;
  }
  out.point_index = static_cast<std::size_t>(point);
  out.lambda_index = static_cast<std::size_t>(lambda_index);

  const JsonValue* model = root.find("model");
  if (model == nullptr || model->type != JsonValue::Type::kString) {
    error = "missing or invalid field 'model'";
    return std::nullopt;
  }
  const auto resolved = model_by_name(model->text);
  if (!resolved) {
    error = "unknown model '" + model->text + "'";
    return std::nullopt;
  }
  out.model = *resolved;

  const JsonValue* record = root.find("record");
  if (record == nullptr || record->type != JsonValue::Type::kObject) {
    error = "missing or invalid field 'record'";
    return std::nullopt;
  }
  if (!get_i64(*record, "change_time", out.record.change_time, error) ||
      !get_i64(*record, "deadline", out.record.deadline, error) ||
      !get_u64(*record, "update_messages", out.record.update_messages,
               error) ||
      !get_u64(*record, "window_messages", out.record.window_messages,
               error) ||
      !get_u64(*record, "trace_fingerprint", out.record.trace_fingerprint,
               error)) {
    return std::nullopt;
  }
  const JsonValue* reach = record->find("user_reach_times");
  if (reach == nullptr || reach->type != JsonValue::Type::kArray) {
    error = "missing or invalid field 'user_reach_times'";
    return std::nullopt;
  }
  for (const JsonValue& item : reach->items) {
    if (item.type == JsonValue::Type::kNull) {
      out.record.user_reach_times.push_back(std::nullopt);
    } else {
      std::int64_t t = 0;
      if (!item.as_i64(t)) {
        error = "user_reach_times entries must be integers or null";
        return std::nullopt;
      }
      out.record.user_reach_times.push_back(t);
    }
  }
  const JsonValue* kernel = record->find("kernel");
  if (kernel == nullptr || kernel->type != JsonValue::Type::kObject ||
      !parse_kernel(*kernel, out.record.kernel, error)) {
    if (error.empty()) error = "missing or invalid field 'kernel'";
    return std::nullopt;
  }
  return out;
}

// ---------------------------------------------------------------------
// Shard merge
// ---------------------------------------------------------------------

namespace {

bool same_campaign(const CampaignHeader& a, const CampaignHeader& b) {
  return a.models == b.models && a.lambdas == b.lambdas && a.runs == b.runs &&
         a.users == b.users && a.managers == b.managers &&
         a.registries == b.registries && a.seed == b.seed &&
         a.workload == b.workload;
}

}  // namespace

std::optional<SweepResult> merge_jsonl(std::span<std::istream* const> shards,
                                       std::string& error) {
  if (shards.empty()) {
    error = "no shard logs to merge";
    return std::nullopt;
  }

  std::optional<CampaignHeader> campaign;
  SweepResult result;
  std::vector<metrics::StreamingSummary> summaries;
  // seen[point * runs + run] guards against duplicated lines.
  std::vector<std::uint8_t> seen;

  for (std::size_t s = 0; s < shards.size(); ++s) {
    std::istream& in = *shards[s];
    const std::string where = "shard " + std::to_string(s);
    std::string line;
    if (!std::getline(in, line)) {
      error = where + ": empty log";
      return std::nullopt;
    }
    const auto header = parse_jsonl_header(line, error);
    if (!header) {
      error = where + ": " + error;
      return std::nullopt;
    }
    if (!campaign) {
      campaign = *header;
      result.points.reserve(campaign->models.size() *
                            campaign->lambdas.size());
      for (const SystemModel model : campaign->models) {
        for (std::size_t li = 0; li < campaign->lambdas.size(); ++li) {
          SweepPoint point;
          point.model = model;
          point.lambda = campaign->lambdas[li];
          point.lambda_index = li;
          result.points.push_back(std::move(point));
          summaries.emplace_back(
              campaign->runs,
              metrics::update_metrics::kPaperGlobalMinimumMessages,
              minimum_update_messages(model, campaign->users,
                                      campaign->registries));
        }
      }
      seen.assign(result.points.size() *
                      static_cast<std::size_t>(campaign->runs),
                  0);
    } else if (!same_campaign(*campaign, *header)) {
      error = where +
              ": header does not match the first shard's campaign "
              "(models/lambdas/runs/topology/seed/workload must agree)";
      return std::nullopt;
    }

    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const auto run = parse_jsonl_run(line, error);
      if (!run) {
        error = where + ": " + error;
        return std::nullopt;
      }
      if (run->point_index >= result.points.size() || run->run < 0 ||
          run->run >= campaign->runs) {
        error = where + ": run outside the campaign grid";
        return std::nullopt;
      }
      const SweepPoint& point = result.points[run->point_index];
      if (point.model != run->model || point.lambda_index != run->lambda_index) {
        error = where + ": run's (model, lambda) disagrees with its point "
                "index";
        return std::nullopt;
      }
      const std::size_t key =
          run->point_index * static_cast<std::size_t>(campaign->runs) +
          static_cast<std::size_t>(run->run);
      if (seen[key] != 0) {
        error = where + ": duplicate run (point " +
                std::to_string(run->point_index) + ", run " +
                std::to_string(run->run) + ")";
        return std::nullopt;
      }
      seen[key] = 1;

      summaries[run->point_index].add(run->run, run->record);
      ++result.summary.runs_completed;
      result.summary.run_wall_ns_total += run->wall_ns;
      result.summary.sim_seconds_total += sim::to_seconds(run->record.deadline);
      sim::accumulate(result.summary.kernel, run->record.kernel);
    }
  }

  std::uint64_t missing = 0;
  for (const std::uint8_t flag : seen) missing += flag == 0 ? 1 : 0;
  if (missing != 0) {
    error = "merged shards cover only " +
            std::to_string(seen.size() - missing) + " of " +
            std::to_string(seen.size()) + " runs (missing a shard?)";
    return std::nullopt;
  }

  for (std::size_t p = 0; p < result.points.size(); ++p) {
    result.points[p].metrics = summaries[p].finalize();
    result.points[p].runs = summaries[p].runs_added();
  }
  result.summary.points = result.points.size();
  // No single wall clock spans machines; report the summed run time.
  result.summary.wall_ns = result.summary.run_wall_ns_total;
  return result;
}

std::optional<SweepResult> merge_jsonl_files(
    std::span<const std::string> paths, std::string& error) {
  std::vector<std::ifstream> files;
  std::vector<std::istream*> streams;
  files.reserve(paths.size());
  for (const std::string& path : paths) {
    if (path == "-") {
      streams.push_back(&std::cin);
      continue;
    }
    files.emplace_back(path);
    if (!files.back()) {
      error = "cannot read " + path;
      return std::nullopt;
    }
    streams.push_back(&files.back());
  }
  return merge_jsonl(streams, error);
}

}  // namespace sdcm::experiment
