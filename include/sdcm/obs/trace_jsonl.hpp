#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "sdcm/sim/trace.hpp"

namespace sdcm::obs {

/// Formats one trace record as its JSONL line (no trailing newline):
///   {"at":123,"node":10,"category":"update","span":5,"parent":2,
///    "event":"frodo.update.tx","detail":"user=11"}
/// Integers are decimal, strings escape only '"' and '\' - the same
/// exact-round-trip discipline as the campaign JsonlSink. "detail" is
/// the typed detail rendered by its tag (sim::append_detail_text).
std::string trace_record_to_jsonl(const sim::TraceRecord& record);

/// Parses one line written by trace_record_to_jsonl, interning the event
/// name and parsing the detail text back into typed fields by the tag's
/// row (sim::parse_detail_text). Returns std::nullopt with a message on
/// `error` for malformed lines, unknown category names, or detail text
/// the tag would not render.
std::optional<sim::TraceRecord> parse_trace_record(std::string_view line,
                                                   std::string& error);

/// Streaming trace consumer writing JSONL to an ostream, one record per
/// line, flushing only when the stream does. Attach with
/// TraceLog::set_writer (or ExperimentConfig::trace_writer); safe to use
/// with in-memory storage off, which is the campaign streaming mode.
/// Each line is rendered with std::to_chars into buffers the writer
/// reuses, so steady-state writing allocates nothing.
class JsonlTraceWriter final : public sim::TraceWriter {
 public:
  explicit JsonlTraceWriter(std::ostream& out) : out_(out) {}

  void on_record(const sim::TraceRecord& record) override;

  [[nodiscard]] std::uint64_t records_written() const noexcept {
    return records_;
  }
  [[nodiscard]] std::uint64_t bytes_written() const noexcept { return bytes_; }

 private:
  std::ostream& out_;
  std::string line_;
  std::string detail_;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
};

/// Reads an entire JSONL trace stream back by replaying every line into
/// `log` (which must be empty). Because span ids are assigned in record
/// order on both sides, the rebuilt log is field-for-field identical to
/// the writing run's - same spans, same fingerprint; the reader verifies
/// the span ids match the replay and fails on any divergence.
/// Returns false with a message on `error` for parse or replay failures.
bool read_trace_jsonl(std::istream& in, sim::TraceLog& log,
                      std::string& error);

}  // namespace sdcm::obs
