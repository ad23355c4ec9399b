#include "sdcm/obs/trace_jsonl.hpp"

#include <charconv>
#include <istream>
#include <ostream>

namespace sdcm::obs {

namespace {

template <typename Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  const auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  out.append(buf, end);
}

void append_quoted(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

/// Strict cursor over one record line. The format is rigid (fixed key
/// order, exactly the seven fields the writer emits), so the parser is a
/// matcher, not a general JSON reader.
class LineParser {
 public:
  explicit LineParser(std::string_view text) : text_(text) {}

  bool literal(std::string_view expect) {
    if (text_.compare(pos_, expect.size(), expect) != 0) return false;
    pos_ += expect.size();
    return true;
  }

  bool u64(std::uint64_t& out) {
    const std::size_t begin = pos_;
    std::uint64_t v = 0;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      v = v * 10 + static_cast<std::uint64_t>(text_[pos_] - '0');
      ++pos_;
    }
    if (pos_ == begin) return false;
    out = v;
    return true;
  }

  bool i64(std::int64_t& out) {
    const bool negative = pos_ < text_.size() && text_[pos_] == '-';
    if (negative) ++pos_;
    std::uint64_t magnitude = 0;
    if (!u64(magnitude)) return false;
    out = negative ? -static_cast<std::int64_t>(magnitude)
                   : static_cast<std::int64_t>(magnitude);
    return true;
  }

  bool quoted(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_];
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        c = text_[pos_];
        if (c != '"' && c != '\\') return false;  // only escapes we emit
      }
      out += c;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  [[nodiscard]] bool at_end() const noexcept { return pos_ == text_.size(); }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Appends one record's JSONL line (no newline) to `line`. The detail
/// text is rendered into `scratch` first, because it is escaped on the
/// way into the line.
void append_jsonl(std::string& line, std::string& scratch,
                  const sim::TraceRecord& record) {
  line += "{\"at\":";
  append_int(line, record.at);
  line += ",\"node\":";
  append_int(line, record.node);
  line += ",\"category\":";
  append_quoted(line, to_string(record.category));
  line += ",\"span\":";
  append_int(line, record.span);
  line += ",\"parent\":";
  append_int(line, record.parent);
  line += ",\"event\":";
  append_quoted(line, record.event.str());
  line += ",\"detail\":";
  scratch.clear();
  sim::append_detail_text(scratch, record.event, record.detail);
  append_quoted(line, scratch);
  line += '}';
}

}  // namespace

std::string trace_record_to_jsonl(const sim::TraceRecord& record) {
  std::string line;
  std::string scratch;
  append_jsonl(line, scratch, record);
  return line;
}

std::optional<sim::TraceRecord> parse_trace_record(std::string_view line,
                                                   std::string& error) {
  LineParser p(line);
  sim::TraceRecord record;
  std::uint64_t node = 0;
  std::string category;
  std::string event;
  std::string detail;
  const bool shape =
      p.literal("{\"at\":") && p.i64(record.at) &&
      p.literal(",\"node\":") && p.u64(node) &&
      p.literal(",\"category\":") && p.quoted(category) &&
      p.literal(",\"span\":") && p.u64(record.span) &&
      p.literal(",\"parent\":") && p.u64(record.parent) &&
      p.literal(",\"event\":") && p.quoted(event) &&
      p.literal(",\"detail\":") && p.quoted(detail) &&
      p.literal("}") && p.at_end();
  if (!shape) {
    error = "malformed trace record line";
    return std::nullopt;
  }
  if (node > std::uint64_t{0xffffffff}) {
    error = "node id out of range";
    return std::nullopt;
  }
  record.node = static_cast<sim::NodeId>(node);
  const auto cat = sim::category_from_string(category);
  if (!cat) {
    error = "unknown trace category '" + category + "'";
    return std::nullopt;
  }
  record.category = *cat;
  record.event = sim::Atom::intern(event);
  if (!sim::parse_detail_text(record.event, detail, record.detail)) {
    error = "detail '" + detail + "' does not fit the fields of event '" +
            event + "'";
    return std::nullopt;
  }
  return record;
}

void JsonlTraceWriter::on_record(const sim::TraceRecord& record) {
  line_.clear();
  append_jsonl(line_, detail_, record);
  line_ += '\n';
  out_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
  ++records_;
  bytes_ += line_.size();
}

bool read_trace_jsonl(std::istream& in, sim::TraceLog& log,
                      std::string& error) {
  if (log.appended() != 0) {
    error = "target trace log is not empty";
    return false;
  }
  std::string line;
  std::uint64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const auto record = parse_trace_record(line, error);
    if (!record) {
      error = "line " + std::to_string(line_number) + ": " + error;
      return false;
    }
    const sim::SpanId span =
        log.record_child(record->parent, record->at, record->node,
                         record->category, record->event, record->detail);
    if (span != record->span) {
      error = "line " + std::to_string(line_number) +
              ": span id " + std::to_string(record->span) +
              " does not match replay order (expected " +
              std::to_string(span) + ")";
      return false;
    }
  }
  return true;
}

}  // namespace sdcm::obs
