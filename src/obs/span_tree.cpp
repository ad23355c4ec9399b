#include "sdcm/obs/span_tree.hpp"

#include <ostream>

namespace sdcm::obs {

SpanForest build_span_forest(std::span<const sim::TraceRecord> records) {
  SpanForest forest;
  forest.nodes.reserve(records.size());
  forest.by_span.reserve(records.size());
  for (const sim::TraceRecord& record : records) {
    forest.by_span.emplace(record.span, forest.nodes.size());
    forest.nodes.push_back({&record, {}});
  }
  for (std::size_t i = 0; i < forest.nodes.size(); ++i) {
    const sim::SpanId parent = forest.nodes[i].record->parent;
    const auto it = parent == sim::kNoSpan ? forest.by_span.end()
                                           : forest.by_span.find(parent);
    if (it == forest.by_span.end()) {
      forest.roots.push_back(i);
    } else {
      forest.nodes[it->second].children.push_back(i);
    }
  }
  return forest;
}

std::optional<std::string> check_span_forest(
    std::span<const sim::TraceRecord> records) {
  std::unordered_map<sim::SpanId, const sim::TraceRecord*> by_span;
  by_span.reserve(records.size());
  sim::SpanId previous = sim::kNoSpan;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const sim::TraceRecord& r = records[i];
    const auto where = [&] {
      return "record " + std::to_string(i) + " (" +
             std::string(r.event.str()) + ")";
    };
    if (r.span == sim::kNoSpan) {
      return where() + ": span id 0";
    }
    if (r.span <= previous) {
      return where() + ": span ids not strictly increasing (" +
             std::to_string(r.span) + " after " + std::to_string(previous) +
             ")";
    }
    previous = r.span;
    if (r.parent != sim::kNoSpan) {
      if (r.parent >= r.span) {
        return where() + ": parent " + std::to_string(r.parent) +
               " not smaller than span " + std::to_string(r.span);
      }
      const auto it = by_span.find(r.parent);
      if (it == by_span.end()) {
        return where() + ": parent " + std::to_string(r.parent) +
               " does not exist";
      }
      if (it->second->at > r.at) {
        return where() + ": parent at " + sim::format_time(it->second->at) +
               " is later than child at " + sim::format_time(r.at);
      }
    }
    by_span.emplace(r.span, &r);
  }
  return std::nullopt;
}

namespace {

void print_subtree(std::ostream& out, const SpanForest& forest,
                   std::size_t index, int depth) {
  const sim::TraceRecord& r = *forest.nodes[index].record;
  out << '[' << sim::format_time(r.at) << "] ";
  for (int i = 0; i < depth; ++i) out << "  ";
  out << "span " << r.span << " node " << r.node << ' ' << r.event.str();
  const SpanForest::Node* parent =
      r.parent == sim::kNoSpan ? nullptr : forest.find(r.parent);
  if (parent != nullptr) {
    out << " (+" << (r.at - parent->record->at) << " us)";
  }
  const std::string detail = sim::detail_text(r.event, r.detail);
  if (!detail.empty()) out << "  " << detail;
  out << '\n';
  for (const std::size_t child : forest.nodes[index].children) {
    print_subtree(out, forest, child, depth + 1);
  }
}

}  // namespace

void print_span_tree(std::ostream& out, const SpanForest& forest,
                     std::size_t root_index) {
  print_subtree(out, forest, root_index, 0);
}

void print_span_forest(std::ostream& out, const SpanForest& forest) {
  for (const std::size_t root : forest.roots) {
    print_span_tree(out, forest, root);
  }
}

}  // namespace sdcm::obs
