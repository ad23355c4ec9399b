#pragma once

// Shared scaffolding for the benches: a banner, plain notes, PASS/DIFF
// claim lines and a small JSON writer for the BENCH_*.json artifacts.

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "sdcm/experiment/env.hpp"

namespace sdcm::bench {

inline void banner(std::string_view id, std::string_view title) {
  std::printf(
      "\n==============================================================\n");
  std::printf("%.*s - %.*s\n", static_cast<int>(id.size()), id.data(),
              static_cast<int>(title.size()), title.data());
  std::printf(
      "==============================================================\n");
}

inline void note(std::string_view text) {
  std::printf("%.*s\n", static_cast<int>(text.size()), text.data());
}

/// Prints a claim's verdict and returns it, so a bench can fold its
/// claims into its exit status.
inline bool check(bool ok, std::string_view claim) {
  std::printf("  [%s] %.*s\n", ok ? "PASS" : "DIFF",
              static_cast<int>(claim.size()), claim.data());
  return ok;
}

/// Minimal streaming JSON writer for the machine-readable bench
/// artifacts (BENCH_*.json). Handles only what the benches need -
/// nested objects, string/number/bool fields - and keeps the output
/// valid by tracking per-depth comma state. Numbers are emitted with
/// enough precision to round-trip; the benches never produce NaN/inf.
class JsonWriter {
 public:
  /// Opens an object: the root when `key` is empty, a named member
  /// otherwise.
  JsonWriter& begin(std::string_view key = {}) {
    comma();
    if (!key.empty()) name(key);
    out_ += '{';
    fresh_.push_back(true);
    return *this;
  }

  JsonWriter& end() {
    fresh_.pop_back();
    out_ += '}';
    return *this;
  }

  JsonWriter& field(std::string_view key, std::string_view value) {
    comma();
    name(key);
    quote(value);
    return *this;
  }

  // Without this overload a string literal would convert to bool.
  JsonWriter& field(std::string_view key, const char* value) {
    return field(key, std::string_view{value});
  }

  JsonWriter& field(std::string_view key, bool value) {
    comma();
    name(key);
    out_ += value ? "true" : "false";
    return *this;
  }

  JsonWriter& field(std::string_view key, std::uint64_t value) {
    comma();
    name(key);
    out_ += std::to_string(value);
    return *this;
  }

  JsonWriter& field(std::string_view key, double value) {
    comma();
    name(key);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    out_ += buf;
    return *this;
  }

  [[nodiscard]] const std::string& str() const noexcept { return out_; }

  /// Writes the accumulated document to `path`; returns success.
  [[nodiscard]] bool write_file(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::size_t n = std::fwrite(out_.data(), 1, out_.size(), f);
    const bool ok = n == out_.size() && std::fputc('\n', f) != EOF;
    return std::fclose(f) == 0 && ok;
  }

 private:
  void comma() {
    if (fresh_.empty()) return;
    if (!fresh_.back()) out_ += ',';
    fresh_.back() = false;
  }

  void name(std::string_view key) {
    quote(key);
    out_ += ':';
  }

  void quote(std::string_view text) {
    out_ += '"';
    for (const char c : text) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(static_cast<unsigned char>(c)));
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> fresh_;
};

}  // namespace sdcm::bench
