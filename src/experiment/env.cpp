#include "sdcm/experiment/env.hpp"

#include <cstdlib>
#include <string_view>

namespace sdcm::experiment::env {

namespace {

/// Strict base-10 parse of the whole value; false on any junk.
bool parse_long(const char* text, long& out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  out = std::strtol(text, &end, 10);
  return end != text && *end == '\0';
}

}  // namespace

int int_or(const char* name, int fallback, int min) {
  long parsed = 0;
  if (!parse_long(std::getenv(name), parsed)) return fallback;
  if (parsed < min || parsed > 1000000000L) return fallback;
  return static_cast<int>(parsed);
}

int runs(int fallback) { return int_or("SDCM_RUNS", fallback, 1); }

bool bench_smoke() {
  const char* value = std::getenv("SDCM_BENCH_SMOKE");
  return value != nullptr && *value != '\0' &&
         std::string_view(value) != "0";
}

std::size_t threads(std::size_t fallback) {
  const int parsed = int_or("SDCM_THREADS", -1, 0);
  return parsed < 0 ? fallback : static_cast<std::size_t>(parsed);
}

}  // namespace sdcm::experiment::env
