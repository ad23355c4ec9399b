// Prints the peak resident set, in kB, that obs::sample_memory() reports
// for this process. Profiler.PeakRssIsTheProcessImagesOwnNotItsLaunchers
// launches it from a test process that has touched a large buffer.
#include <cstdio>

#include "sdcm/obs/profiler.hpp"

int main() {
  std::printf("%llu\n", static_cast<unsigned long long>(
                            sdcm::obs::sample_memory().peak_rss_kb));
  return 0;
}
