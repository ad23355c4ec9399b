#include "sdcm/experiment/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace sdcm::experiment {

void parallel_for(std::size_t threads, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = std::min(threads, n);

  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto work = [&] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        body(i);
      } catch (...) {
        const std::scoped_lock lock(error_mutex);
        if (first_error == nullptr) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> helpers;
  helpers.reserve(threads > 1 ? threads - 1 : 0);
  for (std::size_t t = 1; t < threads; ++t) {
    try {
      helpers.emplace_back(work);
    } catch (const std::system_error&) {
      break;  // no thread to spare: the ones started claim the rest
    }
  }
  work();
  for (std::thread& helper : helpers) helper.join();
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

}  // namespace sdcm::experiment
