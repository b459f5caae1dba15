#pragma once

// The one worker pool. Sweep shards (sim/scenario.cpp), campaign
// configurations (sim/campaign.cpp) and the load generator's actor phase
// (load/load_gen.cpp) all run through parallel_for.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

namespace xchain {

/// Workers for a thread request: 0 = one per hardware thread.
inline unsigned resolve_threads(unsigned requested) {
  return requested != 0 ? requested
                        : std::max(1u, std::thread::hardware_concurrency());
}

/// Calls fn(worker, task) once for every task in [0, tasks) on at most
/// `workers` threads, never more than there are tasks. The caller is
/// worker 0, and workers claim tasks through one shared cursor. An
/// exception stops further claims; every started worker is joined before
/// the lowest-numbered worker's exception is rethrown, and a worker that
/// could not be spawned counts as one that threw std::system_error.
template <class Fn>
void parallel_for(unsigned workers, std::size_t tasks, Fn&& fn) {
  workers = static_cast<unsigned>(
      std::clamp<std::size_t>(tasks, 1, std::max(workers, 1u)));
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(workers);
  const auto work = [&](unsigned worker) {
    try {
      for (std::size_t task = next++; task < tasks; task = next++) {
        fn(worker, task);
      }
    } catch (...) {
      errors[worker] = std::current_exception();
      next = tasks;
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (unsigned worker = 1; worker < workers; ++worker) {
    try {
      pool.emplace_back(work, worker);
    } catch (...) {
      errors[worker] = std::current_exception();
      next = tasks;
      break;
    }
  }
  work(0);
  for (std::thread& th : pool) th.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace xchain
