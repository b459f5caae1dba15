// The one worker pool (common/parallel.hpp) and the failure paths of the
// loops built on it. Every task runs exactly once whatever the worker
// count; a worker's exception reaches the caller only after every started
// worker has been joined, from a bare parallel_for, a sharded sweep and a
// multi-configuration campaign alike; and a worker the system cannot
// spawn is an exception, never std::terminate.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "sim/campaign.hpp"
#include "sim/registry.hpp"
#include "sim/scenario.hpp"

namespace xchain {
namespace {

/// Runs parallel_for(workers, tasks) and returns how often each task ran
/// and the highest worker id seen.
std::vector<int> run_counts(unsigned workers, std::size_t tasks,
                            unsigned& max_worker) {
  std::vector<std::atomic<int>> runs(tasks);
  std::atomic<unsigned> top{0};
  parallel_for(workers, tasks, [&](unsigned worker, std::size_t task) {
    ++runs[task];
    unsigned seen = top.load();
    while (worker > seen && !top.compare_exchange_weak(seen, worker)) {
    }
  });
  max_worker = top.load();
  std::vector<int> out;
  for (const std::atomic<int>& r : runs) out.push_back(r.load());
  return out;
}

TEST(ParallelFor, ZeroTasksRunNothing) {
  unsigned max_worker = 0;
  EXPECT_TRUE(run_counts(4, 0, max_worker).empty());
}

TEST(ParallelFor, EveryTaskRunsExactlyOnce) {
  for (const unsigned workers : {1u, 2u, 4u, 7u}) {
    SCOPED_TRACE(workers);
    unsigned max_worker = 0;
    EXPECT_EQ(run_counts(workers, 1000, max_worker),
              std::vector<int>(1000, 1));
    EXPECT_LT(max_worker, workers);
  }
}

TEST(ParallelFor, NeverMoreWorkersThanTasks) {
  unsigned max_worker = 0;
  EXPECT_EQ(run_counts(64, 3, max_worker), std::vector<int>(3, 1));
  EXPECT_LT(max_worker, 3u);
}

TEST(ParallelFor, ZeroWorkersRunsOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  int runs = 0;
  parallel_for(0, 5, [&](unsigned worker, std::size_t) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++runs;
  });
  EXPECT_EQ(runs, 5);
}

TEST(ParallelFor, ResolveThreadsMapsZeroToTheHardware) {
  EXPECT_EQ(resolve_threads(3), 3u);
  EXPECT_EQ(resolve_threads(0),
            std::max(1u, std::thread::hardware_concurrency()));
}

// No task is still running when the caller sees the exception.
TEST(ParallelFor, RethrowsOnlyAfterEveryWorkerJoined) {
  std::atomic<int> in_flight{0};
  try {
    parallel_for(4, 64, [&](unsigned, std::size_t task) {
      ++in_flight;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      --in_flight;
      if (task == 3) throw std::runtime_error("task 3");
    });
    FAIL() << "expected the task's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3");
  }
  EXPECT_EQ(in_flight.load(), 0);
}

TEST(ParallelFor, LowestNumberedWorkersExceptionWins) {
  for (int round = 0; round < 20; ++round) {
    std::atomic<unsigned> threw{0};  // bit w: worker w threw
    try {
      parallel_for(4, 64, [&](unsigned worker, std::size_t) {
        threw |= 1u << worker;
        throw std::runtime_error(std::to_string(worker));
      });
      FAIL() << "expected a worker's exception";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::stoi(e.what()), std::countr_zero(threw.load()));
    }
  }
}

// ---------------------------------------------------------------------------
// Sweeps and campaigns rethrow a worker's exception on the caller.
// ---------------------------------------------------------------------------

/// What ThrowingAdapter raises on its one poisoned schedule.
struct Poisoned : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Three parties with four actions each (125 halt-only schedules). run()
/// throws on exactly one of them: party 0 halts at 2, party 1 conforms and
/// party 2 halts at 1.
class ThrowingAdapter final : public sim::ProtocolAdapter {
 public:
  std::string name() const override { return "throwing"; }
  std::size_t party_count() const override { return 3; }
  int action_count(PartyId) const override { return 4; }
  std::unique_ptr<sim::ProtocolAdapter> clone() const override {
    return std::make_unique<ThrowingAdapter>(*this);
  }
  std::vector<sim::PartyOutcome> run(const sim::Schedule& s) const override {
    if (s.plans[0].halt_point() == 2 && s.plans[1].is_conforming() &&
        s.plans[2].halt_point() == 1) {
      throw Poisoned("poisoned schedule");
    }
    std::vector<sim::PartyOutcome> out;
    for (const sim::DeviationPlan& plan : s.plans) {
      out.push_back({"p", plan.is_conforming(), {}, {}});
    }
    return out;
  }
};

TEST(WorkerExceptions, ShardedSweepRethrowsOnTheCaller) {
  ThrowingAdapter adapter;
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    sim::SweepOptions opts;
    opts.threads = threads;
    try {
      (void)sim::ScenarioRunner(adapter).sweep(opts);
      FAIL() << "expected the poisoned schedule's exception";
    } catch (const Poisoned& e) {
      EXPECT_STREQ(e.what(), "poisoned schedule");
    }
  }
}

TEST(WorkerExceptions, CampaignWorkersRethrowOnTheCaller) {
  sim::ProtocolRegistry reg;
  reg.add({"throwing", "synthetic poisoned schedule", sim::ParamSet(),
           [](const sim::ParamSet&) {
             return std::make_unique<ThrowingAdapter>();
           }});
  sim::CampaignSpec spec;
  spec.entries.push_back({"throwing", {}, {}});
  spec.entries.push_back({"throwing", {}, {}});
  spec.sweep.threads = 4;  // two configurations, two shard workers each
  try {
    (void)sim::Campaign(spec, reg).run();
    FAIL() << "expected the poisoned schedule's exception";
  } catch (const Poisoned& e) {
    EXPECT_STREQ(e.what(), "poisoned schedule");
  }
}

// ---------------------------------------------------------------------------
// A failed spawn. The pools parallel_for replaced aborted here: the vector
// of still-joinable workers was destroyed during unwinding, and a joinable
// std::thread's destructor calls std::terminate.
// ---------------------------------------------------------------------------

/// ASan and TSan reserve terabytes of shadow memory, which no address-space
/// cap leaves room for.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/// Death-test body: caps the address space at 1,500,000 KiB — room for a
/// sweep, not for a thousand 8 MiB default thread stacks — then exits 2
/// when `body` throws an E and 0 when it returns.
template <class E, class Body>
[[noreturn]] void run_capped(Body body) {
  const rlim_t cap = 1'500'000ull * 1024;
  const rlimit limit{cap, cap};
  setrlimit(RLIMIT_AS, &limit);
  try {
    body();
  } catch (const E&) {
    std::_Exit(2);
  }
  std::_Exit(0);
}

TEST(ParallelForDeathTest, FailedSpawnIsASystemError) {
  if (kSanitized) GTEST_SKIP() << "sanitizer shadow memory exceeds the cap";
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(run_capped<std::system_error>([] {
                parallel_for(100'000, 100'000, [](unsigned, std::size_t) {});
              }),
              ::testing::ExitedWithCode(2), "");
}

TEST(ParallelForDeathTest, ThousandWorkerSweepThrowsInsteadOfAborting) {
  if (kSanitized) GTEST_SKIP() << "sanitizer shadow memory exceeds the cap";
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(run_capped<std::exception>([] {
                const auto adapter =
                    sim::ProtocolRegistry::global().make("multi-party-ring");
                sim::SweepOptions opts;
                opts.strategies.kind = sim::StrategySpace::Kind::kLateDelays;
                opts.strategies.max_schedules = 1'000'000;
                opts.threads = 1000;
                (void)sim::ScenarioRunner(*adapter).sweep(opts);
              }),
              ::testing::ExitedWithCode(2), "");
}

}  // namespace
}  // namespace xchain
