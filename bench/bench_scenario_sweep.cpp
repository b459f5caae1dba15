// Scenario-sweep throughput: how many adversarial deviation schedules per
// second the ScenarioRunner can enumerate, execute, and audit, per protocol
// family and per worker-thread count. This is the capacity metric for
// future fuzzing / scaling PRs — exhaustive coverage is only as deep as the
// sweeps are fast.
//
// Every protocol engine with an adapter is measured: two-party swap,
// multi-party ARC (Fig 3a + cycle4), open + sealed ticket auctions, the §8
// broker deal, the §6 bootstrap ladder, and the CRR-priced ladder. The
// benchmark axis `threads` sweeps the sharded parallel runner (1/2/4/8 by
// default; `--threads=N` pins the parallel measurement to N workers).
//
// Emits BENCH_scenario_sweep.json (schedules/second per protocol, plus the
// parallel scaling curve and the 8-thread speedup) alongside the usual
// Google Benchmark output; --json=PATH redirects the artifact anywhere
// (default: BENCH_scenario_sweep.json in the working directory). The JSON
// carries a git_commit / build_type / compiler stamp so per-commit CI
// artifacts are comparable across runs (scripts/bench_compare.py).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "sim/registry.hpp"
#include "sim/scenario.hpp"

using namespace xchain;

namespace {

struct NamedAdapter {
  std::string name;
  std::unique_ptr<sim::ProtocolAdapter> adapter;
};

// All reference configurations come from the protocol registry defaults —
// the same numbers every test audits (pinned byte-identical to the legacy
// structs in tests/registry_campaign_test.cpp), so the bench measures
// exactly the schedule spaces the suite verifies.
std::vector<NamedAdapter> make_adapters() {
  const sim::ProtocolRegistry& reg = sim::ProtocolRegistry::global();
  std::vector<NamedAdapter> out;
  out.push_back({"two_party", reg.make("two-party")});
  out.push_back({"multi_party_fig3a", reg.make("multi-party-fig3a")});
  sim::ParamSet ring = reg.defaults("multi-party-ring");
  ring.set("n", "4");
  out.push_back({"multi_party_cycle4", reg.make("multi-party-ring", ring)});
  out.push_back({"auction_open", reg.make("auction-open")});
  out.push_back({"auction_sealed", reg.make("auction-sealed")});
  out.push_back({"broker", reg.make("broker")});
  out.push_back({"bootstrap_r2", reg.make("bootstrap")});
  out.push_back({"crr_ladder", reg.make("crr-ladder")});
  return out;
}

void BM_Sweep(benchmark::State& state, const sim::ProtocolAdapter& adapter) {
  const auto threads = static_cast<unsigned>(state.range(0));
  sim::ScenarioRunner runner(adapter);
  std::size_t schedules = 0;
  unsigned workers = 1;
  for (auto _ : state) {
    auto report = runner.sweep({/*max_deviators=*/-1, threads, {}});
    benchmark::DoNotOptimize(report);
    schedules += report.schedules_run;
    workers = report.workers;
    if (!report.ok()) {
      state.SkipWithError(("hedging-bound violation: " + report.str()).c_str());
      return;
    }
  }
  state.counters["schedules_per_second"] = benchmark::Counter(
      static_cast<double>(schedules), benchmark::Counter::kIsRate);
  // Small spaces clamp below the requested thread count; surface the real
  // worker count so a flat scaling row is read as "clamped", not "broken".
  state.counters["workers"] = static_cast<double>(workers);
}

/// Total schedules/second over every adapter at one thread count, measured
/// with a plain chrono loop (stable methodology independent of benchmark
/// flags; reps chosen so each measurement runs long enough to smooth over
/// scheduler noise).
double measure_total_rate(const std::vector<NamedAdapter>& adapters,
                          unsigned threads, int reps) {
  std::size_t schedules = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    for (const auto& [name, adapter] : adapters) {
      const auto report =
          sim::ScenarioRunner(*adapter).sweep({/*max_deviators=*/-1, threads, {}});
      schedules += report.schedules_run;
    }
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return static_cast<double>(schedules) / secs;
}

// Deliberately measures with its own chrono loop instead of reusing the
// BM_Sweep counters: the JSON must be emitted with stable methodology even
// when benchmarks are filtered out or flags change their iteration counts.
std::string sweep_json(const std::vector<NamedAdapter>& adapters,
                       const std::vector<unsigned>& thread_axis) {
  using Layout = JsonWriter::Layout;
  JsonWriter w;
  w.field("benchmark", "scenario_sweep").field("unit", "schedules_per_second");
  // Provenance stamp: which commit/config produced this artifact, so the
  // CI regression gate (scripts/bench_compare.py) can refuse to compare
  // apples to oranges. hardware_threads tells readers whether an 8-thread
  // speedup had 8 hardware threads behind it.
  build_stamp().write(w);
  w.begin_array("protocols");
  std::size_t total_schedules = 0;
  double total_seconds = 0;
  for (const auto& [name, adapter] : adapters) {
    sim::ScenarioRunner runner(*adapter);
    // One warm-up, then time enough repetitions for a stable figure.
    auto warm = runner.sweep();
    const int reps = 5;
    const auto start = std::chrono::steady_clock::now();
    std::size_t schedules = 0;
    std::size_t violations = 0;
    for (int r = 0; r < reps; ++r) {
      const auto report = runner.sweep();
      schedules += report.schedules_run;
      violations += report.violations.size();
    }
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    total_schedules += schedules;
    total_seconds += secs;
    // Tree-executor statistics are per-sweep deterministic: report the
    // warm-up run's (brute sweeps show nodes_executed == schedules and
    // zero dedup hits).
    w.begin_object(Layout::kOneLine)
        .field("name", name)
        .field("schedules", warm.schedules_run)
        .field("schedules_per_second", static_cast<double>(schedules) / secs,
               1)
        .field("violations", violations)
        .field("nodes_executed", warm.nodes_executed)
        .field("dedup_hits", warm.dedup_hits)
        .end();
  }
  w.end();
  const double serial_rate =
      static_cast<double>(total_schedules) / total_seconds;

  // The parallel scaling curve: total rate across every protocol at each
  // thread count, plus the headline speedup at the top of the axis. The
  // speedup divides two rates from this same curve (axis entry 0 is always
  // threads = 1), never the differently-measured per-protocol figures.
  w.begin_array("parallel");
  double base_rate = serial_rate;
  double top_rate = serial_rate;
  for (std::size_t i = 0; i < thread_axis.size(); ++i) {
    const double rate = measure_total_rate(adapters, thread_axis[i], 3);
    if (i == 0) base_rate = rate;
    if (i + 1 == thread_axis.size()) top_rate = rate;
    w.begin_object(Layout::kOneLine)
        .field("threads", thread_axis[i])
        .field("schedules_per_second", rate, 1)
        .end();
  }
  w.end().field("speedup_at_max_threads", top_rate / base_rate, 2);

  // The enlarged timing-griefing space (--strategies=late-delays in the
  // CLI): serial schedules/s over every adapter's capped late-delay space.
  // A separate key — the regression gate reads total_schedules_per_second
  // (halt-only) and must stay comparable against older baselines.
  {
    sim::SweepOptions opts;
    opts.strategies.kind = sim::StrategySpace::Kind::kLateDelays;
    std::size_t schedules = 0;
    std::size_t nodes_executed = 0;
    std::size_t covered = 0;
    std::size_t dedup_hits = 0;
    const auto start = std::chrono::steady_clock::now();
    for (const auto& [name, adapter] : adapters) {
      const auto report = sim::ScenarioRunner(*adapter).sweep(opts);
      schedules += report.schedules_run;
      nodes_executed += report.nodes_executed;
      covered += report.schedules_covered;
      dedup_hits += report.dedup_hits;
    }
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    w.begin_object("late_delays", Layout::kOneLine)
        .field("schedules", schedules)
        .field("schedules_per_second", static_cast<double>(schedules) / secs,
               1)
        .field("nodes_executed", nodes_executed)
        .field("schedules_covered", covered)
        .field("dedup_hits", dedup_hits)
        .end();
    std::printf(
        "late-delay strategy space: %zu schedules at %.1f/s serial "
        "(%zu executed, %zu dedup hits)\n",
        schedules, static_cast<double>(schedules) / secs, nodes_executed,
        dedup_hits);
  }

  w.field("total_schedules_per_second", serial_rate, 1);
  std::printf("%.1f schedules/s serial, %.2fx at %u threads\n", serial_rate,
              top_rate / base_rate, thread_axis.back());
  return w.finish();
}

}  // namespace

int main(int argc, char** argv) {
  // --threads=N pins the parallel JSON measurement (and the summary sweep)
  // to N workers (0 = one per hardware thread, matching SweepOptions);
  // the default axis is the 1/2/4/8 scaling curve. --json=PATH redirects
  // the JSON artifact (so CI jobs are not cwd-dependent). Both flags are
  // consumed here so Google Benchmark never sees them.
  std::vector<unsigned> thread_axis = {1, 2, 4, 8};
  std::string json_path = "BENCH_scenario_sweep.json";
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
      if (json_path.empty()) {
        std::fprintf(stderr, "invalid --json= (want --json=PATH)\n");
        return 1;
      }
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      long long n = 0;
      if (!parse_long(argv[i] + 10, 0, UINT_MAX, n)) {
        std::fprintf(stderr, "invalid %s (want --threads=N, N >= 0)\n",
                     argv[i]);
        return 1;
      }
      const unsigned top =
          n == 0 ? std::max(1u, std::thread::hardware_concurrency())
                 : static_cast<unsigned>(n);
      thread_axis = top == 1 ? std::vector<unsigned>{1}  // no duplicate row
                             : std::vector<unsigned>{1, top};
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  // Claim the artifact before measuring: a bad path fails here, not after
  // the whole run.
  const char* tool = "bench_scenario_sweep";
  if (!write_file(tool, json_path, "")) return 1;

  auto adapters = make_adapters();

  std::printf("=== scenario sweep: exhaustive deviation-schedule audit ===\n");
  for (const auto& [name, adapter] : adapters) {
    const auto report = sim::ScenarioRunner(*adapter)
                            .sweep({/*max_deviators=*/-1, thread_axis.back(), {}});
    std::printf("%-20s %4zu schedules, %4zu conforming audits, %zu "
                "violations\n",
                name.c_str(), report.schedules_run,
                report.conforming_audited, report.violations.size());
  }

  for (const auto& [name, adapter] : adapters) {
    auto* bench = benchmark::RegisterBenchmark(
        ("BM_Sweep/" + name).c_str(),
        [&adapter = *adapter](benchmark::State& st) { BM_Sweep(st, adapter); });
    bench->ArgName("threads");
    // Wall clock, not main-thread CPU time: the sweep fans out to workers,
    // so the schedules/s rate is only meaningful in real time.
    bench->UseRealTime();
    for (const unsigned t : thread_axis) {
      bench->Arg(static_cast<long>(t));
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  if (!write_file(tool, json_path, sweep_json(adapters, thread_axis))) {
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
