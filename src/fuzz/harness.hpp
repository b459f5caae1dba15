#pragma once

// The coverage-guided fuzz loop.
//
// fuzz_target() drives one FuzzTarget: it replays the seed corpus (plus a
// generated starter set — conforming, per-party halts, boundary delays,
// every protocol-specific variant), then repeatedly picks a corpus entry,
// mutates it (fuzz/mutator.hpp), executes the mutant (fuzz/executor.hpp),
// and admits it to the corpus when its execution signature — consult-path
// fingerprint plus audit-outcome digest — is novel. Any violating run is
// minimized by the delta-debugging shrinker (fuzz/shrink.hpp) and the
// canonical reproducer recorded, deduplicated by its minimized text.
//
// Determinism: with budget_seconds == 0 the whole loop is a pure function
// of (target, seed, budget_runs, seed corpus) — the PRNG is seeded with
// seed ^ fnv1a(target name), wall-clock never feeds back into decisions,
// and the report carries no timing fields — so two same-seed runs emit
// byte-identical FUZZ_report.json bodies (the regression test pins this).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "fuzz/input.hpp"
#include "fuzz/target.hpp"

namespace xchain::fuzz {

/// Budgets and seeds for one fuzz run (shared across targets).
struct FuzzOptions {
  std::uint64_t seed = 1;
  /// Total executions per target, seed replays included.
  std::size_t budget_runs = 2000;
  /// Wall-clock bound per target; 0 = unlimited (the deterministic mode).
  double budget_seconds = 0;
  /// Corpus capacity; novel entries beyond it evict a random slot.
  std::size_t max_corpus = 256;
  /// Cap on shrinker invocations per target (each costs many probe runs).
  std::size_t max_shrinks = 16;
  /// Cap on recorded (deduplicated) reproducers per target.
  std::size_t max_reproducers = 8;
  /// Replay the seeds only; no mutation.
  bool replay_only = false;
  /// Seed corpus entries for this target (already parsed).
  std::vector<FuzzInput> seeds;
};

/// One minimized violation reproducer.
struct Reproducer {
  std::string input;      ///< canonical minimized text (FuzzInput::str())
  std::string violation;  ///< surviving Violation::str()
  std::size_t found_at_run = 0;
  std::size_t shrink_steps = 0;
  std::size_t shrink_probes = 0;
};

/// One target's fuzz outcome.
struct TargetFuzzResult {
  std::string protocol;
  std::size_t runs = 0;
  std::size_t corpus_entries = 0;
  std::size_t unique_signatures = 0;
  std::size_t violating_runs = 0;
  /// Inputs rejected before execution (schema-invalid mutants/seeds).
  std::size_t skipped_inputs = 0;
  /// Instances the pool built: one per distinct override set. Fault
  /// environments and faultless twins run on their override set's world
  /// and add none. Each build constructs an adapter and its world, so a
  /// high count relative to `runs` marks a target whose time goes to
  /// setup rather than execution.
  std::size_t instances = 0;
  std::vector<Reproducer> reproducers;
  /// The evolved corpus (canonical texts) — what --corpus-out persists so
  /// the nightly soak resumes from the previous run's coverage frontier.
  std::vector<std::string> corpus;

  bool ok() const { return violating_runs == 0; }
  /// "<protocol>: N runs, ..." one-line summary.
  std::string line() const;
};

/// Fuzzes one target under `opts`.
TargetFuzzResult fuzz_target(const FuzzTarget& target,
                             const FuzzOptions& opts);

/// Aggregate over every fuzzed target, in run order.
struct FuzzReport {
  std::uint64_t seed = 0;
  std::size_t budget_runs = 0;
  bool replay_only = false;
  std::vector<TargetFuzzResult> targets;

  std::size_t total_runs() const;
  std::size_t total_violating_runs() const;
  std::size_t total_reproducers() const;
  bool ok() const { return total_violating_runs() == 0; }
  /// One line per target plus a totals line; reproducers detailed under
  /// their target's line.
  std::string str() const;
};

/// FUZZ_report.json: the build stamp fields (common/json.hpp) plus
/// per-target rows and full reproducer texts. Deliberately carries NO
/// timing fields, so deterministic runs serialize byte-identically. Every
/// container is multi-line. Schema:
///   { "benchmark": "fuzz", "git_commit": ..., "build_type": ...,
///     "compiler": ..., "hardware_threads": N, "seed": N,
///     "budget_runs": N, "replay_only": true|false, "runs": N,
///     "violating_runs": N, "reproducers": N,
///     "targets": [ {"protocol": ..., "runs": N, "corpus_entries": N,
///                   "unique_signatures": N, "violating_runs": N,
///                   "skipped_inputs": N, "instances": N,
///                   "reproducers": [ {"input": ..., "violation": ...,
///                                     "found_at_run": N,
///                                     "shrink_steps": N,
///                                     "shrink_probes": N} ]} ] }
std::string fuzz_report_json(const FuzzReport& report,
                             const BuildStamp& stamp = build_stamp());

}  // namespace xchain::fuzz
