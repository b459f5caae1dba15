#pragma once

// Shared-chain load generator.
//
// Historical sweeps audit one protocol instance at a time on a private
// world. This subsystem instead binds thousands of concurrent instances —
// drawn from a weighted mix of registry protocols — onto ONE shared
// MultiChain (core/binding.hpp) and drives them through a seeded arrival
// process. Congestion is organic: every block has bounded capacity (a
// '*'-squeeze FaultClause), so instances outbid each other through their
// fee-escalation ResiliencePolicy instead of competing against synthetic
// spam. Every party is conforming; the question load answers is whether
// the paper's hedged floors survive *real* contention at scale.
//
// The tick loop is deterministic at any thread count:
//   1. serial arrivals  — instances whose start tick is due are bound
//      (mint endowments, deploy contracts, build persistent actors);
//   2. parallel ticks   — active instances are sharded over the worker
//      threads; each actor's tick() only reads chain state and records
//      its submissions into the instance's private TxSink;
//   3. serial drain     — sinks drain into the mempools in arrival order,
//      so submission sequence numbers never depend on thread timing;
//   4. block production — produce_all(now) runs the fee-ordered bounded
//      selection once per chain over the whole tick's traffic.
// An instance ends once the block at end_tick() - 1 is produced; its
// outcomes are audited immediately (audit_schedule), whose liveness check
// flags an instance whose protocol did not complete by then. Completion
// latency is measured by an inclusion observer mapping applied
// transactions back to instances through their disjoint account-id
// ranges.
//
// An audited instance may still have crowded-out transactions in the
// mempools, whose effects reference its contracts. Once the last of them
// is included, the instance retires: its bound world (actors, sink,
// signing and verify caches, adapter clone) is destroyed and its
// contracts are freed on the shared chains (Blockchain::retire). Memory
// therefore follows the instances alive at once
// (LoadReport::peak_live_instances), plus about 1 KB per instance ever
// run: its ledger rows, its tracked-tx statuses and its latency record.
//
// Violations are attributed after the run: each violating protocol is
// re-run solo on a faultless private world under the same all-conforming
// schedule. A violation whose party is clean on that twin came from
// congestion, not the protocol — it is marked fault_caused by the rule
// sweeps and fuzzing use (sim::attribute_fault, the [chain-fault] label);
// anything else stays unattributed and fails the bench.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sim/payoff_audit.hpp"

namespace xchain::load {

/// One entry of the protocol mix: a registry name (sim/registry.hpp) and
/// a relative weight in the arrival draw.
struct MixEntry {
  std::string protocol;
  int weight = 1;
};

/// Configuration of one load run. The report is a pure function of
/// everything here except `threads`, which only changes wall time.
struct LoadConfig {
  std::size_t users = 1000;  ///< protocol instances to run to completion
  unsigned threads = 1;      ///< tick-phase worker threads (>= 1)
  std::uint64_t seed = 1;    ///< arrival-process / mix-draw seed

  /// Weighted protocol mix; empty = {two-party:1}. Names resolve through
  /// ProtocolRegistry::global(), each at most once, and must support
  /// bind_instance (two-party, broker, bridge-transfer,
  /// bridge-account-create).
  std::vector<MixEntry> mix;

  /// Inter-arrival gap between consecutive instances is drawn uniformly
  /// from [0, arrival_gap] ticks (instance 0 arrives at tick 0). >= 0.
  Tick arrival_gap = 1;

  /// Per-block transaction cap on every chain (the organic-congestion
  /// squeeze). 0 = unbounded blocks (no congestion); negative is invalid.
  int block_capacity = 4;

  /// Fee-escalation ceiling of the instances' ResiliencePolicy. >= 0.
  Amount max_fee = 64;
};

/// Completion-latency percentiles in ticks (nearest-rank over the sorted
/// per-instance latencies). Latency is measured from the instance's
/// arrival tick to its last included transaction, inclusive.
struct LatencyStats {
  Tick p50 = 0;
  Tick p95 = 0;
  Tick p99 = 0;
  Tick max = 0;
  double mean = 0.0;

  bool operator==(const LatencyStats&) const = default;
};

/// Aggregates for one protocol of the mix.
struct ProtocolStats {
  std::string protocol;
  std::size_t instances = 0;
  std::size_t txs_included = 0;
  LatencyStats latency;
  std::size_t violations = 0;
  std::size_t fault_caused = 0;

  bool operator==(const ProtocolStats&) const = default;
};

/// Result of one load run. Identical for any `threads` value except the
/// wall_seconds field (same_outcome; pinned by
/// tests/load_generator_test.cpp).
struct LoadReport {
  /// Instances run to their end tick (== LoadConfig::users), whether or
  /// not the protocol completed there.
  std::size_t instances = 0;
  std::size_t txs_included = 0;  ///< transactions applied across all chains
  std::size_t chains = 0;        ///< distinct shared chains created
  Tick ticks = 0;                ///< simulated ticks until the last end tick
  /// The most instances holding a bound world at once: active ones plus
  /// audited ones not yet retired because a transaction of theirs was
  /// still pending. Memory follows this, not `instances`.
  std::size_t peak_live_instances = 0;
  double wall_seconds = 0.0;     ///< measured wall time of the tick loop

  LatencyStats latency;                      ///< across all instances
  std::vector<ProtocolStats> per_protocol;   ///< in mix order

  /// audit_schedule violations across all instances, in end-tick order:
  /// floor breaches, asset-safety losses and all-conforming runs that
  /// never completed (one "<all>" liveness violation per instance). Every
  /// one should re-audit clean on its faultless twin (fault_caused) — an
  /// unattributed violation is a real bug.
  std::vector<sim::Violation> violations;
  std::size_t fault_caused = 0;
  std::size_t unattributed = 0;

  bool ok() const { return unattributed == 0; }

  /// True when every field but wall_seconds matches `o`: the counts
  /// (peak_live_instances included), every latency stat, the per-protocol
  /// rows, and each violation with its attribution.
  bool same_outcome(const LoadReport& o) const;
};

/// Runs one load configuration to completion. Throws
/// std::invalid_argument on malformed configs (zero users, non-positive
/// weights, a negative gap, cap or max_fee) and sim::RegistryError on
/// unknown protocol names.
LoadReport run_load(const LoadConfig& cfg);

}  // namespace xchain::load
