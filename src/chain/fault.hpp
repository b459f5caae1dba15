#pragma once

// Chain-level fault injection (the robustness layer).
//
// Every audited schedule used to run on a perfectly reliable substrate:
// unbounded block space, no outages, next-block inclusion for every
// submission. The sore-loser scenario arises *endogenously* when that
// assumption breaks — a timely party crowded out of a full block or
// stalled by an outage misses an inclusive deadline through no deviation
// of its own. A FaultPlan is the chain-side sibling of sim::DeviationPlan:
// a composable, deterministic description of per-chain unreliability that
// sweeps and campaigns can enumerate the same way they enumerate party
// deviations.
//
// Grammar (one spelling per plan, parse/str round-trips canonically):
//
//   spec    := entry (';' entry)*
//   entry   := <chain> ':' clause        -- <chain> is a chain name or '*'
//   clause  := 'outage@' A '-' B                         no blocks, ticks A..B
//            | 'squeeze@' A '-' B ',cap=' N              at most N txs/block
//              [',spam=' N ',fee=' N] [',mem=' N]        + synthetic load
//            | 'drop@' A '-' B ',p=' N [',seed=' N]      drop fresh txs, N permille
//
// All windows are inclusive tick ranges. Unmatched chain names are
// silently ignored — campaigns sweep one fault spec across protocols with
// different chain rosters, and '*' targets every chain.
//
// Determinism: drops are a pure function of (clause seed, chain id, block
// height, tx sequence number) — no mutable RNG state — so a run replays
// byte-identically regardless of thread count or rewind depth.
//
// Tolerance envelope: the hedged contracts provision inclusive deadlines
// spaced >= Delta per scheduled step, so a conforming party has Delta - 1
// ticks of slack per step. within_tolerance(delta) marks the fault plans
// that stay inside that slack — outages shorter than Delta and squeezes
// that still admit at least one transaction per block (recoverable by fee
// escalation). Probabilistic drops are never within tolerance: no finite
// fee outbids an adversary that discards the transaction outright, only
// rebroadcast recovers, and a seeded stream can drop every rebroadcast.
// The audit promise is: conforming parties running an adequate
// ResiliencePolicy keep their hedged floors against every within-envelope
// fault plan.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace xchain::chain {

class MultiChain;

/// One injected fault over an inclusive tick window of one chain.
struct FaultClause {
  enum class Kind : std::uint8_t { kOutage, kSqueeze, kDrop };

  Kind kind = Kind::kOutage;
  Tick from = 0;  ///< first affected tick (inclusive)
  Tick to = 0;    ///< last affected tick (inclusive)

  // kSqueeze
  int cap = 0;         ///< max transactions included per block (>= 0)
  int spam = 0;        ///< synthetic competing txs injected per block
  Amount spam_fee = 0; ///< fee carried by each synthetic tx
  int mem = -1;        ///< mempool carry-over limit, -1 = unbounded

  // kDrop
  int permille = 0;       ///< drop probability for freshly submitted txs
  std::uint64_t seed = 0; ///< stream selector for the drop hash

  bool active(Tick now) const { return now >= from && now <= to; }
  Tick length() const { return to - from + 1; }

  /// Canonical clause text (the grammar above, without the chain prefix).
  std::string str() const;

  friend bool operator==(const FaultClause&, const FaultClause&) = default;
};

/// Per-chain compiled view: the clauses whose chain pattern matched one
/// concrete Blockchain. This is what Blockchain executes against.
struct ChainFaults {
  std::vector<FaultClause> clauses;

  bool empty() const { return clauses.empty(); }

  /// True when any outage window covers `now` (the block is skipped).
  bool outage_at(Tick now) const;

  /// Effective per-block capacity at `now`: the tightest active squeeze
  /// cap, or -1 when no squeeze is active (unbounded).
  int cap_at(Tick now) const;

  /// Mempool carry-over limit at `now` (-1 = unbounded).
  int mem_at(Tick now) const;

  /// True when any drop window covers `now`.
  bool drops_at(Tick now) const;

  /// Deterministic drop decision for a fresh tx (see file comment).
  bool should_drop(ChainId chain, Tick now, std::uint64_t tx_seq) const;

  /// Invokes `fn(spam_count, spam_fee)` for each active squeeze with
  /// spam > 0, in clause order.
  template <class Fn>
  void each_spam(Tick now, Fn&& fn) const {
    for (const FaultClause& c : clauses) {
      if (c.kind == FaultClause::Kind::kSqueeze && c.active(now) &&
          c.spam > 0) {
        fn(c.spam, c.spam_fee);
      }
    }
  }
};

/// A full fault plan: (chain pattern, clause) pairs in spec order.
struct FaultPlan {
  std::vector<std::pair<std::string, FaultClause>> entries;

  bool empty() const { return entries.empty(); }

  /// Parses the spec grammar; throws std::invalid_argument with the
  /// offending fragment on malformed input. Empty spec = empty plan.
  static FaultPlan parse(const std::string& spec);

  /// Canonical spec text ("" for the empty plan); parse/str round-trips.
  std::string str() const;

  /// True when every clause stays inside the protocol's Delta slack (see
  /// file comment): outages strictly shorter than `delta` ticks, squeezes
  /// with cap >= 1, and no drop clauses.
  bool within_tolerance(Tick delta) const;

  /// Clauses applying to the chain named `name` (exact match or '*').
  ChainFaults for_chain(const std::string& name) const;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// How a party handles its submitted-but-not-included transactions.
///
/// kNaive is fire-and-forget (the historical behavior): submit once,
/// never look back — under faults the transaction may be crowded out past
/// its deadline or silently dropped. kRebroadcast resubmits a dropped or
/// evicted transaction at its original fee. kFeeEscalate additionally
/// raises the fee linearly with waiting time (deadline-aware priority
/// bumping), so a conforming party outbids bounded synthetic congestion
/// before its inclusive deadline lapses.
struct ResiliencePolicy {
  enum class Kind : std::uint8_t { kNaive, kRebroadcast, kFeeEscalate };

  Kind kind = Kind::kNaive;
  Amount base_fee = 0;  ///< fee attached at first submission
  Amount fee_step = 1;  ///< kFeeEscalate: fee increase per waited tick
  Amount max_fee = 64;  ///< kFeeEscalate: escalation ceiling

  bool active() const { return kind != Kind::kNaive; }

  /// Fee for a transaction decided at `decided`, (re)submitted at `now`.
  Amount fee_at(Tick decided, Tick now) const {
    if (kind != Kind::kFeeEscalate) return base_fee;
    const Tick waited = now > decided ? now - decided : 0;
    const Amount fee = base_fee + fee_step * static_cast<Amount>(waited);
    return fee < max_fee ? fee : max_fee;
  }

  /// Parses "naive", "rebroadcast", or "fee-escalate[:base,step,max]";
  /// throws std::invalid_argument otherwise, and for a base above the max
  /// (the first submission would pay the max, not the base).
  static ResiliencePolicy parse(const std::string& text);

  /// Canonical text; parse/str round-trips ("fee-escalate" keeps its
  /// short spelling when the numeric knobs are at their defaults).
  std::string str() const;

  friend bool operator==(const ResiliencePolicy&,
                         const ResiliencePolicy&) = default;
};

/// The chain-side execution environment of a run: which faults are
/// injected and how parties defend. Adapters carry one and install it on
/// their world's chains; the default (empty plan, naive policy) is
/// byte-identical to the historical fault-free substrate.
struct ChainEnvironment {
  FaultPlan faults;
  ResiliencePolicy resilience;

  /// True when this environment changes anything about execution.
  bool active() const { return !faults.empty() || resilience.active(); }

  /// Applies the plan and policy to every chain (by name / '*' match).
  void install(MultiChain& chains) const;

  /// Canonical one-line key, e.g. "faults=banana:squeeze@4-10,cap=1
  /// resilience=fee-escalate"; "" when inactive. Used for instance-cache
  /// keying and report labeling.
  std::string str() const;

  friend bool operator==(const ChainEnvironment&,
                         const ChainEnvironment&) = default;
};

}  // namespace xchain::chain
