#pragma once

#include <memory>
#include <vector>

#include "chain/blockchain.hpp"
#include "common/types.hpp"
#include "core/payoff.hpp"
#include "graph/digraph.hpp"
#include "sim/deviation.hpp"
#include "sim/tree.hpp"

namespace xchain::core {

/// Configuration of a multi-party swap on digraph G (paper §7). Every arc
/// (u, v) carries one asset of `asset_amount` units of u's token; premiums
/// are `premium_unit` (the paper's uniform p).
struct MultiPartyConfig {
  graph::Digraph g;
  /// Leaders must form a feedback vertex set; empty -> minimum FVS.
  std::vector<graph::Vertex> leaders;
  Amount asset_amount = 100;
  Amount premium_unit = 1;
  Tick delta = 1;
  /// false runs the *base* protocol of Herlihy '18 (phases 3-4 only, no
  /// premiums) — the unhedged baseline the paper transforms.
  bool hedged = true;
};

/// Outcome of one run.
struct MultiPartyResult {
  bool all_redeemed = false;  ///< every arc's asset reached its recipient

  std::vector<PayoffDelta> payoffs;     ///< per party
  std::vector<int> assets_escrowed;     ///< outgoing arcs the party escrowed
  std::vector<int> assets_refunded;     ///< of those, later refunded (locked)
  std::vector<int> assets_received;     ///< incoming arcs redeemed to party

  chain::EventLog events;
};

/// Per-party deviation ordinals (phase-level, matching the paper's lemma
/// structure):
///   hedged: 0 = escrow premium deposits, 1 = redemption premium deposits,
///           2 = asset escrows, 3 = hashkey release/propagation.
///   base:   0 = asset escrows, 1 = hashkey release/propagation.
inline constexpr int kMultiPartyHedgedActions = 4;
inline constexpr int kMultiPartyBaseActions = 2;

/// Runs the swap with one deviation plan per party (plans.size() ==
/// g.size()). Throws std::invalid_argument on malformed configs (graph not
/// strongly connected, leaders not an FVS, plan count mismatch).
MultiPartyResult run_multi_party_swap(
    const MultiPartyConfig& cfg,
    const std::vector<sim::DeviationPlan>& plans);

/// World of the multi-party swap: one chain per party, all arc contracts,
/// endowments, leader secrets, signature caches, and one persistent actor
/// per party, built once. Runs go through sim::play (see BootstrapWorld);
/// run_multi_party_swap plays a fresh world. Throws std::invalid_argument
/// on malformed configs, exactly like the free function.
class MultiPartyWorld {
 public:
  explicit MultiPartyWorld(const MultiPartyConfig& cfg,
                           chain::TraceMode trace = chain::TraceMode::kFull);
  ~MultiPartyWorld();
  MultiPartyWorld(MultiPartyWorld&&) noexcept;
  MultiPartyWorld& operator=(MultiPartyWorld&&) noexcept;

  /// Chains, one actor per vertex, and the run horizon (sim/tree.hpp).
  sim::TreeFrame& frame();
  /// Installs one plan per party, in vertex order.
  void set_plans(const std::vector<sim::DeviationPlan>& plans);
  /// Appends that result to `out` without strings or maps: all_redeemed,
  /// each party's escrowed, refunded and received asset counts, then each
  /// party's balance changes. collect() is this summary read back, plus
  /// the event log.
  void summarize(ResultSummary& out) const;
  /// The result of the run the world's state describes.
  MultiPartyResult collect() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace xchain::core
