#pragma once

#include <memory>
#include <vector>

#include "chain/blockchain.hpp"
#include "common/types.hpp"
#include "core/binding.hpp"
#include "core/payoff.hpp"
#include "core/premiums.hpp"
#include "sim/deviation.hpp"
#include "sim/tree.hpp"

namespace xchain::core {

/// Configuration of a bootstrapped hedged swap (paper §6, Figure 2):
/// `rounds` rounds of premium deposits precede the principal swap, each
/// round's deposits protected by the previous round's smaller deposits.
struct BootstrapConfig {
  Amount alice_tokens = 1'000'000;  ///< A, on the apricot chain
  Amount bob_tokens = 1'000'000;    ///< B, on the banana chain
  double factor = 100.0;            ///< P (premium = value / P)
  int rounds = 2;                   ///< r >= 1
  Tick delta = 2;                   ///< synchrony bound in ticks

  /// Optional explicit premium-rung amounts, one per round (index 0 is
  /// rung 1), overriding the geometric `factor` ladder — e.g. rungs priced
  /// by the CRR model (§4). Both lists must be set together, `rounds` long.
  std::vector<Amount> apricot_premiums;
  std::vector<Amount> banana_premiums;
};

struct BootstrapResult {
  bool swapped = false;

  PayoffDelta alice;
  PayoffDelta bob;

  /// The unprotected first deposits — the construction's residual risk.
  Amount initial_risk_apricot = 0;
  Amount initial_risk_banana = 0;

  /// Longest time any *premium* rung stayed locked before being refunded
  /// or forfeited, in ticks. The paper claims this is independent of the
  /// number of bootstrapping rounds ("the duration of the premium lock-up
  /// risk is one atomic swap execution plus Delta").
  Tick max_premium_lockup = 0;

  /// Ticks each principal spent escrowed before refund (0 if redeemed).
  Tick alice_lockup = 0;
  Tick bob_lockup = 0;

  chain::EventLog events;
};

/// Per-party action count (for deviation sweeps): r premium deposits, one
/// principal escrow, one redemption.
inline int bootstrap_action_count(int rounds) { return rounds + 2; }

/// The ladder amounts a config produces: the geometric bootstrap_schedule
/// of §6 unless the config carries explicit premium overrides. Shared by
/// run_bootstrap_swap and the scenario-sweep adapter so both always agree
/// on the rung values.
BootstrapSchedule bootstrap_amounts(const BootstrapConfig& cfg);

/// Runs the r-round bootstrapped hedged swap. Each party's deviation plan
/// indexes its own actions in protocol order (Alice: her premium rungs in
/// global order, escrow A, redeem banana; Bob symmetric).
///
/// With rounds = 1 this protocol *is* the hedged two-party swap of §5.2
/// with p_b = A/P and p_a + p_b = (A+B)/P: run_hedged_two_party plays the
/// one-rung ladder of two_party_ladder (core/two_party.hpp).
BootstrapResult run_bootstrap_swap(const BootstrapConfig& cfg,
                                   sim::DeviationPlan alice,
                                   sim::DeviationPlan bob);

/// World of the bootstrapped ladder swap: both chains, both ladder
/// contracts, endowments, and the two persistent, snapshot-capable actors,
/// built once. A run installs plans and ticks the frame to its horizon
/// (sim::play): run_bootstrap_swap and run_hedged_two_party do that on a
/// fresh traced world, sweep adapters on one reused traceless world
/// rewound to its post-setup snapshot (sim/scenario.hpp), and the load
/// generator on a bound world.
class BootstrapWorld {
 public:
  explicit BootstrapWorld(const BootstrapConfig& cfg,
                          chain::TraceMode trace = chain::TraceMode::kFull);

  /// Bound form (core/binding.hpp): deploys the instance onto the shared
  /// MultiChain at `binding.party_base` / `binding.start`; the load
  /// scheduler drives the frame's actors on the shared chains.
  BootstrapWorld(const BootstrapConfig& cfg, const WorldBinding& binding,
                 chain::TraceMode trace = chain::TraceMode::kOff);
  ~BootstrapWorld();
  BootstrapWorld(BootstrapWorld&&) noexcept;
  BootstrapWorld& operator=(BootstrapWorld&&) noexcept;

  /// Chains, actors (Alice, Bob), and the run horizon (sim/tree.hpp).
  sim::TreeFrame& frame();
  /// Installs one plan per actor: Alice, Bob.
  void set_plans(const std::vector<sim::DeviationPlan>& plans);
  /// Appends that result to `out` without strings or maps: swapped, the
  /// longest premium lock-up, each principal's lock-up (Alice's, then
  /// Bob's), then Alice's and Bob's balance changes. collect() is this
  /// summary read back, plus the config's initial risks and the event log.
  void summarize(ResultSummary& out) const;
  /// The result of the run the world's state describes.
  BootstrapResult collect() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace xchain::core
